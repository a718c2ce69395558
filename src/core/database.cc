#include "core/database.h"

#include <sys/stat.h>
#include <sys/types.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstdio>

#include <unordered_map>
#include <utility>

#include "archive/archive_manager.h"
#include "checkpoint/checkpoint_manager.h"
#include "common/thread_pool.h"
#include "core/commit_pipeline.h"
#include "log/commit_log.h"
#include "obs/flight_recorder.h"
#include "obs/reporter.h"
#include "obs/slow_op_log.h"
#include "obs/span.h"

namespace lstore {

/// Database commit-log file name. Table logs are "<name>.log", so no
/// table name can collide with it.
static constexpr char kCommitLogFile[] = "COMMIT_LOG";

Database::Database() {
  // The watchdog exists on every database (in-memory ones get
  // on-demand sweeps via Health(); only durable opens start its
  // thread). DumpTrace reads the process-wide flight recorder, so the
  // capture is safe for the watchdog's whole lifetime.
  watchdog_ = std::make_unique<Watchdog>(&health_, &events_, &metrics_,
                                         [this] { return DumpTrace(); });
  // Snapshot-time collector: mirror levels kept by their subsystems
  // into gauges — zero cost on the subsystems' hot paths. `this`
  // outlives the registry (both are members), so the capture is safe.
  metrics_.AddCollector([this](MetricsRegistry& r) {
    BufferPoolStats bs = buffer_stats();
    r.GetGauge("lstore_buffer_hits", "Buffer-pool resident pin hits")
        ->Set(static_cast<int64_t>(bs.hits));
    r.GetGauge("lstore_buffer_misses", "Buffer-pool demand loads")
        ->Set(static_cast<int64_t>(bs.misses));
    r.GetGauge("lstore_buffer_evictions", "Buffer-pool clock evictions")
        ->Set(static_cast<int64_t>(bs.evictions));
    r.GetGauge("lstore_buffer_cold_point_reads",
               "Point reads decoded from cold fixed-width segments")
        ->Set(static_cast<int64_t>(bs.cold_point_reads));
    r.GetGauge("lstore_buffer_bytes_resident", "Resident payload bytes")
        ->Set(static_cast<int64_t>(bs.bytes_resident));
    r.GetGauge("lstore_buffer_budget_bytes", "Pool byte budget (0 = none)")
        ->Set(static_cast<int64_t>(bs.budget_bytes));
    r.GetGauge("lstore_buffer_pages", "Registered pages (resident or cold)")
        ->Set(static_cast<int64_t>(bs.pages));
    size_t epoch_pending = 0;
    {
      SpinGuard g(latch_);
      for (const auto& e : tables_) {
        epoch_pending += e.table->epochs().pending();
      }
    }
    r.GetGauge("lstore_epoch_pending",
               "Retired-but-unreclaimed epoch entries across tables")
        ->Set(static_cast<int64_t>(epoch_pending));
    if (kTraceEnabled) {
      // Mirror the flight recorder's monotonic overwrite count into a
      // counter: exchange keeps the delta exact even when several
      // databases in one process all run this collector.
      uint64_t dropped = FlightRecorder::Instance().dropped();
      uint64_t seen = trace_dropped_seen_.exchange(dropped);
      if (dropped > seen) {
        r.GetCounter("lstore_trace_ring_dropped_total",
                     "Flight-recorder spans overwritten before snapshot")
            ->Add(dropped - seen);
      }
    }
  });
}

Database::~Database() {
  // The watchdog stops BEFORE the subsystems it watches: no sweep may
  // observe a half-destroyed actor or emit into a dying event log.
  if (watchdog_ != nullptr) watchdog_->Stop();
  if (durable()) {
    events_.Emit(EventSeverity::kInfo, "db", "close");
  }
  // Stop the reporter first: its snapshot callback walks tables and
  // the buffer pool.
  if (reporter_ != nullptr) reporter_->Stop();
  // Stop background checkpointing before tables are torn down (the
  // unique_ptr member order would do it too; be explicit).
  if (checkpoint_manager_ != nullptr) checkpoint_manager_->Stop();
}

Database::HeapRelease::~HeapRelease() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

HealthReport Database::Health() {
  HealthReport report = watchdog_->SweepOnce();
  report.recent_events = events_.Recent(32);
  return report;
}

// ---------------------------------------------------------------------------
// Table registry
// ---------------------------------------------------------------------------

Status Database::CreateTableInternal(const std::string& name, Schema schema,
                                     TableConfig config, Table** out) {
  // Buffer-managed base storage: with a pool, every table shares it
  // and gets its own swap store under the directory. WITHOUT a pool,
  // an existing .segs file is still opened — a database checkpointed
  // with paging on must reopen with paging off: its lazily restored
  // segments hydrate on first touch and then stay resident. Opening
  // an existing file keeps previously recorded offsets valid, so a
  // manifest that references them recovers lazily. The filesystem
  // work runs BEFORE the registry spin latch (GetTable callers must
  // not spin through syscalls); duplicate creations are already
  // serialized by ddl_mu_, and on the duplicate-name path below the
  // freshly opened handle is simply dropped.
  std::unique_ptr<SegmentStore> store;
  if (durable()) {
    std::string segs_path = dir_ + "/" + name + ".segs";
    struct ::stat st;
    bool segs_exists = ::stat(segs_path.c_str(), &st) == 0;
    if (buffer_pool_ != nullptr || segs_exists) {
      store = std::make_unique<SegmentStore>();
      LSTORE_RETURN_IF_ERROR(store->Open(segs_path));
      config.buffer_pool = buffer_pool_.get();
      config.segment_store = store.get();
      config.verify_segment_refs = durability_.verify_segment_store_on_open;
    }
  }
  // Every table of a database records into the shared registry, and
  // its merge thread heartbeats into the shared health registry.
  config.metrics = &metrics_;
  config.health = &health_;
  SpinGuard g(latch_);
  for (const auto& e : tables_) {
    if (e.name == name) return Status::AlreadyExists("table exists");
  }
  if (store != nullptr) segment_stores_[name] = std::move(store);
  tables_.push_back(Entry{
      name, std::make_unique<Table>(name, std::move(schema),
                                    std::move(config), &txn_manager_)});
  // Sessions begun on this database are valid on the member table.
  tables_.back().table->txn_scope_ = this;
  if (out != nullptr) *out = tables_.back().table.get();
  return Status::OK();
}

Status Database::CreateTable(const std::string& name, Schema schema,
                             TableConfig config) {
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  if (durable()) {
    if (GetTable(name) != nullptr) return Status::AlreadyExists("table exists");
    // A previously dropped table of the same name must leave no trace:
    // a stale manifest entry or log file would be matched by name at
    // the next Open and resurrect the old data.
    if (checkpoint_manager_ != nullptr) {
      LSTORE_RETURN_IF_ERROR(checkpoint_manager_->ForgetTable(name));
    }
    config.enable_logging = true;
    config.log_path = dir_ + "/" + name + ".log";
    config.sync_commit = durability_.sync_commit;
    std::remove(config.log_path.c_str());
    // A stale swap store of a previously dropped table must not be
    // appended to: its old offsets are garbage for the new table.
    std::remove((dir_ + "/" + name + ".segs").c_str());
    // Stale archived segments likewise: the new table's log restarts
    // at LSN 1, so old sealed prefixes would poison any future stitch.
    if (archive_ != nullptr) archive_->ForgetTable(name);
  }
  LSTORE_RETURN_IF_ERROR(
      CreateTableInternal(name, std::move(schema), std::move(config), nullptr));
  if (durable()) return PersistCatalog();
  return Status::OK();
}

Table* Database::GetTable(const std::string& name) {
  SpinGuard g(latch_);
  for (auto& e : tables_) {
    if (e.name == name) return e.table.get();
  }
  return nullptr;
}

Status Database::DropTable(const std::string& name) {
  // Serialize against checkpoints: RunCheckpoint walks raw Table
  // pointers and must never see one destroyed mid-capture.
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  std::string log_path;
  {
    SpinGuard g(latch_);
    auto it = std::find_if(tables_.begin(), tables_.end(),
                           [&](const Entry& e) { return e.name == name; });
    if (it == tables_.end()) return Status::NotFound("no such table");
    log_path = it->table->config().log_path;
  }
  if (durable()) {
    // Durable state first, memory last, so a failed persist (e.g.
    // ENOSPC) leaves the drop cleanly retryable. Order within the
    // durable state: the catalog rules existence, so rewrite it
    // first; then the manifest entry + checkpoint files; the log
    // last (a crash in between leaves only ignorable orphans).
    LSTORE_RETURN_IF_ERROR(PersistCatalogExcluding(name));
    if (checkpoint_manager_ != nullptr) {
      LSTORE_RETURN_IF_ERROR(checkpoint_manager_->ForgetTable(name));
    }
    if (!log_path.empty()) std::remove(log_path.c_str());
    if (archive_ != nullptr) archive_->ForgetTable(name);
  }
  {
    SpinGuard g(latch_);
    auto it = std::find_if(tables_.begin(), tables_.end(),
                           [&](const Entry& e) { return e.name == name; });
    if (it != tables_.end()) tables_.erase(it);
  }
  // The table (and with it every cold page referencing the store) is
  // gone; drop the swap store last.
  segment_stores_.erase(name);
  if (durable()) std::remove((dir_ + "/" + name + ".segs").c_str());
  return Status::OK();
}

Status Database::CreateSecondaryIndex(const std::string& table,
                                      ColumnId col) {
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no such table");
  if (col >= t->schema().num_columns()) {
    return Status::InvalidArgument("bad column");
  }
  for (ColumnId existing : t->SecondaryColumns()) {
    if (existing == col) return Status::AlreadyExists("index exists");
  }
  t->CreateSecondaryIndex(col);
  if (durable()) return PersistCatalog();
  return Status::OK();
}

std::vector<std::string> Database::TableNames() const {
  SpinGuard g(latch_);
  std::vector<std::string> names;
  for (const auto& e : tables_) names.push_back(e.name);
  return names;
}

std::vector<std::pair<std::string, Table*>> Database::TableHandles() const {
  SpinGuard g(latch_);
  std::vector<std::pair<std::string, Table*>> out;
  out.reserve(tables_.size());
  for (const auto& e : tables_) out.emplace_back(e.name, e.table.get());
  return out;
}

Status Database::PersistCatalog() { return PersistCatalogExcluding(""); }

Status Database::PersistCatalogExcluding(const std::string& skip) {
  std::vector<CatalogEntry> entries;
  {
    SpinGuard g(latch_);
    for (const auto& e : tables_) {
      if (!skip.empty() && e.name == skip) continue;
      CatalogEntry ce;
      ce.name = e.name;
      const Schema& s = e.table->schema();
      for (ColumnId c = 0; c < s.num_columns(); ++c) {
        ce.columns.push_back(s.name(c));
      }
      ce.config = e.table->config();
      ce.secondary_columns = e.table->SecondaryColumns();
      entries.push_back(std::move(ce));
    }
  }
  return WriteCatalog(dir_, entries);
}

// ---------------------------------------------------------------------------
// Durability: open + checkpoint
// ---------------------------------------------------------------------------

Status Database::Open(const std::string& dir, const DurabilityOptions& opts,
                      std::unique_ptr<Database>* out) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create database directory: " + dir);
  }
  auto db = std::unique_ptr<Database>(new Database());
  db->dir_ = dir;
  db->durability_ = opts;

  // Health + events first: every subsystem constructed below may
  // register a heartbeat or emit a lifecycle event.
  db->health_.set_default_deadlines(opts.health_slow_ms,
                                    opts.health_stall_ms);
  db->events_.Configure(
      dir + "/events.log", opts.obs_log_max_bytes,
      db->metrics_.GetCounter("lstore_events_total",
                              "Structured engine events emitted"),
      opts.event_ring_capacity);
  db->watchdog_->set_dump_dir(dir);

  // Size the shared scan pool before anything can lazily build it
  // (first-configuration-wins; see ThreadPool::ConfigureShared).
  if (opts.scan_threads != 0) {
    ThreadPool::ConfigureShared(opts.scan_threads);
  }

  // Buffer-managed base storage: a byte budget (option, or the
  // LSTORE_BUFFER_POOL_BYTES test knob) turns on demand paging of base
  // segments; 0 keeps them fully resident exactly as before. The pool
  // must exist before any table recovers so checkpoints can restore
  // segment references lazily.
  uint64_t pool_budget = opts.buffer_pool_bytes != 0
                             ? opts.buffer_pool_bytes
                             : BufferPool::EnvBudgetBytes();
  if (pool_budget > 0) {
    db->buffer_pool_ = std::make_unique<BufferPool>(pool_budget);
    db->buffer_pool_->set_event_log(&db->events_);
    db->buffer_pool_->set_metrics(&db->metrics_);
  }

  // Log archiving: the manager exists (and its directory is swept of
  // stale temp files) before the first checkpoint can truncate.
  if (opts.archive_enabled) {
    db->archive_ = std::make_unique<ArchiveManager>(dir, opts);
    db->archive_->set_metrics(&db->metrics_);
    db->archive_->set_event_log(&db->events_);
    LSTORE_RETURN_IF_ERROR(db->archive_->EnsureDir());
  }

  std::vector<CatalogEntry> catalog;
  bool catalog_exists = false;
  LSTORE_RETURN_IF_ERROR(ReadCatalog(dir, &catalog, &catalog_exists));

  Manifest manifest;
  bool manifest_exists = false;
  LSTORE_RETURN_IF_ERROR(ReadManifest(dir, &manifest, &manifest_exists));

  // Cross-table outcomes first: a commit record here commits the
  // transaction on EVERY participant; its absence (including a torn
  // final record) aborts it on every participant. Every table below
  // recovers against this one map, so no crash can split a
  // cross-table transaction.
  const std::string commit_log_path = dir + "/" + kCommitLogFile;
  std::unordered_map<TxnId, Timestamp> db_commits;
  db->commit_log_ = std::make_unique<CommitLog>();
  {
    FramedLogMetrics clm;
    clm.appends = db->metrics_.GetCounter("lstore_commit_log_appends_total",
                                          "Commit-log records appended");
    clm.append_bytes =
        db->metrics_.GetCounter("lstore_commit_log_append_bytes_total",
                                "Commit-log framed bytes appended");
    clm.fsyncs = db->metrics_.GetCounter("lstore_commit_log_fsyncs_total",
                                         "Commit-log commit-path fsyncs");
    clm.append_ns = db->metrics_.GetHistogram(
        "lstore_commit_log_append_ns", "Commit-log append latency (ns)");
    clm.flush_ns = db->metrics_.GetHistogram(
        "lstore_commit_log_flush_ns", "Commit-log flush latency (ns)");
    clm.fsync_failures = db->metrics_.GetCounter(
        "lstore_commit_log_fsync_failures_total",
        "Commit-log fsyncs that failed (the log stops accepting syncs)");
    WireGroupCommitMetrics(&db->metrics_, &clm);
    clm.flusher = db->health_.Register("commit_log");
    db->commit_log_->set_metrics(clm);
  }
  LSTORE_RETURN_IF_ERROR(db->commit_log_->Open(
      commit_log_path, /*truncate=*/false,
      [&db_commits](const CommitLogRecord& rec, uint64_t) {
        // A later abort marker is authoritative: it is only written
        // when the commit record's own flush failed (the client saw
        // the abort). Txn ids are never reused.
        if (rec.aborted) {
          db_commits.erase(rec.txn_id);
        } else {
          db_commits[rec.txn_id] = rec.commit_time;
        }
      }));

  for (const CatalogEntry& ce : catalog) {
    TableConfig cfg = ce.config;
    cfg.enable_logging = true;
    cfg.log_path = dir + "/" + ce.name + ".log";
    cfg.sync_commit = opts.sync_commit;
    Table* t = nullptr;
    LSTORE_RETURN_IF_ERROR(
        db->CreateTableInternal(ce.name, Schema(ce.columns), cfg, &t));

    const ManifestEntry* me = nullptr;
    for (const ManifestEntry& e : manifest.entries) {
      if (e.table == ce.name) me = &e;
    }
    if (me != nullptr) {
      LSTORE_RETURN_IF_ERROR(t->RecoverDurable(dir + "/" + me->file,
                                               me->log_watermark,
                                               me->file_checksum, &db_commits));
    } else {
      // Created after the last checkpoint: the log alone carries it.
      LSTORE_RETURN_IF_ERROR(t->RecoverDurable("", 0, 0, &db_commits));
    }
    // Secondary indexes: union of the catalog (kept current by
    // Database::CreateSecondaryIndex) and the manifest (covers
    // indexes created directly on the Table before a checkpoint).
    std::vector<ColumnId> secs = ce.secondary_columns;
    if (me != nullptr) {
      secs.insert(secs.end(), me->secondary_columns.begin(),
                  me->secondary_columns.end());
    }
    std::sort(secs.begin(), secs.end());
    secs.erase(std::unique(secs.begin(), secs.end()), secs.end());
    for (ColumnId col : secs) t->CreateSecondaryIndex(col);
  }

  // Resume the clock beyond every cross-table commit even when no
  // table replayed it (e.g. all tables dropped): a fresh transaction
  // id must never collide with a retained commit-log record.
  Timestamp max_commit = 0;
  for (const auto& [txn, ct] : db_commits) {
    (void)txn;
    if (ct > max_commit) max_commit = ct;
  }
  if (max_commit > 0) db->txn_manager_.clock().AdvanceTo(max_commit + 1);

  db->checkpoint_manager_ =
      std::make_unique<CheckpointManager>(db.get(), dir, opts);
  if (manifest_exists) {
    db->checkpoint_manager_->SetRecoveredManifest(manifest);
  }
  db->checkpoint_manager_->Start();
  if (opts.metrics_report_interval_ms > 0) {
    Database* raw = db.get();
    db->reporter_ = std::make_unique<StatsReporter>(
        dir + "/metrics.log", opts.metrics_report_interval_ms,
        [raw] { return raw->Metrics(); }, db->health_.Register("reporter"),
        opts.obs_log_max_bytes);
  }
  if (kTraceEnabled && opts.slow_op_threshold_us > 0) {
    // Same directory (and JSON-lines writer) as metrics.log; the
    // counter makes the dumps themselves observable.
    db->slow_op_log_ = std::make_unique<SlowOpLog>(
        dir + "/slowops.log", opts.slow_op_threshold_us,
        db->metrics_.GetCounter(
            "lstore_server_slow_ops_total",
            "Traced requests that exceeded slow_op_threshold_us"),
        opts.obs_log_max_bytes);
  }
  db->events_.Emit(EventSeverity::kInfo, "db", "open",
                   "\"tables\":" + std::to_string(catalog.size()));
  db->watchdog_->Start(opts.watchdog_interval_ms);
  *out = std::move(db);
  return Status::OK();
}

std::string Database::DumpTrace() const {
  return FlightRecorder::Instance().RenderChromeTrace();
}

Status Database::Checkpoint() {
  if (!durable()) {
    return Status::NotSupported("in-memory database has no checkpoint");
  }
  return checkpoint_manager_->RunCheckpoint();
}

// ---------------------------------------------------------------------------
// Cross-table transactions
// ---------------------------------------------------------------------------

Txn Database::Begin(IsolationLevel iso) {
  return Txn(this, txn_manager_.Begin(iso));
}

Status Database::CommitTxn(Transaction* txn) {
  // Snapshot the table list (tables are not dropped mid-transaction);
  // the pipeline filters the actual participants from the read and
  // write sets.
  std::vector<Table*> tables;
  {
    SpinGuard g(latch_);
    for (auto& e : tables_) tables.push_back(e.table.get());
  }
  return CommitAcrossTables(txn_manager_, txn, tables, commit_log_.get());
}

void Database::AbortTxn(Transaction* txn) {
  std::vector<Table*> tables;
  {
    SpinGuard g(latch_);
    for (auto& e : tables_) tables.push_back(e.table.get());
  }
  AbortAcrossTables(txn_manager_, txn, tables);
}

}  // namespace lstore
