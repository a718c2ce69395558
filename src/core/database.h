// Database: a collection of L-Store tables sharing one transaction
// manager and logical clock, giving multi-statement transactions that
// span tables (the paper's transaction layer operates above the
// storage layer; Section 3: "we support multi-statement transactions
// through L-Store's transaction layer").
//
// A database opened on a directory is *durable* (Section 5.1.3):
// every table gets a redo log under the directory, a database-level
// COMMIT_LOG is the single atomic commit point for cross-table
// transactions (per-table logs carry only their payloads), each log's
// group commit shares fsyncs among concurrent committers,
// `Checkpoint()` writes lineage-consistent snapshots and
// truncates the logs (including the commit log's covered prefix), and
// `Open()` performs full restart recovery (catalog -> commit log ->
// checkpoints -> log-tail replay -> index/Indirection rebuild).

#ifndef LSTORE_CORE_DATABASE_H_
#define LSTORE_CORE_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/segment_store.h"
#include "common/config.h"
#include "common/latch.h"
#include "common/status.h"
#include "core/table.h"
#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "txn/txn.h"

namespace lstore {

class ArchiveManager;
class CheckpointManager;
class CommitLog;
class SlowOpLog;
class StatsReporter;

/// A point to restore to (Database::RestoreToPoint): either an
/// inclusive commit time, or the LSN of a cross-table commit-log
/// record (resolved to that record's commit time).
struct RestorePoint {
  Timestamp commit_time = 0;
  uint64_t commit_lsn = 0;
  static RestorePoint AtTime(Timestamp t) {
    RestorePoint p;
    p.commit_time = t;
    return p;
  }
  static RestorePoint AtCommitLsn(uint64_t lsn) {
    RestorePoint p;
    p.commit_lsn = lsn;
    return p;
  }
};

class Database : public TxnContext {
 public:
  /// In-memory database (no durability).
  Database();
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Open (or create) a durable database rooted at directory `dir`.
  /// Recovers every cataloged table from its latest checkpoint plus
  /// the redo-log tail; a corrupt manifest or checkpoint fails with a
  /// clean Corruption status. Background checkpointing starts when
  /// `opts` configures a trigger.
  static Status Open(const std::string& dir, const DurabilityOptions& opts,
                     std::unique_ptr<Database>* out);
  static Status Open(const std::string& dir, std::unique_ptr<Database>* out) {
    return Open(dir, DurabilityOptions{}, out);
  }

  /// Take a lineage-consistent checkpoint of every table and truncate
  /// the redo logs to the recorded watermarks. NotSupported on an
  /// in-memory database.
  Status Checkpoint();

  /// Point-in-time recovery (requires a directory whose checkpoints
  /// ran with DurabilityOptions::archive_enabled): open `dir`
  /// read-only, load the newest checkpoint at or before the point,
  /// stitch archived + live log segments into one LSN-continuous
  /// stream per participant, replay the commit log into an outcome
  /// map truncated at the point, and replay each table against it —
  /// the result is an in-memory Database holding the exact
  /// cross-table-consistent committed state at the point (a
  /// transaction is present with ALL of its writes, on every
  /// participant, or none). The point is inclusive: commits with
  /// commit_time <= point are present. Fails with NotFound when the
  /// point precedes the archived history (retention evicted it) and
  /// with Corruption when a sealed segment is torn or a gap breaks
  /// the LSN stitch — never silently missing data. Scope: the restore
  /// covers the tables in the CURRENT catalog — DropTable permanently
  /// removes a table from history (its archived segments are
  /// reclaimed with it), and reusing a dropped table's name
  /// invalidates that name's pre-reuse history (those restores fail
  /// cleanly). `dir` must not have a writing Database attached.
  static Status RestoreToPoint(const std::string& dir,
                               const RestorePoint& point,
                               std::unique_ptr<Database>* out);

  bool durable() const { return !dir_.empty(); }
  const std::string& directory() const { return dir_; }
  CheckpointManager* checkpoint_manager() { return checkpoint_manager_.get(); }

  /// The database commit log — the single atomic commit point for
  /// cross-table transactions (null on an in-memory database).
  CommitLog* commit_log() { return commit_log_.get(); }
  /// The log archive (null unless DurabilityOptions::archive_enabled).
  ArchiveManager* archive_manager() { return archive_.get(); }

  /// Create a table registered under `name`. Fails if the name exists.
  /// On a durable database, logging is forced on (log under the
  /// database directory) and the schema/config are persisted to the
  /// catalog so the table survives restarts even before its first
  /// checkpoint.
  Status CreateTable(const std::string& name, Schema schema,
                     TableConfig config);

  /// Lookup; nullptr if absent.
  Table* GetTable(const std::string& name);

  /// Drop a table (must not have in-flight transactions touching it).
  /// On a durable database also removes its log and catalog entry.
  Status DropTable(const std::string& name);

  /// Create a secondary index on `table`.`col`. On a durable database
  /// the index column is persisted to the catalog, so the index is
  /// rebuilt on every restart — unlike Table::CreateSecondaryIndex
  /// called directly, which only reaches the durable state at the
  /// next checkpoint.
  Status CreateSecondaryIndex(const std::string& table, ColumnId col);

  std::vector<std::string> TableNames() const;

  /// Begin an RAII transaction session valid across every table of
  /// this database: commit with txn.Commit(); a session destroyed
  /// while active aborts automatically. The commit runs the same
  /// pipeline as single-table sessions — validation against each
  /// participating table, one commit record per written log, and the
  /// state flip in the shared manager as the single atomic commit
  /// point for all of them.
  Txn Begin(IsolationLevel iso = IsolationLevel::kReadCommitted);

  TransactionManager& txn_manager() { return txn_manager_; }

  /// A read snapshot covering every currently-committed transaction,
  /// WITHOUT advancing the logical clock — the right timestamp for
  /// read-only scans across tables (Query::AsOf).
  Timestamp Now() const { return txn_manager_.SnapshotNow(); }

  /// A ticking timestamp: advances the clock and returns a time newer
  /// than every previous event. Prefer Now() for read-only scans.
  Timestamp ReadTimestamp() { return txn_manager_.clock().Tick(); }

  /// The database-wide buffer pool for read-optimized base segments
  /// (nullptr when DurabilityOptions::buffer_pool_bytes — or the
  /// LSTORE_BUFFER_POOL_BYTES knob — is 0: fully resident).
  BufferPool* buffer_pool() { return buffer_pool_.get(); }

  /// Aggregate hit/miss/eviction/residency counters of the pool
  /// (all-zero when no pool is configured). Thin view over the pool's
  /// own counters; the same numbers appear as lstore_buffer_* gauges
  /// in Metrics().
  BufferPoolStats buffer_stats() const {
    return buffer_pool_ != nullptr ? buffer_pool_->stats()
                                   : BufferPoolStats{};
  }

  /// The engine-wide metrics registry shared by every table of this
  /// database (src/obs/metrics.h).
  MetricsRegistry& metrics() { return metrics_; }

  /// One consistent snapshot of every engine metric: commit-stage and
  /// group-commit timings, redo/commit-log traffic, merge durations,
  /// buffer-pool and epoch levels, checkpoint/archive phases. Render
  /// with MetricsSnapshot::RenderPrometheus() / RenderJson().
  MetricsSnapshot Metrics() const { return metrics_.Snapshot(); }

  /// The flight recorder's current contents as Chrome trace-event JSON
  /// (chrome://tracing / Perfetto loadable): every span of every traced
  /// request still retained in the per-thread rings. Served over the
  /// wire as the TRACE op (`lstore_cli trace`). Under LSTORE_TRACING=
  /// OFF: a valid document with zero events.
  std::string DumpTrace() const;

  /// The slow-op log (src/obs/slow_op_log.h), or nullptr unless the
  /// database is durable, tracing is compiled in, and
  /// DurabilityOptions::slow_op_threshold_us > 0.
  SlowOpLog* slow_op_log() { return slow_op_log_.get(); }

  /// The heartbeat registry every background actor of this engine
  /// registers with (src/obs/health.h) — merge threads, the
  /// checkpointer, log flushers, the stats reporter, and a
  /// co-resident Server's workers/readers.
  HealthRegistry& health() { return health_; }

  /// The structured event log (src/obs/event_log.h): in-memory ring
  /// always; plus <dir>/events.log JSON lines when durable.
  EventLog& event_log() { return events_; }

  /// The watchdog sweeping the health registry. Its background thread
  /// runs only on a durable database with watchdog_interval_ms > 0;
  /// Health() sweeps on demand either way.
  Watchdog* watchdog() { return watchdog_.get(); }

  /// One on-demand watchdog sweep plus the newest retained events:
  /// the typed report behind the HEALTH wire op / `lstore_cli status`.
  HealthReport Health();

 private:
  friend class CheckpointManager;

  /// Cross-table commit/abort via the unified pipeline (sessions call
  /// these through TxnContext).
  Status CommitTxn(Transaction* txn) override;
  void AbortTxn(Transaction* txn) override;

  /// Registered tables, in creation order (checkpoint + catalog use).
  std::vector<std::pair<std::string, Table*>> TableHandles() const;

  /// Rewrite the catalog from the current table set (atomic rename).
  Status PersistCatalog();
  /// Same, omitting `skip` (DropTable persists before erasing memory).
  Status PersistCatalogExcluding(const std::string& skip);

  Status CreateTableInternal(const std::string& name, Schema schema,
                             TableConfig config, Table** out);

  /// Declared first, so destroyed last: once every table is gone, hand
  /// the heap pages they freed back to the OS. The allocator keeps
  /// freed chunks in the arenas of the threads that allocated them, so
  /// without this a database reopened in the same process stacks a
  /// second copy of its data on top of the first.
  struct HeapRelease {
    HeapRelease() = default;
    ~HeapRelease();
    HeapRelease(const HeapRelease&) = delete;
    HeapRelease& operator=(const HeapRelease&) = delete;
  } heap_release_;

  TransactionManager txn_manager_;
  mutable SpinLatch latch_;
  /// Engine-wide metrics registry. Declared before every subsystem
  /// that records into it (tables, logs, pipeline, checkpointing) so
  /// the handles they cache stay valid for their whole lifetime.
  MetricsRegistry metrics_;
  /// Health registry + event log: declared right after metrics_ (and
  /// before every subsystem) for the same reason — actors hold
  /// heartbeat handles and emit events for their whole lifetime. The
  /// watchdog itself only reads these members, but its thread is
  /// stopped FIRST in ~Database so no sweep races subsystem teardown.
  HealthRegistry health_;
  EventLog events_;
  std::unique_ptr<Watchdog> watchdog_;
  /// Serializes durable DDL (CreateTable/DropTable/CreateSecondaryIndex)
  /// against checkpoints: a checkpoint iterates raw Table pointers, so
  /// a concurrent drop must not destroy a table mid-capture. Ordering:
  /// ddl_mu_ before the checkpoint manager's internal mutexes.
  mutable std::mutex ddl_mu_;
  /// Buffer-managed base storage: one pool for the whole database,
  /// one swap store per table. Declared BEFORE tables_ so both
  /// outlive the tables whose destructors detach pages from the pool
  /// (and whose cold pages read from the stores).
  std::unique_ptr<BufferPool> buffer_pool_;
  std::unordered_map<std::string, std::unique_ptr<SegmentStore>>
      segment_stores_;

  struct Entry {
    std::string name;
    std::unique_ptr<Table> table;
  };
  std::vector<Entry> tables_;

  std::string dir_;  ///< empty = in-memory
  DurabilityOptions durability_;
  /// Log archiving / PITR (durable + archive_enabled only).
  std::unique_ptr<ArchiveManager> archive_;
  /// Cross-table commit point (durable only).
  std::unique_ptr<CommitLog> commit_log_;
  // Declared last: destroyed (and therefore stopped) before tables_.
  std::unique_ptr<CheckpointManager> checkpoint_manager_;
  /// Slow-op dump sink (<dir>/slowops.log); created by Open when
  /// DurabilityOptions::slow_op_threshold_us > 0 and tracing is
  /// compiled in. Consumers (Server workers) hold the raw pointer only
  /// while the Database lives — same contract as the registry handles.
  std::unique_ptr<SlowOpLog> slow_op_log_;
  /// Last-seen FlightRecorder::dropped() value, so the registry
  /// collector can mirror the delta into the monotonic counter.
  std::atomic<uint64_t> trace_dropped_seen_{0};
  /// Background JSON-lines reporter (DurabilityOptions::
  /// metrics_report_interval_ms). Last: stopped before anything it
  /// samples is torn down (~Database also stops it explicitly).
  std::unique_ptr<StatsReporter> reporter_;
};

}  // namespace lstore

#endif  // LSTORE_CORE_DATABASE_H_
