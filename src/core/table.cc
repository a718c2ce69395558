#include "core/table.h"

#include <algorithm>
#include <cassert>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/bitutil.h"
#include "core/commit_pipeline.h"
#include "core/historic.h"
#include "core/merge.h"
#include "core/query.h"

namespace lstore {

namespace {

void AtomicMaxU32(std::atomic<uint32_t>& a, uint32_t v) {
  uint32_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Range
// ---------------------------------------------------------------------------

Table::Range::Range(uint64_t range_id, uint32_t range_size, uint32_t num_cols,
                    uint32_t tail_page_slots)
    : id(range_id),
      indirection(std::make_unique<std::atomic<uint64_t>[]>(range_size)),
      ever_updated(std::make_unique<std::atomic<uint64_t>[]>(range_size)),
      inserts(num_cols, tail_page_slots),
      updates(num_cols, tail_page_slots),
      base(num_cols + kBaseMetaColumns) {
  for (uint32_t i = 0; i < range_size; ++i) {
    indirection[i].store(0, std::memory_order_relaxed);
    ever_updated[i].store(0, std::memory_order_relaxed);
  }
  for (auto& b : base) b.store(nullptr, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Table::Table(std::string name, Schema schema, TableConfig config,
             TransactionManager* txn_manager)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      config_(config),
      chunks_(std::make_unique<std::atomic<RangeChunk*>[]>(kMaxRangeChunks)) {
  for (uint32_t i = 0; i < kMaxRangeChunks; ++i) {
    chunks_[i].store(nullptr, std::memory_order_relaxed);
  }
  if (txn_manager != nullptr) {
    txn_manager_ = txn_manager;
  } else {
    owned_txn_manager_ = std::make_unique<TransactionManager>();
    txn_manager_ = owned_txn_manager_.get();
  }
  metrics_ = config_.metrics;
  if (metrics_ == nullptr) {
    // Standalone table: own a registry so metrics() is always valid,
    // and mirror the epoch queue depth into it at snapshot time (a
    // database-owned registry gets a database-wide collector instead).
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
    metrics_->AddCollector([this](MetricsRegistry& r) {
      r.GetGauge("lstore_epoch_pending",
                 "Retired-but-unreclaimed epoch entries")
          ->Set(static_cast<int64_t>(epochs_.pending()));
    });
  }
  obs_.merge_update_ns = metrics_->GetHistogram(
      "lstore_merge_update_ns", "Update-merge duration per range (ns)");
  obs_.merge_insert_ns = metrics_->GetHistogram(
      "lstore_merge_insert_ns", "Insert-merge duration per range (ns)");
  obs_.merge_historic_ns = metrics_->GetHistogram(
      "lstore_merge_historic_ns", "Historic-compression duration (ns)");
  obs_.query_partition_ns = metrics_->GetHistogram(
      "lstore_query_partition_ns", "Query scan partition latency (ns)");
  obs_.merge_rows = metrics_->GetCounter(
      "lstore_merge_rows_consolidated_total",
      "Tail records consolidated by update merges");
  obs_.insert_rows_merged = metrics_->GetCounter(
      "lstore_merge_insert_rows_total",
      "Insert rows turned into base segments");
  obs_.historic_versions = metrics_->GetCounter(
      "lstore_merge_historic_versions_total",
      "Versions moved into the historic store");
  obs_.commit_publish_ns = metrics_->GetHistogram(
      "lstore_commit_publish_ns",
      "Commit publish stage: state flip + write stamping (ns)");
  obs_.commits =
      metrics_->GetCounter("lstore_commits_total", "Pipeline commits");
  obs_.aborts =
      metrics_->GetCounter("lstore_aborts_total", "Pipeline aborts");
  obs_.read_repairs = metrics_->GetCounter(
      "lstore_read_repairs_total",
      "Reads re-resolved after an inconsistent lineage attempt");
  obs_.read_repair_exhausted = metrics_->GetCounter(
      "lstore_read_repair_exhausted_total",
      "Reads that ran out of optimistic repairs and resolved under the "
      "range's merge latch");
  obs_.inserts = metrics_->GetCounter("lstore_inserts_total",
                                      "Records inserted");
  obs_.updates = metrics_->GetCounter(
      "lstore_updates_total", "Tail versions written (updates and deletes)");
  obs_.deletes = metrics_->GetCounter("lstore_deletes_total",
                                      "Records deleted");
  obs_.reads = metrics_->GetCounter("lstore_reads_total",
                                    "Transactional point reads");
  obs_.tail_hops = metrics_->GetCounter(
      "lstore_read_tail_hops_total",
      "Versions a read resolved from tail pages or the historic store");
  obs_.ww_aborts = metrics_->GetCounter(
      "lstore_aborts_ww_total", "Writes refused by a write-write conflict");
  obs_.validation_aborts = metrics_->GetCounter(
      "lstore_aborts_validation_total", "Commits that failed OCC validation");
  obs_.update_merges = metrics_->GetCounter("lstore_merge_update_runs_total",
                                            "Update merges completed");
  obs_.insert_merges = metrics_->GetCounter("lstore_merge_insert_runs_total",
                                            "Insert merges completed");
  obs_.historic_merges = metrics_->GetCounter(
      "lstore_merge_historic_runs_total", "Historic compressions completed");
  obs_.segments_retired = metrics_->GetCounter(
      "lstore_merge_segments_retired_total",
      "Base segments replaced by a merge");
  if (config_.enable_logging && !config_.log_path.empty()) {
    log_ = std::make_unique<RedoLog>();
    obs_.redo.appends = metrics_->GetCounter(
        "lstore_redo_appends_total", "Redo-log record frames appended");
    obs_.redo.append_bytes = metrics_->GetCounter(
        "lstore_redo_append_bytes_total", "Redo-log framed bytes appended");
    obs_.redo.fsyncs = metrics_->GetCounter("lstore_redo_fsyncs_total",
                                            "Redo-log commit-path fsyncs");
    obs_.redo.append_ns = metrics_->GetHistogram(
        "lstore_redo_append_ns", "Redo-log append latency (ns)");
    obs_.redo.flush_ns = metrics_->GetHistogram("lstore_redo_flush_ns",
                                                "Redo-log flush latency (ns)");
    obs_.redo.fsync_failures = metrics_->GetCounter(
        "lstore_redo_fsync_failures_total",
        "Redo-log fsyncs that failed (the log stops accepting syncs)");
    WireGroupCommitMetrics(metrics_, &obs_.redo);
    if (config_.health != nullptr) {
      obs_.redo.flusher = config_.health->Register("redo_log:" + name_);
    }
    log_->set_metrics(obs_.redo);
    Status s = log_->Open(config_.log_path, /*truncate=*/false);
    if (!s.ok()) log_.reset();
  }
  buffer_pool_ = config_.buffer_pool;
  segment_store_ = config_.segment_store;
  if (buffer_pool_ == nullptr && segment_store_ == nullptr) {
    // Memory-capped test knob: force standalone tables through the
    // demand-paging path by spilling to an anonymous temp file.
    // (A store-only wiring — durable reopen without a pool — is left
    // alone: its lazily restored segments reference that store.)
    uint64_t env_budget = BufferPool::EnvBudgetBytes();
    if (env_budget > 0) {
      owned_store_ = std::make_unique<SegmentStore>();
      if (owned_store_->OpenTemp().ok()) {
        owned_pool_ = std::make_unique<BufferPool>(env_budget);
        owned_pool_->set_metrics(metrics_);
        buffer_pool_ = owned_pool_.get();
        segment_store_ = owned_store_.get();
      } else {
        owned_store_.reset();
      }
    }
  }
  merge_manager_ = std::make_unique<MergeManager>(this);
  if (config_.enable_merge_thread) merge_manager_->Start();
}

Table::~Table() {
  if (merge_manager_) merge_manager_->Stop();
  // Detach this table's pages from the (shared) buffer pool first: a
  // concurrent eviction on behalf of another table must not retire a
  // payload into an epoch manager that is about to be destroyed.
  if (buffer_pool_ != nullptr) buffer_pool_->DetachDomain(&epochs_);
  // Run pending epoch deleters BEFORE tearing down the ranges they
  // reference (retired segments, deferred tail-page drops, evicted
  // payloads). No readers can exist at this point.
  epochs_.DrainAllUnsafe();
  // Free ranges and their published structures.
  for (uint64_t c = 0; c < kMaxRangeChunks; ++c) {
    RangeChunk* chunk = chunks_[c].load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    for (uint32_t i = 0; i < kRangeChunkSize; ++i) {
      Range* r = chunk->ranges[i].load(std::memory_order_acquire);
      if (r == nullptr) continue;
      for (auto& b : r->base) delete b.load(std::memory_order_acquire);
      delete r->historic.load(std::memory_order_acquire);
      delete r;
    }
    delete chunk;
  }
}

Table::Range* Table::GetRange(uint64_t id) const {
  uint64_t c = id / kRangeChunkSize;
  if (c >= kMaxRangeChunks) return nullptr;
  RangeChunk* chunk = chunks_[c].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return chunk->ranges[id % kRangeChunkSize].load(std::memory_order_acquire);
}

Table::Range* Table::EnsureRange(uint64_t id) {
  Range* r = GetRange(id);
  if (r != nullptr) return r;
  SpinGuard g(ranges_latch_);
  uint64_t c = id / kRangeChunkSize;
  RangeChunk* chunk = chunks_[c].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    chunk = new RangeChunk();
    chunks_[c].store(chunk, std::memory_order_release);
  }
  auto& slot = chunk->ranges[id % kRangeChunkSize];
  r = slot.load(std::memory_order_acquire);
  if (r == nullptr) {
    r = new Range(id, config_.range_size, schema_.num_columns(),
                  config_.tail_page_slots);
    slot.store(r, std::memory_order_release);
    uint64_t n = num_ranges_.load(std::memory_order_relaxed);
    while (n < id + 1 && !num_ranges_.compare_exchange_weak(
                             n, id + 1, std::memory_order_acq_rel)) {
    }
  }
  return r;
}

uint64_t Table::num_ranges() const {
  return num_ranges_.load(std::memory_order_acquire);
}

uint32_t Table::RangeTps(uint64_t range_id) const {
  Range* r = GetRange(range_id);
  return r == nullptr ? 0 : r->merged_tps.load(std::memory_order_acquire);
}

uint32_t Table::RangeTailLength(uint64_t range_id) const {
  Range* r = GetRange(range_id);
  return r == nullptr ? 0 : r->updates.LastSeq();
}

std::vector<uint32_t> Table::RangeColumnTps(uint64_t range_id) const {
  std::vector<uint32_t> out;
  Range* r = GetRange(range_id);
  if (r == nullptr) return out;
  EpochGuard guard(epochs_);
  for (ColumnId c = 0; c < schema_.num_columns(); ++c) {
    BaseSegment* seg = Segment(*r, c);
    out.push_back(seg == nullptr ? 0 : seg->tps);
  }
  return out;
}

std::vector<Table::ChainEntry> Table::DebugChain(Value key,
                                                 ColumnId col) const {
  std::vector<ChainEntry> out;
  Rid rid = primary_.Get(key);
  if (rid == kInvalidRid) return out;
  Range* r = GetRange(RangeOf(rid));
  if (r == nullptr) return out;
  uint32_t slot = SlotOf(rid);
  EpochGuard guard(epochs_);
  uint32_t seq = IndirSeq(r->indirection[slot].load(std::memory_order_acquire));
  uint32_t boundary = r->historic_boundary.load(std::memory_order_acquire);
  int hops = 0;
  // Stop at the historic boundary: pages below it may be reclaimed
  // (compressed versions live in the historic store instead).
  while (seq >= boundary && seq != 0 && hops++ < 1000) {
    ChainEntry e;
    e.seq = seq;
    e.raw_start = r->updates.Read(seq, kTailStartTime);
    e.schema_encoding = r->updates.Read(seq, kTailSchemaEncoding);
    e.col_value = r->updates.Read(seq, kTailMetaColumns + col);
    out.push_back(e);
    seq = static_cast<uint32_t>(r->updates.Read(seq, kTailIndirection));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Base record accessors
// ---------------------------------------------------------------------------

Value Table::BaseValue(const Range& r, uint32_t slot,
                       uint32_t physical_col) const {
  BaseSegment* seg = r.base[physical_col].load(std::memory_order_acquire);
  if (seg != nullptr && slot < seg->num_slots) return seg->Get(slot);
  // Not insert-merged yet: the record lives in the table-level tail
  // pages (Section 3.2) at the aligned position slot+1.
  uint32_t seq = slot + 1;
  if (physical_col < schema_.num_columns()) {
    return r.inserts.Read(seq, kTailMetaColumns + physical_col);
  }
  switch (physical_col - schema_.num_columns()) {
    case kBaseStartTime:
      return r.inserts.Read(seq, kTailStartTime);
    case kBaseLastUpdated:
      return r.inserts.Read(seq, kTailStartTime);
    case kBaseSchemaEnc:
      return 0;
  }
  return kNull;
}

Value Table::BaseStartRaw(const Range& r, uint32_t slot) const {
  return BaseMetaValue(r, slot, kBaseStartTime);
}

// ---------------------------------------------------------------------------
// Buffer-managed segment pages
// ---------------------------------------------------------------------------

std::shared_ptr<SegmentPage> Table::MakeSegmentPage(std::vector<Value> vals) {
  auto page = std::make_shared<SegmentPage>(&epochs_,
                                            static_cast<uint32_t>(vals.size()),
                                            config_.compress_merged_pages);
  if (segment_store_ != nullptr) {
    // Write through BEFORE building (Build consumes vals): once the
    // bytes are in the store the page is evictable, and a durable
    // store lets checkpoints reference the segment instead of
    // rewriting it. The payload layout is chosen per segment
    // (EncodeSwapPayload): the checksummed fixed-width blocks give
    // cold POINT reads O(1) verified slot reads; value distributions
    // where varint is strictly smaller keep the compact layout and
    // the full-inflate path.
    SwapFormat format = SwapFormat::kVarint;
    uint32_t width = 0;
    const std::string payload = EncodeSwapPayload(vals, &format, &width);
    uint64_t offset = 0;
    if (segment_store_->Append(payload, &offset).ok()) {
      page->SetSwap(segment_store_, offset, payload.size(),
                    Fnv1a32(payload.data(), payload.size()), format, width);
    }
    // Append failure (e.g. ENOSPC): the page simply stays resident
    // and unevictable — correctness is unaffected.
  }
  page->SetResident(
      CompressedColumn::Build(std::move(vals), config_.compress_merged_pages)
          .release());
  if (buffer_pool_ != nullptr) buffer_pool_->Register(page.get());
  return page;
}

std::shared_ptr<SegmentPage> Table::MakeColdSegmentPage(
    uint32_t num_slots, uint64_t offset, uint64_t length, uint32_t checksum,
    SwapFormat format, uint32_t value_width) {
  auto page = std::make_shared<SegmentPage>(&epochs_, num_slots,
                                            config_.compress_merged_pages);
  page->SetSwap(segment_store_, offset, length, checksum, format,
                value_width);
  if (buffer_pool_ != nullptr) buffer_pool_->Register(page.get());
  return page;
}

Status Table::SyncSegmentStore() {
  if (segment_store_ == nullptr || !segment_store_->durable()) {
    return Status::OK();
  }
  return segment_store_->Sync();
}

std::atomic<Value>* Table::BaseStartSlot(Range& r, uint32_t slot) const {
  // Only meaningful while the slot is not insert-merged (the segment's
  // start column is a stamped, stable commit time).
  return r.inserts.StartTimeSlot(slot + 1);
}

// ---------------------------------------------------------------------------
// Visibility
// ---------------------------------------------------------------------------

void Table::StampCommitTime(std::atomic<Value>* slot, Value observed) const {
  Value expected = observed;
  // Lazy swap of txn id -> commit time (Section 5.1.1); losing the
  // race is fine, someone else stamped.
  TransactionManager::StateView view = txn_manager_->GetState(observed);
  if (view.found && view.state == TxnState::kCommitted) {
    slot->compare_exchange_strong(expected, view.commit,
                                  std::memory_order_acq_rel);
  }
}

Table::Visibility Table::CheckVisible(std::atomic<Value>* slot_ref, Value& raw,
                                      const ReadSpec& spec,
                                      TxnId* dependency) const {
  for (int spin = 0;; ++spin) {
    if (raw == kNull) return Visibility::kInvisible;
    if (IsAbortedStamp(raw)) return Visibility::kInvisible;
    if (!IsTxnId(raw)) {
      return raw < spec.as_of ? Visibility::kVisible : Visibility::kInvisible;
    }
    // Raw holds a transaction id.
    if (spec.txn != nullptr && raw == spec.txn->id()) {
      return Visibility::kVisible;  // read-your-own-writes
    }
    TransactionManager::StateView view = txn_manager_->GetState(raw);
    if (!view.found) {
      // Entry retired: the outcome has been stamped into the slot;
      // re-read and re-evaluate.
      Value reread = slot_ref->load(std::memory_order_acquire);
      if (reread == raw) {
        // Stamping is in flight on another thread; brief wait.
        std::this_thread::yield();
        continue;
      }
      raw = reread;
      continue;
    }
    switch (view.state) {
      case TxnState::kActive:
        return Visibility::kInvisible;
      case TxnState::kPreCommit:
        if (spec.speculative && view.commit < spec.as_of) {
          if (dependency != nullptr) *dependency = raw;
          return Visibility::kVisibleSpeculative;
        }
        if (spec.as_of != kMaxTimestamp &&
            (view.commit == 0 || view.commit < spec.as_of)) {
          // A pre-commit writer whose commit time falls inside this
          // snapshot: its outcome determines visibility, so wait for
          // the (short) validation window to resolve — otherwise two
          // reads of the same snapshot could disagree.
          std::this_thread::yield();
          continue;
        }
        return Visibility::kInvisible;
      case TxnState::kCommitted: {
        Value expected = raw;
        slot_ref->compare_exchange_strong(expected, view.commit,
                                          std::memory_order_acq_rel);
        raw = view.commit;
        return view.commit < spec.as_of ? Visibility::kVisible
                                        : Visibility::kInvisible;
      }
      case TxnState::kAborted: {
        Value expected = raw;
        slot_ref->compare_exchange_strong(expected, kAbortedStamp,
                                          std::memory_order_acq_rel);
        return Visibility::kInvisible;
      }
    }
  }
}

bool Table::VisibleAtSnapshot(Value raw_start, Timestamp as_of) const {
  if (raw_start == kNull || IsAbortedStamp(raw_start)) return false;
  if (IsTxnId(raw_start)) {
    TransactionManager::StateView view = txn_manager_->GetState(raw_start);
    return view.found && view.state == TxnState::kCommitted &&
           view.commit < as_of;
  }
  return raw_start < as_of;
}

// ---------------------------------------------------------------------------
// Record resolution (the 2-hop read path of Section 2.2)
// ---------------------------------------------------------------------------

Status Table::ResolveRecord(Range& r, uint32_t slot, const ReadSpec& spec,
                            ColumnMask needed, std::vector<Value>* out,
                            uint32_t* observed_seq) const {
  constexpr int kOptimisticAttempts = 8;
  for (int attempt = 0; attempt < kOptimisticAttempts; ++attempt) {
    bool consistent = true;
    Status s = ResolveRecordOnce(r, slot, spec, needed, out, observed_seq,
                                 &consistent);
    if (consistent) return s;
    // Theorem 2: an inconsistent read (detected via the in-page
    // lineage) is repaired by re-resolving against fresh state.
    obs_.read_repairs->Increment();
    std::this_thread::yield();
  }
  // Merges kept landing mid-resolve, or the lineage lacks this
  // version. Every segment swap of this range (insert and update
  // merges, historic compression, checkpoint capture) holds its merge
  // latch, and none of them reads through here, so one more attempt
  // under the latch sees a fixed lineage.
  obs_.read_repair_exhausted->Increment();
  bool consistent = true;
  Status s;
  {
    SpinGuard g(r.merge_latch);
    s = ResolveRecordOnce(r, slot, spec, needed, out, observed_seq,
                          &consistent);
  }
  if (consistent) return s;
  return Status::Busy("no lineage-consistent version at this snapshot");
}

Status Table::ResolveRecordOnce(Range& r, uint32_t slot, const ReadSpec& spec,
                                ColumnMask needed, std::vector<Value>* out,
                                uint32_t* observed_seq,
                                bool* consistent) const {
  constexpr uint32_t kInvisibleSeq = 0xFFFFFFFFu;
  if (observed_seq != nullptr) *observed_seq = kInvisibleSeq;

  // 1. Base record (original insert) visibility.
  {
    uint32_t based = r.based.load(std::memory_order_acquire);
    if (slot < based) {
      Value start = BaseMetaValue(r, slot, kBaseStartTime);
      if (!(start != kNull && start < spec.as_of)) {
        // Insert-merged starts are stable commit times; kNull marks an
        // aborted insert.
        return Status::NotFound("record not visible");
      }
    } else {
      std::atomic<Value>* sref = BaseStartSlot(r, slot);
      Value raw = sref->load(std::memory_order_acquire);
      TxnId dep = 0;
      Visibility v = CheckVisible(sref, raw, spec, &dep);
      if (v == Visibility::kInvisible) {
        return Status::NotFound("record not visible");
      }
      if (v == Visibility::kVisibleSpeculative && spec.txn != nullptr) {
        spec.txn->commit_dependencies().push_back(dep);
      }
    }
  }

  // 2. Walk the lineage chain from the Indirection column. Columns
  // whose base Schema Encoding bit is clear were never updated, so
  // their value lives in base pages for every snapshot — serve them
  // without touching the chain (the 0/2-hop property of Section 2.2).
  uint64_t iv = r.indirection[slot].load(std::memory_order_acquire);
  uint32_t seq = IndirSeq(iv);
  uint64_t ever = r.ever_updated[slot].load(std::memory_order_acquire);
  ColumnMask remaining = needed & ever;
  ColumnMask base_resident = needed & ~ever;
  bool first_found = false;
  const bool latest_mode = spec.as_of == kMaxTimestamp;

  // Fast path (0-hop): every requested column is covered by merged
  // base segments at or beyond the chain head.
  if (latest_mode && seq != 0) {
    bool covered = true;
    BaseSegment* enc_seg = r.base[schema_.num_columns() + kBaseSchemaEnc]
                               .load(std::memory_order_acquire);
    if (enc_seg == nullptr || slot >= enc_seg->num_slots ||
        enc_seg->tps < seq) {
      covered = false;
    }
    for (BitIter it(needed); covered && it; ++it) {
      BaseSegment* seg = Segment(r, static_cast<uint32_t>(*it));
      if (seg == nullptr || slot >= seg->num_slots || seg->tps < seq) {
        covered = false;
        break;
      }
    }
    if (covered) {
      Value enc = BaseMetaValue(r, slot, kBaseSchemaEnc);
      if (IsDeleteRecord(enc)) return Status::NotFound("deleted");
      for (BitIter it(needed); it; ++it) {
        (*out)[*it] = BaseDataValue(r, slot, static_cast<ColumnId>(*it));
      }
      if (observed_seq != nullptr) *observed_seq = seq;
      return Status::OK();
    }
  }

  while (seq != 0 && (remaining != 0 || !first_found)) {
    uint32_t boundary = r.historic_boundary.load(std::memory_order_acquire);
    if (seq < boundary) {
      // Continue inside the historic store (Section 4.3).
      HistoricStore* hist = r.historic.load(std::memory_order_acquire);
      if (hist != nullptr) {
        obs_.tail_hops->Increment();
        auto versions = hist->VersionsOf(slot);
        for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
          if (it->seq > seq) continue;
          if (!(it->start_time < spec.as_of)) continue;
          if (IsSupersededRecord(it->schema_encoding)) continue;
          if (!first_found) {
            first_found = true;
            if (observed_seq != nullptr) *observed_seq = it->seq;
            if (IsDeleteRecord(it->schema_encoding)) {
              return Status::NotFound("deleted");
            }
          }
          ColumnMask take = it->mask & remaining;
          if (take != 0) {
            int vi = 0;
            for (BitIter b(it->mask); b; ++b, ++vi) {
              if (take & (1ull << *b)) (*out)[*b] = it->values[vi];
            }
            remaining &= ~take;
          }
          if (remaining == 0 && first_found) break;
        }
      }
      break;  // chain fully consumed (older than historic = base)
    }

    std::atomic<Value>* sref = r.updates.StartTimeSlot(seq);
    Value raw = sref->load(std::memory_order_acquire);
    TxnId dep = 0;
    Visibility vis = CheckVisible(sref, raw, spec, &dep);
    uint32_t back = static_cast<uint32_t>(r.updates.Read(seq, kTailIndirection));
    if (vis == Visibility::kInvisible) {
      seq = back;
      continue;
    }
    if (vis == Visibility::kVisibleSpeculative && spec.txn != nullptr) {
      spec.txn->commit_dependencies().push_back(dep);
    }
    Value enc = r.updates.Read(seq, kTailSchemaEncoding);
    if (IsSupersededRecord(enc)) {
      seq = back;  // intermediate same-txn version: implicitly invalid
      continue;
    }
    obs_.tail_hops->Increment();
    if (!first_found) {
      first_found = true;
      if (observed_seq != nullptr) *observed_seq = seq;
      if (IsDeleteRecord(enc)) return Status::NotFound("deleted");
    }
    ColumnMask take = SchemaColumns(enc) & remaining;
    for (BitIter it(take); it; ++it) {
      (*out)[*it] = r.updates.Read(seq, kTailMetaColumns +
                                            static_cast<uint32_t>(*it));
    }
    remaining &= ~take;

    // Per-column TPS cut-off (latest reads only): once every remaining
    // column's base segment already consolidates the rest of the
    // chain, stop walking (Section 4.2).
    if (latest_mode && remaining != 0 && back != 0) {
      ColumnMask cut = 0;
      for (BitIter it(remaining); it; ++it) {
        BaseSegment* seg = Segment(r, static_cast<uint32_t>(*it));
        if (seg != nullptr && slot < seg->num_slots && seg->tps >= back) {
          (*out)[*it] = BaseDataValue(r, slot, static_cast<ColumnId>(*it));
          cut |= 1ull << *it;
        }
      }
      remaining &= ~cut;
    }
    seq = back;
  }

  if (!first_found && observed_seq != nullptr) *observed_seq = 0;

  // 3. Remaining columns found no visible chain version: their value
  // lives in base pages. For snapshot reads, serving them from a data
  // segment is only sound when the record's merged horizon (the Last
  // Updated Time of a segment generation at or beyond the data
  // segment's lineage) lies below the snapshot — a newer merged state
  // with an unmatched chain walk is exactly the inconsistent read of
  // Lemma 3, so flag a retry (Theorem 2). Every value must come from
  // the segment object the guard inspected or from the write-once
  // table-level tail pages: this routine can be preempted arbitrarily
  // long between its loads (the head/ever_updated/based samples may
  // predate a record's first update while a later segment load sees
  // many merges beyond the snapshot), so re-loading pointers or
  // trusting earlier samples would serve too-new values.
  //
  // A base-resident column whose ever_updated bit is still clear after
  // the value loads below holds its insert-time value in every segment
  // those loads can have seen: an update sets the bit before it
  // commits, hence before any merge can consolidate it. Every snapshot
  // that sees the record agrees on that value, so it needs no guard,
  // unless a merged delete cleared it to kNull.
  ColumnMask fallback = remaining | base_resident;
  BaseSegment* lut_seg =
      r.base[schema_.num_columns() + kBaseLastUpdated].load(
          std::memory_order_acquire);
  const bool lut_covers = lut_seg != nullptr && slot < lut_seg->num_slots;
  ColumnMask newer = 0;   // served from a segment newer than lut_seg
  ColumnMask nulled = 0;  // served kNull
  for (BitIter it(fallback); it; ++it) {
    uint32_t col = static_cast<uint32_t>(*it);
    BaseSegment* seg = Segment(r, col);
    bool seg_covers = seg != nullptr && slot < seg->num_slots;
    Value v = seg_covers ? seg->Get(slot)
                         : r.inserts.Read(slot + 1, kTailMetaColumns + col);
    (*out)[col] = v;
    if (v == kNull) nulled |= 1ull << col;
    if (seg_covers && (!lut_covers || seg->tps > lut_seg->tps)) {
      newer |= 1ull << col;
    }
  }
  if (spec.as_of != kMaxTimestamp && fallback != 0) {
    ColumnMask ever_now = r.ever_updated[slot].load(std::memory_order_acquire);
    ColumnMask guarded = remaining | (base_resident & (ever_now | nulled));
    if ((newer & guarded) != 0) *consistent = false;
    if (guarded != 0 && lut_covers) {
      Value lut = lut_seg->Get(slot);
      if (lut != kNull && (IsTxnId(lut) || lut >= spec.as_of)) {
        *consistent = false;
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

Txn Table::Begin(IsolationLevel iso) {
  return Txn(this, txn_manager_->Begin(iso));
}

Timestamp Table::Now() const { return txn_manager_->SnapshotNow(); }

Status Table::ValidateReads(Transaction* txn, Timestamp commit_time) {
  bool validate_all = txn->isolation() == IsolationLevel::kSerializable;
  bool validate_spec = txn->isolation() != IsolationLevel::kReadCommitted;
  if (!validate_all && !validate_spec) return Status::OK();
  EpochGuard guard(epochs_);
  // Reads of this transaction's own writes trivially validate.
  std::unordered_set<uint64_t> own;
  for (const WriteEntry& w : txn->writeset()) {
    if (w.owner == this && !w.is_insert) {
      own.insert((w.range_id << 24) | w.seq);
    }
  }
  for (const ReadEntry& e : txn->readset()) {
    if (e.owner != this) continue;
    if (!validate_all && !e.speculative) continue;
    if (own.count((e.range_id << 24) | e.observed_seq) != 0) continue;
    Range* r = GetRange(e.range_id);
    if (r == nullptr) continue;
    std::vector<Value> tmp(schema_.num_columns(), kNull);
    uint32_t now_seq = 0;
    // Re-resolve the visible version as of the commit time, ignoring
    // our own pre-commit versions (spec.txn = nullptr: they carry
    // our txn id and would otherwise shadow the committed version).
    ReadSpec spec{commit_time, nullptr, /*speculative=*/false};
    Status s = ResolveRecord(*r, e.base_slot, spec, 0, &tmp, &now_seq);
    // NotFound encodes deletion; the seq comparison covers it.
    if (!s.ok() && !s.IsNotFound()) {
      return Status::Aborted("read validation could not resolve");
    }
    if (now_seq != e.observed_seq &&
        own.count((e.range_id << 24) | now_seq) == 0) {
      return Status::Aborted("read validation failed");
    }
  }
  // Speculative commit dependencies must have committed ([18]).
  for (TxnId dep : txn->commit_dependencies()) {
    TransactionManager::StateView view = txn_manager_->GetState(dep);
    if (view.found && view.state != TxnState::kCommitted) {
      if (view.state == TxnState::kAborted) {
        return Status::Aborted("speculative dependency aborted");
      }
      // Still pre-commit: wait briefly for the outcome.
      while (view.found && view.state == TxnState::kPreCommit) {
        std::this_thread::yield();
        view = txn_manager_->GetState(dep);
      }
      if (view.found && view.state == TxnState::kAborted) {
        return Status::Aborted("speculative dependency aborted");
      }
    }
  }
  return Status::OK();
}

Status Table::WriteCommitRecord(Transaction* txn, Timestamp commit_time) {
  if (log_ == nullptr) return Status::OK();
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = txn->id();
  rec.commit_time = commit_time;
  return log_->SyncTo(log_->Append(rec), config_.sync_commit);
}

void Table::StampWrites(Transaction* txn, Value outcome) {
  // The pin keeps tail pages alive: without it, an insert-merge (or
  // historic compression) that already resolved this transaction's
  // outcome via the manager could reclaim the pages under our feet.
  EpochGuard guard(epochs_);
  for (const WriteEntry& w : txn->writeset()) {
    if (w.owner != this) continue;
    Range* r = GetRange(w.range_id);
    if (r == nullptr) continue;
    if (w.is_insert &&
        w.base_slot < r->based.load(std::memory_order_acquire)) {
      // Insert-merge consumed the record: the outcome is already in
      // the base segment's Start Time column and the table-level tail
      // page may be reclaimed. Only the index rollback remains.
      if (outcome == kAbortedStamp) primary_.Erase(w.inserted_key);
      continue;
    }
    if (!w.is_insert &&
        w.seq < r->historic_boundary.load(std::memory_order_acquire)) {
      continue;  // compressed away; outcome was resolved before that
    }
    TailSegment& seg = w.is_insert ? r->inserts : r->updates;
    std::atomic<Value>* slot = seg.StartTimeSlot(w.seq);
    Value expected = txn->id();
    slot->compare_exchange_strong(expected, outcome,
                                  std::memory_order_acq_rel);
    if (outcome == kAbortedStamp && w.is_insert) {
      primary_.Erase(w.inserted_key);
    }
  }
}

Status Table::CommitTxn(Transaction* txn) {
  return CommitAcrossTables(*txn_manager_, txn, {this});
}

void Table::AbortTxn(Transaction* txn) {
  AbortAcrossTables(*txn_manager_, txn, {this});
}

void Table::WriteAbortRecord(Transaction* txn, bool flush) {
  if (log_ == nullptr) return;
  LogRecord rec;
  rec.type = LogRecordType::kAbort;
  rec.txn_id = txn->id();
  uint64_t lsn = log_->Append(rec);
  if (flush) (void)log_->SyncTo(lsn, config_.sync_commit);
}

// ---------------------------------------------------------------------------
// Insert (Section 3.2)
// ---------------------------------------------------------------------------

Status Table::Insert(Transaction* txn, const std::vector<Value>& row) {
  EpochGuard guard(epochs_);
  return InsertImpl(txn, row, nullptr);
}

Status Table::InsertImpl(Transaction* txn, const std::vector<Value>& row,
                         RedoLog::Batch* log_sink) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  uint64_t rid = next_row_.fetch_add(1, std::memory_order_relaxed);
  Range* r = EnsureRange(RangeOf(rid));
  uint32_t slot = SlotOf(rid);
  uint32_t seq = slot + 1;  // aligned base/tail RIDs

  AtomicMaxU32(r->occupied, slot + 1);

  if (!primary_.Insert(row[0], rid)) {
    // Slot is burned; tombstone it so scans skip it.
    r->inserts.StartTimeSlot(seq)->store(kAbortedStamp,
                                         std::memory_order_release);
    return Status::AlreadyExists("duplicate key");
  }

  for (ColumnId c = 0; c < schema_.num_columns(); ++c) {
    r->inserts.Write(seq, kTailMetaColumns + c, row[c]);
  }
  r->inserts.Write(seq, kTailIndirection, 0);
  r->inserts.Write(seq, kTailSchemaEncoding, 0);
  r->inserts.Write(seq, kTailBaseRid, slot);

  // Publish before logging (checkpoint watermark invariant; see
  // WriteTailVersion). Visibility is still gated by the txn state.
  r->inserts.StartTimeSlot(seq)->store(txn->id(), std::memory_order_release);

  if (log_ != nullptr) {
    LogRecord rec;
    rec.type = LogRecordType::kInsertAppend;
    rec.txn_id = txn->id();
    rec.range_id = r->id;
    rec.seq = seq;
    rec.base_slot = slot;
    rec.backptr = 0;
    rec.schema_encoding = 0;
    rec.start_raw = txn->id();
    rec.mask = schema_.AllColumns();
    rec.values = row;
    if (log_sink != nullptr) {
      log_sink->Add(rec);
    } else {
      log_->Append(rec);
    }
  }

  {
    SpinGuard sg(secondary_latch_);
    for (auto& s : secondaries_) {
      s.index->Add(row[s.col], rid);
    }
  }

  txn->writeset().push_back(
      WriteEntry{r->id, slot, seq, /*is_insert=*/true, row[0], this});
  obs_.inserts->Increment();
  MaybeScheduleMerge(*r);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Update / Delete (Section 3.1)
// ---------------------------------------------------------------------------

Status Table::Update(Transaction* txn, Value key, ColumnMask mask,
                     const std::vector<Value>& row) {
  if (mask == 0 || (mask & 1ull) != 0) {
    return Status::InvalidArgument("cannot update key column / empty mask");
  }
  if ((mask & ~schema_.AllColumns()) != 0) {
    return Status::InvalidArgument("mask has unknown columns");
  }
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  Rid rid = primary_.Get(key);
  if (rid == kInvalidRid) return Status::NotFound("no such key");
  Range* r = GetRange(RangeOf(rid));
  if (r == nullptr) return Status::NotFound("no such range");
  EpochGuard guard(epochs_);
  return WriteTailVersion(txn, *r, SlotOf(rid), mask, row, false, nullptr);
}

Status Table::Delete(Transaction* txn, Value key) {
  Rid rid = primary_.Get(key);
  if (rid == kInvalidRid) return Status::NotFound("no such key");
  Range* r = GetRange(RangeOf(rid));
  if (r == nullptr) return Status::NotFound("no such range");
  static const std::vector<Value> kEmpty;
  EpochGuard guard(epochs_);
  Status s = WriteTailVersion(txn, *r, SlotOf(rid), 0, kEmpty, true, nullptr);
  if (s.ok()) obs_.deletes->Increment();
  return s;
}

Status Table::WriteTailVersion(Transaction* txn, Range& r, uint32_t slot,
                               ColumnMask mask, const std::vector<Value>& row,
                               bool is_delete, RedoLog::Batch* log_sink) {
  auto& ind = r.indirection[slot];

  // Step 1 of write-write conflict detection: CAS the latch bit
  // (Section 5.1.1). A set latch bit means a concurrent writer.
  uint64_t iv = ind.load(std::memory_order_acquire);
  for (;;) {
    if (IndirLatched(iv)) {
      obs_.ww_aborts->Increment();
      return Status::Aborted("write-write conflict (latch)");
    }
    if (ind.compare_exchange_weak(iv, iv | kIndirLatchBit,
                                  std::memory_order_acq_rel)) {
      break;
    }
  }
  uint32_t prev_seq = IndirSeq(iv);

  // Step 2: inspect the start time of the latest version. A chain
  // head below the historic boundary was compressed away: only
  // records with RESOLVED outcomes (stamped commit time or aborted
  // tombstone — the merge prefix scan guarantees it) are ever moved,
  // so such a head cannot belong to an in-flight writer — and the
  // tail page that held it may already be reclaimed, so it must not
  // be read. (Readers that pinned before the compression's retire
  // still read the live page; readers pinned after synchronize with
  // the boundary store through the epoch counter and skip it.)
  uint32_t head_boundary = r.historic_boundary.load(std::memory_order_acquire);
  Value latest_raw;
  if (prev_seq != 0) {
    latest_raw = prev_seq >= head_boundary
                     ? r.updates.Read(prev_seq, kTailStartTime)
                     : Value{1};  // historic ⇒ committed long ago
  } else {
    latest_raw = slot < r.based.load(std::memory_order_acquire)
                     ? BaseMetaValue(r, slot, kBaseStartTime)
                     : r.inserts.Read(slot + 1, kTailStartTime);
  }
  if (IsTxnId(latest_raw) && latest_raw != txn->id()) {
    TransactionManager::StateView view = txn_manager_->GetState(latest_raw);
    if (view.found && (view.state == TxnState::kActive ||
                       view.state == TxnState::kPreCommit)) {
      ind.store(iv, std::memory_order_release);  // release latch
      obs_.ww_aborts->Increment();
      return Status::Aborted("write-write conflict (uncommitted version)");
    }
  }

  // Reject updates of deleted records: find the newest non-aborted
  // version and check its delete flag.
  {
    uint32_t boundary = r.historic_boundary.load(std::memory_order_acquire);
    uint32_t s = prev_seq;
    while (s != 0 && s >= boundary &&
           IsAbortedStamp(r.updates.Read(s, kTailStartTime))) {
      s = static_cast<uint32_t>(r.updates.Read(s, kTailIndirection));
    }
    bool deleted = false;
    if (s != 0 && s >= boundary) {
      deleted = IsDeleteRecord(r.updates.Read(s, kTailSchemaEncoding));
    } else if (s != 0) {
      HistoricStore* hist = r.historic.load(std::memory_order_acquire);
      if (hist != nullptr) {
        auto versions = hist->VersionsOf(slot);
        for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
          if (it->seq > s) continue;
          deleted = IsDeleteRecord(it->schema_encoding);
          break;
        }
      }
    } else if (slot < r.based.load(std::memory_order_acquire)) {
      deleted = IsDeleteRecord(BaseMetaValue(r, slot, kBaseSchemaEnc)) &&
                prev_seq == 0;
    } else {
      deleted = IsAbortedStamp(r.inserts.Read(slot + 1, kTailStartTime));
    }
    if (deleted) {
      ind.store(iv, std::memory_order_release);
      return Status::NotFound("record deleted");
    }
  }

  uint64_t ever = r.ever_updated[slot].load(std::memory_order_relaxed);
  ColumnMask newly = mask & ~ever;
  uint32_t back = prev_seq;

  // Pre-image snapshot on the first update of a column (Section 3.1 /
  // Lemma 2): capture the original values so outdated base pages can
  // be discarded after merges without information loss.
  uint32_t snap_seq = 0;
  if (newly != 0) {
    snap_seq = r.updates.ReserveSeq();
    if (snap_seq > kMaxTailSeq) {
      ind.store(iv, std::memory_order_release);
      return Status::Busy("tail sequence space exhausted for range");
    }
    for (BitIter it(newly); it; ++it) {
      r.updates.Write(snap_seq, kTailMetaColumns + static_cast<uint32_t>(*it),
                      BaseDataValue(r, slot, static_cast<ColumnId>(*it)));
    }
    r.updates.Write(snap_seq, kTailIndirection, back);
    r.updates.Write(snap_seq, kTailBaseRid, slot);
    r.updates.Write(snap_seq, kTailSchemaEncoding, newly | kSnapshotFlag);
    back = snap_seq;
  }

  uint32_t new_seq = r.updates.ReserveSeq();
  if (new_seq > kMaxTailSeq) {
    ind.store(iv, std::memory_order_release);
    return Status::Busy("tail sequence space exhausted for range");
  }

  // Cumulative updates (Section 3.1), reset at the TPS high-water mark
  // (Section 4.2, Table 5).
  ColumnMask carry = 0;
  if (config_.cumulative_updates && prev_seq != 0 && !is_delete &&
      prev_seq > r.merged_tps.load(std::memory_order_acquire) &&
      prev_seq >= r.historic_boundary.load(std::memory_order_acquire)) {
    Value prev_raw = r.updates.Read(prev_seq, kTailStartTime);
    Value prev_enc = r.updates.Read(prev_seq, kTailSchemaEncoding);
    // Carry only from versions with a known-good outcome: a stamped
    // commit time or our own (an unstamped foreign txn id may belong
    // to an aborted transaction whose tombstone is still in flight).
    bool prev_trusted =
        !IsAbortedStamp(prev_raw) &&
        (!IsTxnId(prev_raw) || prev_raw == txn->id());
    if (prev_trusted && !IsSnapshotRecord(prev_enc) &&
        !IsDeleteRecord(prev_enc)) {
      carry = SchemaColumns(prev_enc) & ~mask;
    }
  }

  // Same-transaction stacking: if the new record covers every column
  // of the previous own record, the old one is superseded and readers
  // skip it even post-commit (Section 3.1). Written under the latch;
  // the record is still invisible to others (our txn is uncommitted).
  if (prev_seq != 0 && latest_raw == txn->id()) {
    Value prev_enc2 = r.updates.Read(prev_seq, kTailSchemaEncoding);
    ColumnMask prev_cols = SchemaColumns(prev_enc2);
    if (!IsSnapshotRecord(prev_enc2) &&
        ((mask | carry) & prev_cols) == prev_cols) {
      r.updates.Write(prev_seq, kTailSchemaEncoding,
                      prev_enc2 | kSupersededFlag);
    }
  }

  uint64_t enc = mask | carry | (is_delete ? kDeleteFlag : 0);
  for (BitIter it(carry); it; ++it) {
    r.updates.Write(new_seq, kTailMetaColumns + static_cast<uint32_t>(*it),
                    r.updates.Read(prev_seq, kTailMetaColumns +
                                                 static_cast<uint32_t>(*it)));
  }
  if (!is_delete) {
    for (BitIter it(mask); it; ++it) {
      r.updates.Write(new_seq, kTailMetaColumns + static_cast<uint32_t>(*it),
                      row[*it]);
    }
  }
  r.updates.Write(new_seq, kTailIndirection, back);
  r.updates.Write(new_seq, kTailBaseRid, slot);
  r.updates.Write(new_seq, kTailSchemaEncoding, enc);

  // The pre-image snapshot inherits the old version's start time
  // (Table 2: t1 carries b2's 13:04).
  Value base_start = 0;
  if (snap_seq != 0) {
    base_start = slot < r.based.load(std::memory_order_acquire)
                     ? BaseMetaValue(r, slot, kBaseStartTime)
                     : r.inserts.Read(slot + 1, kTailStartTime);
  }

  // Publish start times BEFORE the log append; the new version carries
  // our txn id until the outcome is stamped. The order is a durability
  // protocol invariant: a checkpoint takes its log watermark and then
  // captures memory, so any record whose log append lies at or below
  // the watermark must already be published — records still unpublished
  // at capture are guaranteed to replay from the retained log tail.
  if (snap_seq != 0) {
    r.updates.StartTimeSlot(snap_seq)->store(base_start,
                                             std::memory_order_release);
    txn->writeset().push_back(
        WriteEntry{r.id, slot, snap_seq, /*is_insert=*/false, 0, this});
  }
  r.updates.StartTimeSlot(new_seq)->store(txn->id(),
                                          std::memory_order_release);

  if (log_ != nullptr) {
    if (snap_seq != 0) {
      LogTailAppend(r, snap_seq, false, base_start, txn->id(), log_sink);
    }
    LogTailAppend(r, new_seq, false, txn->id(), txn->id(), log_sink);
  }

  if (mask != 0) {
    r.ever_updated[slot].fetch_or(mask, std::memory_order_relaxed);
  }

  // Secondary index maintenance: add new postings (old postings are
  // removed lazily, Section 3.1 footnote 3).
  if (!is_delete) {
    SpinGuard sg(secondary_latch_);
    for (auto& s : secondaries_) {
      if (mask & (1ull << s.col)) {
        s.index->Add(row[s.col], r.id * config_.range_size + slot);
      }
    }
  }

  txn->writeset().push_back(
      WriteEntry{r.id, slot, new_seq, /*is_insert=*/false, 0, this});

  // Release the latch and publish the new chain head: the only
  // in-place update in the architecture.
  ind.store(new_seq, std::memory_order_release);

  obs_.updates->Increment();
  MaybeScheduleMerge(r);
  return Status::OK();
}

void Table::LogTailAppend(const Range& r, uint32_t seq, bool insert,
                          Value start_raw, TxnId txn_id,
                          RedoLog::Batch* log_sink) {
  const TailSegment& seg = insert ? r.inserts : r.updates;
  LogRecord rec;
  rec.type =
      insert ? LogRecordType::kInsertAppend : LogRecordType::kTailAppend;
  rec.txn_id = txn_id;
  rec.range_id = r.id;
  rec.seq = seq;
  rec.base_slot = static_cast<uint32_t>(seg.Read(seq, kTailBaseRid));
  rec.backptr = static_cast<uint32_t>(seg.Read(seq, kTailIndirection));
  rec.schema_encoding = seg.Read(seq, kTailSchemaEncoding);
  rec.start_raw = start_raw;
  ColumnMask cols = SchemaColumns(rec.schema_encoding);
  rec.mask = cols;
  for (BitIter it(cols); it; ++it) {
    rec.values.push_back(
        seg.Read(seq, kTailMetaColumns + static_cast<uint32_t>(*it)));
  }
  if (log_sink != nullptr) {
    log_sink->Add(rec);
  } else {
    log_->Append(rec);
  }
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

Status Table::Read(Transaction* txn, Value key, ColumnMask mask,
                   std::vector<Value>* out) {
  // Unknown mask bits are ignored, so ~0ull reads every column — and
  // a hostile mask (e.g. from the network service) cannot index past
  // the column store.
  mask &= schema_.AllColumns();
  out->assign(schema_.num_columns(), kNull);
  Rid rid = primary_.Get(key);
  if (rid == kInvalidRid) return Status::NotFound("no such key");
  Range* r = GetRange(RangeOf(rid));
  if (r == nullptr) return Status::NotFound("no such range");
  EpochGuard guard(epochs_);
  Timestamp as_of = txn->isolation() == IsolationLevel::kReadCommitted
                        ? kMaxTimestamp
                        : txn->begin_time();
  ReadSpec spec{as_of, txn, /*speculative=*/false};
  uint32_t observed = 0;
  Status s = ResolveRecord(*r, SlotOf(rid), spec, mask, out, &observed);
  txn->readset().push_back(
      ReadEntry{r->id, SlotOf(rid), observed, /*speculative=*/false, 0, this});
  obs_.reads->Increment();
  return s;
}

Status Table::SpeculativeRead(Transaction* txn, Value key, ColumnMask mask,
                              std::vector<Value>* out) {
  mask &= schema_.AllColumns();  // unknown bits are ignored (see Read)
  out->assign(schema_.num_columns(), kNull);
  Rid rid = primary_.Get(key);
  if (rid == kInvalidRid) return Status::NotFound("no such key");
  Range* r = GetRange(RangeOf(rid));
  if (r == nullptr) return Status::NotFound("no such range");
  EpochGuard guard(epochs_);
  Timestamp as_of = txn->isolation() == IsolationLevel::kReadCommitted
                        ? kMaxTimestamp
                        : txn->begin_time();
  ReadSpec spec{as_of, txn, /*speculative=*/true};
  size_t deps_before = txn->commit_dependencies().size();
  uint32_t observed = 0;
  Status s = ResolveRecord(*r, SlotOf(rid), spec, mask, out, &observed);
  bool speculated = txn->commit_dependencies().size() > deps_before;
  TxnId dep = speculated ? txn->commit_dependencies().back() : 0;
  txn->readset().push_back(
      ReadEntry{r->id, SlotOf(rid), observed, speculated, dep, this});
  obs_.reads->Increment();
  return s;
}

Status Table::ReadAsOf(Value key, Timestamp as_of, ColumnMask mask,
                       std::vector<Value>* out) {
  mask &= schema_.AllColumns();  // unknown bits are ignored (see Read)
  out->assign(schema_.num_columns(), kNull);
  Rid rid = primary_.Get(key);
  if (rid == kInvalidRid) return Status::NotFound("no such key");
  Range* r = GetRange(RangeOf(rid));
  if (r == nullptr) return Status::NotFound("no such range");
  EpochGuard guard(epochs_);
  ReadSpec spec{as_of, nullptr, /*speculative=*/false};
  return ResolveRecord(*r, SlotOf(rid), spec, mask, out, nullptr);
}

// ---------------------------------------------------------------------------
// Batched point operations
// ---------------------------------------------------------------------------

Status Table::MultiRead(Txn& txn, const std::vector<Value>& keys,
                        ColumnMask mask, std::vector<std::vector<Value>>* rows,
                        std::vector<Status>* statuses) {
  LSTORE_RETURN_IF_ERROR(CheckActive(txn));
  mask &= schema_.AllColumns();  // unknown bits are ignored (see Read)
  Transaction* t = txn.raw();
  rows->assign(keys.size(), {});
  if (statuses != nullptr) statuses->assign(keys.size(), Status::OK());
  // One sharded probe pass for the whole batch.
  std::vector<Rid> rids(keys.size());
  primary_.MultiGet(keys.data(), keys.size(), rids.data());
  EpochGuard guard(epochs_);
  Timestamp as_of = t->isolation() == IsolationLevel::kReadCommitted
                        ? kMaxTimestamp
                        : t->begin_time();
  Status first = Status::OK();
  for (size_t i = 0; i < keys.size(); ++i) {
    Status s;
    if (rids[i] == kInvalidRid) {
      s = Status::NotFound("no such key");
    } else {
      Range* r = GetRange(RangeOf(rids[i]));
      if (r == nullptr) {
        s = Status::NotFound("no such range");
      } else {
        std::vector<Value>& out = (*rows)[i];
        out.assign(schema_.num_columns(), kNull);
        ReadSpec spec{as_of, t, /*speculative=*/false};
        uint32_t observed = 0;
        uint32_t slot = SlotOf(rids[i]);
        s = ResolveRecord(*r, slot, spec, mask, &out, &observed);
        t->readset().push_back(
            ReadEntry{r->id, slot, observed, /*speculative=*/false, 0, this});
        if (!s.ok()) out.clear();
      }
    }
    if (!s.ok() && first.ok()) first = s;
    if (statuses != nullptr) (*statuses)[i] = s;
  }
  obs_.reads->Add(keys.size());
  return first;
}

Status Table::InsertBatch(Txn& txn, const std::vector<std::vector<Value>>& rows) {
  LSTORE_RETURN_IF_ERROR(CheckActive(txn));
  Transaction* t = txn.raw();
  RedoLog::Batch recs;
  RedoLog::Batch* sink = log_ != nullptr ? &recs : nullptr;
  EpochGuard guard(epochs_);
  Status s = Status::OK();
  for (const std::vector<Value>& row : rows) {
    s = InsertImpl(t, row, sink);
    if (!s.ok()) break;
  }
  // ONE frame for the whole batch; the publish-before-log invariant
  // holds because every Start Time was published above.
  if (sink != nullptr && !recs.empty()) log_->AppendBatch(recs);
  return s;
}

Status Table::UpdateBatch(Txn& txn, const std::vector<Value>& keys,
                          ColumnMask mask,
                          const std::vector<std::vector<Value>>& rows) {
  if (keys.size() != rows.size()) {
    return Status::InvalidArgument("keys/rows arity mismatch");
  }
  if (mask == 0 || (mask & 1ull) != 0) {
    return Status::InvalidArgument("cannot update key column / empty mask");
  }
  if ((mask & ~schema_.AllColumns()) != 0) {
    return Status::InvalidArgument("mask has unknown columns");
  }
  for (const std::vector<Value>& row : rows) {
    if (row.size() != schema_.num_columns()) {
      return Status::InvalidArgument("row arity mismatch");
    }
  }
  LSTORE_RETURN_IF_ERROR(CheckActive(txn));
  Transaction* t = txn.raw();
  std::vector<Rid> rids(keys.size());
  primary_.MultiGet(keys.data(), keys.size(), rids.data());
  RedoLog::Batch recs;
  RedoLog::Batch* sink = log_ != nullptr ? &recs : nullptr;
  EpochGuard guard(epochs_);
  Status s = Status::OK();
  for (size_t i = 0; i < keys.size(); ++i) {
    if (rids[i] == kInvalidRid) {
      s = Status::NotFound("no such key");
      break;
    }
    Range* r = GetRange(RangeOf(rids[i]));
    if (r == nullptr) {
      s = Status::NotFound("no such range");
      break;
    }
    s = WriteTailVersion(t, *r, SlotOf(rids[i]), mask, rows[i], false, sink);
    if (!s.ok()) break;
  }
  if (sink != nullptr && !recs.empty()) log_->AppendBatch(recs);
  return s;
}

Status Table::DeleteBatch(Txn& txn, const std::vector<Value>& keys) {
  LSTORE_RETURN_IF_ERROR(CheckActive(txn));
  Transaction* t = txn.raw();
  std::vector<Rid> rids(keys.size());
  primary_.MultiGet(keys.data(), keys.size(), rids.data());
  RedoLog::Batch recs;
  RedoLog::Batch* sink = log_ != nullptr ? &recs : nullptr;
  static const std::vector<Value> kEmpty;
  EpochGuard guard(epochs_);
  Status s = Status::OK();
  for (size_t i = 0; i < keys.size(); ++i) {
    if (rids[i] == kInvalidRid) {
      s = Status::NotFound("no such key");
      break;
    }
    Range* r = GetRange(RangeOf(rids[i]));
    if (r == nullptr) {
      s = Status::NotFound("no such range");
      break;
    }
    s = WriteTailVersion(t, *r, SlotOf(rids[i]), 0, kEmpty, true, sink);
    if (!s.ok()) break;
    obs_.deletes->Increment();
  }
  if (sink != nullptr && !recs.empty()) log_->AppendBatch(recs);
  return s;
}

// ---------------------------------------------------------------------------
// Scans live in core/query.cc (Query is the sole scan surface).
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Secondary indexes
// ---------------------------------------------------------------------------

void Table::CreateSecondaryIndex(ColumnId col) {
  auto index = std::make_unique<SecondaryIndex>();
  // Backfill from current visible data.
  NewQuery()
      .Project((1ull << col) | 1ull)
      .AsOf(kMaxTimestamp)
      .Workers(1)
      .Visit([&](Value key, const std::vector<Value>& row) {
        Rid rid = primary_.Get(key);
        if (rid != kInvalidRid) index->Add(row[col], rid);
      });
  SpinGuard sg(secondary_latch_);
  secondaries_.push_back(SecondaryEntry{col, std::move(index)});
}

// ---------------------------------------------------------------------------
// Maintenance entry points (bodies in merge.cc / historic.cc)
// ---------------------------------------------------------------------------

void Table::MaybeScheduleMerge(Range& r) {
  if (!config_.enable_merge_thread || merge_manager_ == nullptr) return;
  uint32_t unmerged =
      r.updates.LastSeq() - r.merged_tps.load(std::memory_order_acquire);
  uint32_t unbased = r.occupied.load(std::memory_order_acquire) -
                     r.based.load(std::memory_order_acquire);
  bool full = r.occupied.load(std::memory_order_acquire) >=
              config_.range_size;
  if (unmerged >= config_.merge_threshold ||
      unbased >= std::min(config_.range_size, config_.merge_threshold) ||
      (full && unbased > 0)) {
    bool expected = false;
    if (r.queued.compare_exchange_strong(expected, true)) {
      merge_manager_->Enqueue(r.id);
    }
  }
}

bool Table::MergeRangeNow(uint64_t range_id) {
  Range* r = GetRange(range_id);
  if (r == nullptr) return false;
  return RunUpdateMerge(*r, schema_.AllColumns(), true);
}

bool Table::MergeRangeColumns(uint64_t range_id, ColumnMask cols) {
  Range* r = GetRange(range_id);
  if (r == nullptr) return false;
  return RunUpdateMerge(*r, cols, false);
}

bool Table::InsertMergeNow(uint64_t range_id) {
  Range* r = GetRange(range_id);
  if (r == nullptr) return false;
  return RunInsertMerge(*r);
}

size_t Table::CompressHistoricNow(uint64_t range_id) {
  Range* r = GetRange(range_id);
  if (r == nullptr) return 0;
  return RunHistoricCompression(*r);
}

void Table::FlushAll() {
  uint64_t nranges = num_ranges();
  for (uint64_t i = 0; i < nranges; ++i) {
    Range* r = GetRange(i);
    if (r == nullptr) continue;
    RunInsertMerge(*r);
    RunUpdateMerge(*r, schema_.AllColumns(), true);
  }
  epochs_.TryReclaim();
}

void Table::WaitForMergeQueue() {
  if (merge_manager_) merge_manager_->Drain();
}

// ---------------------------------------------------------------------------
// Recovery (Section 5.1.3): see src/checkpoint/recovery.cc for
// RecoverFromLog / RecoverDurable / ReplayAndRebuild.
// ---------------------------------------------------------------------------

}  // namespace lstore
