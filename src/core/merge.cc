// Merge implementation: Algorithm 1 of Section 4.1.1 plus the
// simplified insert-range merge of Section 3.2 and the background
// merge manager of Figure 5.

#include "core/merge.h"

#include <chrono>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitutil.h"
#include "core/historic.h"
#include "core/table.h"
#include "obs/health.h"
#include "obs/span.h"

namespace lstore {

// ---------------------------------------------------------------------------
// MergeManager
// ---------------------------------------------------------------------------

MergeManager::MergeManager(Table* table) : table_(table) {}

MergeManager::~MergeManager() { Stop(); }

void MergeManager::Start() {
  std::lock_guard<std::mutex> g(mu_);
  if (running_) return;
  running_ = true;
  worker_ = std::thread([this] { Loop(); });
}

void MergeManager::Stop() {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void MergeManager::Enqueue(uint64_t range_id) {
  {
    std::lock_guard<std::mutex> g(mu_);
    queue_.push_back(range_id);
  }
  cv_.notify_one();
}

void MergeManager::Drain() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && !busy_; });
}

void MergeManager::Loop() {
  // Busy-scoped heartbeat "merge:<table>": an idle merge thread parked
  // on cv_.wait is healthy by definition; only time spent inside a
  // claimed task counts against the slow/stall deadlines. Held as a
  // local shared_ptr so exiting the loop unregisters the actor.
  std::shared_ptr<Heartbeat> hb;
  if (table_->config().health != nullptr) {
    hb = table_->config().health->Register("merge:" + table_->name());
  }
  for (;;) {
    uint64_t range_id;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return !running_ || !queue_.empty(); });
      if (!running_ && queue_.empty()) return;
      range_id = queue_.front();
      queue_.pop_front();
      busy_ = true;
    }
    HeartbeatWorkScope work(hb.get());

    // Test hook: park here — after claiming a task (busy, not beating)
    // — so health tests can simulate a stalled merge deterministically.
    if (std::atomic<int>* park = table_->config().merge_test_park;
        park != nullptr && park->load(std::memory_order_acquire) != 0) {
      park->store(2, std::memory_order_release);  // ack: parked
      while (park->load(std::memory_order_acquire) != 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }

    // Section 4.4: updates may use fine-grained ranges while merges
    // operate at coarser granularity — one task consolidates
    // `merge_fanin` consecutive ranges.
    uint32_t fanin = table_->config().merge_fanin;
    if (fanin < 1) fanin = 1;
    uint64_t first = (range_id / fanin) * fanin;
    for (uint64_t id = first; id < first + fanin; ++id) {
      if (hb != nullptr) hb->Beat();  // progress between ranges
      Table::Range* r = table_->GetRange(id);
      if (r == nullptr) continue;
      // Allow re-enqueueing while we work so no trigger is lost.
      r->queued.store(false, std::memory_order_release);
      table_->RunInsertMerge(*r);
      table_->RunUpdateMerge(*r, table_->schema().AllColumns(), true);
    }
    table_->epochs().TryReclaim();

    {
      std::lock_guard<std::mutex> g(mu_);
      busy_ = false;
    }
    idle_cv_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Insert merge (Section 3.2): table-level tail pages -> base segments
// ---------------------------------------------------------------------------

bool Table::RunInsertMerge(Range& r) {
  // No-op early returns cancel the sample so empty calls do not
  // dilute the duration histogram.
  Stage stage(obs_.merge_insert_ns, nullptr);
  SpinGuard g(r.merge_latch);
  // Pin the epoch: the pages of the segments we read from may be
  // evicted concurrently (buffer pool), and the handle contract
  // requires a guard for the retired-payload backstop.
  EpochGuard eguard(epochs_);
  uint32_t occ = r.occupied.load(std::memory_order_acquire);
  uint32_t based = r.based.load(std::memory_order_acquire);
  if (based >= occ) {
    stage.Cancel();
    return false;
  }

  // Committed prefix of the insert range: stop at the first insert
  // whose transaction is still in flight.
  uint32_t new_based = based;
  for (uint32_t slot = based; slot < occ; ++slot) {
    std::atomic<Value>* sref = r.inserts.StartTimeSlot(slot + 1);
    Value raw = sref->load(std::memory_order_acquire);
    if (raw == kNull) break;  // insert mid-flight
    if (IsAbortedStamp(raw)) {
      new_based = slot + 1;
      continue;
    }
    if (IsTxnId(raw)) {
      TransactionManager::StateView view = txn_manager_->GetState(raw);
      if (!view.found) {
        raw = sref->load(std::memory_order_acquire);
        if (IsTxnId(raw) && !IsAbortedStamp(raw)) break;  // stamping races
        if (IsAbortedStamp(raw) || raw == kNull) {
          if (raw == kNull) break;
          new_based = slot + 1;
          continue;
        }
        new_based = slot + 1;
        continue;
      }
      if (view.state == TxnState::kCommitted) {
        Value expected = raw;
        sref->compare_exchange_strong(expected, view.commit,
                                      std::memory_order_acq_rel);
        new_based = slot + 1;
        continue;
      }
      if (view.state == TxnState::kAborted) {
        Value expected = raw;
        sref->compare_exchange_strong(expected, kAbortedStamp,
                                      std::memory_order_acq_rel);
        new_based = slot + 1;
        continue;
      }
      break;  // active / pre-commit
    }
    new_based = slot + 1;  // already a commit time
  }
  if (new_based == based) {
    stage.Cancel();
    return false;
  }

  const uint32_t ncols = schema_.num_columns();
  const uint32_t nphys = ncols + kBaseMetaColumns;
  uint32_t tps = r.merged_tps.load(std::memory_order_acquire);

  std::vector<BaseSegment*> fresh(nphys, nullptr);
  for (uint32_t pc = 0; pc < nphys; ++pc) {
    BaseSegment* old = r.base[pc].load(std::memory_order_acquire);
    PageHandle old_page = old != nullptr ? old->Pin() : PageHandle();
    std::vector<Value> vals(new_based, kNull);
    for (uint32_t slot = 0; slot < new_based; ++slot) {
      if (old != nullptr && slot < old->num_slots) {
        vals[slot] = old_page.Get(slot);
        continue;
      }
      Value raw = r.inserts.Read(slot + 1, kTailStartTime);
      bool aborted = IsAbortedStamp(raw) || raw == kNull;
      if (pc < ncols) {
        vals[slot] =
            aborted ? kNull : r.inserts.Read(slot + 1, kTailMetaColumns + pc);
      } else {
        switch (pc - ncols) {
          case kBaseStartTime:
          case kBaseLastUpdated:
            vals[slot] = aborted ? kNull : raw;
            break;
          case kBaseSchemaEnc:
            vals[slot] = aborted ? kDeleteFlag : 0;
            break;
        }
      }
    }
    auto seg = new BaseSegment();
    seg->tps = tps;
    seg->num_slots = new_based;
    seg->page = MakeSegmentPage(std::move(vals));
    fresh[pc] = seg;
  }

  // Step 4/5: swap the page directory entries and retire the old
  // segments via the epoch manager (Figure 6).
  for (uint32_t pc = 0; pc < nphys; ++pc) {
    BaseSegment* old = r.base[pc].exchange(fresh[pc],
                                           std::memory_order_acq_rel);
    if (old != nullptr) {
      obs_.segments_retired->Increment();
      epochs_.Retire([old] { delete old; });
    }
  }
  r.based.store(new_based, std::memory_order_release);

  // Table-level tail pages of the merged prefix can be discarded once
  // current readers drain (Section 4.1.1, "Merging Table-level
  // Tail-pages").
  Range* rp = &r;
  uint32_t keep_from = new_based + 1;
  epochs_.Retire([rp, keep_from] { rp->inserts.DropRecordsBelow(keep_from); });

  obs_.insert_merges->Increment();
  obs_.insert_rows_merged->Add(new_based - based);
  return true;
}

// ---------------------------------------------------------------------------
// Update merge (Algorithm 1)
// ---------------------------------------------------------------------------

namespace {

void AtomicMaxU32Local(std::atomic<uint32_t>& a, uint32_t v) {
  uint32_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
  }
}

/// Per-slot consolidation state used by the reverse scan (Step 3).
struct SlotMergeState {
  ColumnMask seen = 0;      ///< columns whose newest value was captured
  bool deleted = false;
  bool lut_set = false;
  Value lut = 0;
  ColumnMask applied = 0;   ///< columns applied (for schema encoding)
  std::unordered_map<uint32_t, Value> values;
};

}  // namespace

bool Table::RunUpdateMerge(Range& r, ColumnMask data_cols, bool all_columns) {
  // Early returns (nothing to merge) cancel the sample.
  Stage stage(obs_.merge_update_ns, nullptr);
  SpinGuard g(r.merge_latch);
  // Pin the epoch for the whole consolidation: page handles over the
  // old segments require it (see RunInsertMerge).
  EpochGuard eguard(epochs_);
  uint32_t based = r.based.load(std::memory_order_acquire);
  if (based == 0) {  // nothing insert-merged yet
    stage.Cancel();
    return false;
  }

  const uint32_t ncols = schema_.num_columns();
  BaseSegment* any = r.base[ncols + kBaseSchemaEnc].load(
      std::memory_order_acquire);
  if (any == nullptr) {
    stage.Cancel();
    return false;
  }

  uint32_t old_tps = r.merged_tps.load(std::memory_order_acquire);
  uint32_t last = r.updates.LastSeq();
  if (last <= old_tps) {
    stage.Cancel();
    return false;
  }

  // Step 1: identify the consecutive committed prefix of tail records
  // beyond the current TPS ("always operating on stable data").
  uint32_t new_tps = old_tps;
  for (uint32_t seq = old_tps + 1; seq <= last; ++seq) {
    std::atomic<Value>* sref = r.updates.StartTimeSlot(seq);
    Value raw = sref->load(std::memory_order_acquire);
    if (raw == kNull) break;  // reserved but not yet published
    if (IsAbortedStamp(raw)) {
      new_tps = seq;  // tombstone: processed but not applied
      continue;
    }
    if (IsTxnId(raw)) {
      TransactionManager::StateView view = txn_manager_->GetState(raw);
      if (!view.found) {
        // Outcome stamped concurrently; re-read.
        raw = sref->load(std::memory_order_acquire);
        if (IsTxnId(raw)) break;
        if (IsAbortedStamp(raw)) {
          new_tps = seq;
          continue;
        }
      } else if (view.state == TxnState::kCommitted) {
        Value expected = raw;
        sref->compare_exchange_strong(expected, view.commit,
                                      std::memory_order_acq_rel);
        raw = view.commit;
      } else if (view.state == TxnState::kAborted) {
        Value expected = raw;
        sref->compare_exchange_strong(expected, kAbortedStamp,
                                      std::memory_order_acq_rel);
        new_tps = seq;
        continue;
      } else {
        break;  // active / pre-commit: prefix ends
      }
    }
    // Strengthened stability (Section 4.1.1): records whose base slot
    // is not insert-merged yet end the prefix.
    uint32_t slot = static_cast<uint32_t>(r.updates.Read(seq, kTailBaseRid));
    if (slot >= based) break;
    new_tps = seq;
  }
  if (new_tps == old_tps) {
    stage.Cancel();
    return false;
  }

  // Step 3: reverse scan with a seen-set — only the newest version of
  // each (record, column) is consolidated; earlier ones are skipped.
  std::unordered_map<uint32_t, SlotMergeState> latest;
  ColumnMask touched = 0;
  for (uint32_t seq = new_tps; seq > old_tps; --seq) {
    Value raw = r.updates.Read(seq, kTailStartTime);
    if (IsAbortedStamp(raw) || raw == kNull) continue;
    uint32_t slot = static_cast<uint32_t>(r.updates.Read(seq, kTailBaseRid));
    Value enc = r.updates.Read(seq, kTailSchemaEncoding);
    if (IsSupersededRecord(enc)) continue;  // implicitly invalidated
    SlotMergeState& st = latest[slot];
    if (st.deleted) continue;  // a newer delete shadows everything
    if (IsDeleteRecord(enc) && st.seen == 0) {
      st.deleted = true;
      st.lut = raw;
      st.lut_set = true;
      continue;
    }
    ColumnMask cols = SchemaColumns(enc) & data_cols;
    ColumnMask take = cols & ~st.seen;
    if (take != 0) {
      for (BitIter it(take); it; ++it) {
        st.values[static_cast<uint32_t>(*it)] =
            r.updates.Read(seq, kTailMetaColumns + static_cast<uint32_t>(*it));
      }
      st.seen |= take;
      st.applied |= take;
      touched |= take;
      if (!st.lut_set) {
        st.lut = raw;  // newest contributing record's start time
        st.lut_set = true;
      }
    }
  }

  // Step 3 (cont.): consolidate into fresh segments. Untouched columns
  // share the old read-optimized data and only advance their lineage.
  const uint32_t nphys = ncols + kBaseMetaColumns;
  std::vector<BaseSegment*> fresh(nphys, nullptr);
  for (uint32_t pc = 0; pc < nphys; ++pc) {
    BaseSegment* old = r.base[pc].load(std::memory_order_acquire);
    auto seg = new BaseSegment();
    seg->num_slots = old->num_slots;
    bool is_data = pc < ncols;
    bool rebuilt = false;
    if (is_data && (touched & (1ull << pc)) != 0) {
      PageHandle old_page = old->Pin();
      std::vector<Value> vals(old->num_slots);
      for (uint32_t s = 0; s < old->num_slots; ++s) {
        vals[s] = old_page.Get(s);
      }
      for (auto& [slot, st] : latest) {
        auto it = st.values.find(pc);
        if (it != st.values.end() && slot < old->num_slots) {
          vals[slot] = it->second;
        }
        if (st.deleted && slot < old->num_slots) vals[slot] = kNull;
      }
      seg->page = MakeSegmentPage(std::move(vals));
      rebuilt = true;
    } else if (!is_data && pc - ncols == kBaseLastUpdated) {
      PageHandle old_page = old->Pin();
      std::vector<Value> vals(old->num_slots);
      for (uint32_t s = 0; s < old->num_slots; ++s) {
        vals[s] = old_page.Get(s);
      }
      for (auto& [slot, st] : latest) {
        if (st.lut_set && slot < old->num_slots) {
          Value prev = vals[slot];
          if (prev == kNull || IsTxnId(prev) || st.lut > prev) {
            vals[slot] = st.lut;
          }
        }
      }
      seg->page = MakeSegmentPage(std::move(vals));
      rebuilt = true;
    } else if (!is_data && pc - ncols == kBaseSchemaEnc) {
      PageHandle old_page = old->Pin();
      std::vector<Value> vals(old->num_slots);
      for (uint32_t s = 0; s < old->num_slots; ++s) {
        vals[s] = old_page.Get(s);
      }
      for (auto& [slot, st] : latest) {
        if (slot >= old->num_slots) continue;
        vals[slot] |= st.applied;
        if (st.deleted) vals[slot] |= kDeleteFlag;
      }
      seg->page = MakeSegmentPage(std::move(vals));
      rebuilt = true;
    }
    if (!rebuilt) {
      // Start Time column is preserved verbatim (Section 4.1.1: "the
      // old Start Time column remains intact"); untouched data columns
      // share their pages — including residency and the swap location,
      // so a shared page is not re-written to the store.
      seg->page = old->page;
    }
    // Lineage: per-column merge only advances the merged columns'
    // TPS — the mixed-TPS state is what Lemma 3 detects and repairs.
    seg->tps = (all_columns || rebuilt || !is_data) ? new_tps : old->tps;
    fresh[pc] = seg;
  }

  // Step 4: update the page directory — the only foreground action.
  for (uint32_t pc = 0; pc < nphys; ++pc) {
    BaseSegment* old = r.base[pc].exchange(fresh[pc],
                                           std::memory_order_acq_rel);
    if (old != nullptr) {
      obs_.segments_retired->Increment();
      // Step 5: epoch-based de-allocation (Figure 6).
      epochs_.Retire([old] { delete old; });
    }
  }
  if (all_columns) {
    r.merged_tps.store(new_tps, std::memory_order_release);
  } else {
    // Partial merges do not advance the range-level cumulation
    // watermark beyond the minimum column TPS.
    uint32_t min_tps = new_tps;
    for (ColumnId c = 0; c < ncols; ++c) {
      BaseSegment* seg = r.base[c].load(std::memory_order_acquire);
      if (seg != nullptr && seg->tps < min_tps) min_tps = seg->tps;
    }
    AtomicMaxU32Local(r.merged_tps, min_tps);
  }

  obs_.update_merges->Increment();
  obs_.merge_rows->Add(new_tps - old_tps);
  return true;
}

}  // namespace lstore
