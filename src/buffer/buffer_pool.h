// Buffer-managed base storage: a database-wide pool of read-optimized
// base-segment payloads with demand paging and clock eviction, so a
// table's base footprint can exceed RAM.
//
// The unit of residency is a SegmentPage: the compressed column of one
// base segment of one update range. Base segments are immutable
// between merges, which makes them ideal paging candidates — a page
// written through to its table's SegmentStore is always "clean", so
// eviction is a pointer swap plus an epoch-deferred free, never a
// write-back.
//
// Concurrency model (two rings of defense):
//  * PageHandle pins (pin count) keep a frame resident while a scan or
//    point read is actively using it — the eviction policy skips
//    pinned frames, so a pinned cursor never has its payload stolen
//    mid-partition.
//  * The owning table's epoch manager is the memory-safety backstop:
//    eviction retires the payload through it, exactly like a merge
//    retires outdated base pages (Figure 6), so even a reader that
//    loses the pin/evict race (pin lands after the evictor's check)
//    reads a retired-but-not-freed copy of identical immutable bytes.
//    Every PageHandle must therefore be held under an EpochGuard of
//    the owning table — the same guard every base-data reader already
//    holds.
//
// Budget: a byte budget shared by every table of the database
// (DurabilityOptions::buffer_pool_bytes; 0 = no pool, fully resident
// as before). Going over budget triggers a bounded clock/second-chance
// sweep that evicts cold clean frames; pinned and never-written-
// through frames are never victims, so the pool may transiently
// exceed the budget when the pinned working set alone is larger.

#ifndef LSTORE_BUFFER_BUFFER_POOL_H_
#define LSTORE_BUFFER_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace lstore {

class BufferPool;
class CompressedColumn;
class EpochManager;
class EventLog;
class Histogram;
class MetricsRegistry;
class SegmentStore;

/// On-disk layout of a swapped segment payload. The format travels in
/// the page metadata and the checkpoint's segment-ref frames, never
/// sniffed from bytes.
///  * kVarint: [count varint][varint values...] — compact, but a miss
///    must inflate the whole segment.
///  * kFixed: [count varint][width byte][count * width bytes LE]. The
///    unchecked fixed layout of older checkpoints: still hydrated,
///    never read slot by slot (its slot bytes carry no checksum).
///  * kFixedBlocks: [count varint][width byte], then blocks of
///    kFixedBlockSlots values, each block's `slots * width` value bytes
///    followed by the FNV-1a32 of those bytes. Every slot has a fixed
///    offset and a small checksummed block, so a cold POINT read
///    preads and verifies one block — O(1) instead of O(range).
/// The width is the bytes the segment's largest value needs (1–8);
/// the writer picks the fixed layout when `count * width` is no larger
/// than the varint bytes. Every payload also carries a whole-payload
/// checksum (page metadata and checkpoint refs) that hydration checks.
enum class SwapFormat : uint8_t { kVarint = 0, kFixed = 1, kFixedBlocks = 2 };

/// Whether a (format, width) pair describes a decodable payload:
/// widths 1–8 for the fixed layouts, 0 for varint.
inline bool ValidSwapLayout(uint64_t format, uint64_t width) {
  switch (format) {
    case static_cast<uint64_t>(SwapFormat::kVarint):
      return width == 0;
    case static_cast<uint64_t>(SwapFormat::kFixed):
    case static_cast<uint64_t>(SwapFormat::kFixedBlocks):
      return width >= 1 && width <= 8;
  }
  return false;
}

/// Slots per checksummed block of a kFixedBlocks payload.
inline constexpr uint32_t kFixedBlockSlots = 64;

/// Encode `vals` for the segment store in the smaller of kVarint and
/// kFixedBlocks (ties go to the fixed layout); the chosen layout is
/// reported through `format` and `width` (0 for varint).
std::string EncodeSwapPayload(const std::vector<Value>& vals,
                              SwapFormat* format, uint32_t* width);

/// Aggregate pool counters (benchmarks, tests, Database::buffer_stats).
struct BufferPoolStats {
  uint64_t hits = 0;        ///< pin found the payload resident
  uint64_t misses = 0;      ///< pin demand-loaded from the segment store
  uint64_t evictions = 0;   ///< payloads dropped by the clock sweep
  /// Point reads served by decoding ONE slot of a cold fixed-width
  /// segment (no inflation, no residency change).
  uint64_t cold_point_reads = 0;
  uint64_t bytes_resident = 0;
  uint64_t budget_bytes = 0;  ///< 0 = unlimited
  uint64_t pages = 0;         ///< registered pages (resident or cold)
};

/// One buffer-managed payload. Shared across merge generations: an
/// update merge that leaves a column untouched shares the old page in
/// the fresh segment, so residency (and the swap location) carries
/// over for free. Destroyed when the last owning segment is reclaimed.
class SegmentPage {
 public:
  /// `epochs` is the owning table's reclamation domain — evicted
  /// payloads are retired through it.
  SegmentPage(EpochManager* epochs, uint32_t num_slots, bool compress);
  ~SegmentPage();

  SegmentPage(const SegmentPage&) = delete;
  SegmentPage& operator=(const SegmentPage&) = delete;

  /// Publish the freshly built payload (before the page becomes
  /// reachable through a range's segment directory).
  void SetResident(const CompressedColumn* col);

  /// Record the write-through location; from now on the page is
  /// evictable and can demand-load. `width` is the byte width per
  /// value for the fixed layouts (0 for kVarint).
  void SetSwap(SegmentStore* store, uint64_t offset, uint64_t length,
               uint32_t checksum, SwapFormat format = SwapFormat::kVarint,
               uint32_t width = 0);

  bool evictable() const { return store_ != nullptr; }
  bool resident() const {
    return payload_.load(std::memory_order_acquire) != nullptr;
  }
  SegmentStore* store() const { return store_; }
  uint64_t swap_offset() const { return swap_offset_; }
  uint64_t swap_length() const { return swap_length_; }
  uint32_t swap_checksum() const { return swap_checksum_; }
  SwapFormat swap_format() const { return swap_format_; }
  uint32_t swap_value_width() const { return swap_value_width_; }
  uint32_t num_slots() const { return num_slots_; }

 private:
  friend class BufferPool;
  friend class PageHandle;

  /// Resolve the payload for a pinned reader (hit fast path inline in
  /// BufferPool::Acquire; cold pages load from the store).
  std::atomic<const CompressedColumn*> payload_{nullptr};
  std::atomic<uint32_t> pins_{0};
  std::atomic<bool> referenced_{true};  ///< clock second-chance bit
  /// Cold slot reads since the page last went cold (promotion gate).
  std::atomic<uint32_t> cold_reads_{0};
  std::atomic<uint64_t> resident_bytes_{0};  ///< charged while resident
  uint32_t num_slots_;
  /// The CompressedColumn::Encoding the first Build chose, or
  /// kEncodingUndecided until then: a reload builds that encoding
  /// directly instead of re-deciding it (Build is deterministic).
  /// Pages of tables that do not compress start at kPlain.
  static constexpr uint8_t kEncodingUndecided = 0xff;
  std::atomic<uint8_t> encoding_;
  EpochManager* epochs_;
  SegmentStore* store_ = nullptr;
  uint64_t swap_offset_ = 0;
  uint64_t swap_length_ = 0;
  uint32_t swap_checksum_ = 0;
  SwapFormat swap_format_ = SwapFormat::kVarint;
  uint32_t swap_value_width_ = 0;  ///< bytes per value (fixed layouts)

  /// Set at Register, cleared by Unregister/DetachDomain.
  std::atomic<BufferPool*> pool_{nullptr};
  // Clock ring links, guarded by the pool mutex.
  SegmentPage* clock_prev_ = nullptr;
  SegmentPage* clock_next_ = nullptr;
};

class BufferPool {
 public:
  /// `budget_bytes` = 0 means unlimited (track stats, never evict).
  explicit BufferPool(uint64_t budget_bytes);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Add a page to the clock ring (charging its resident bytes) and
  /// evict down to budget. Called once per page, before the owning
  /// segment is published to readers.
  void Register(SegmentPage* page);

  /// Remove a page (from ~SegmentPage). Idempotent.
  void Unregister(SegmentPage* page);

  /// Detach every page of one table's epoch domain from the ring
  /// WITHOUT freeing payloads — called at the start of Table teardown
  /// so no concurrent eviction can retire into an epoch manager that
  /// is being destroyed.
  void DetachDomain(EpochManager* epochs);

  /// Resolve the payload of a page the caller has already pinned;
  /// demand-loads on miss. Never returns null: a load failure of
  /// bytes this process wrote is a storage-integrity fault and aborts.
  const CompressedColumn* Acquire(SegmentPage* page);

  /// Pool-less demand load (a lazily restored segment on a database
  /// reopened WITHOUT a pool): read, verify the whole-payload
  /// checksum, decode, build, publish — no budget accounting, so the
  /// page stays resident once hydrated. `*won` reports whether this
  /// call published the payload. A payload that fails verification or
  /// decoding aborts the process (fail-stop).
  static const CompressedColumn* LoadColdPayload(SegmentPage* page,
                                                 bool* won);

  /// O(1) single-value demand read: serve a point read of one slot of
  /// a COLD kFixedBlocks segment by preading the slot's block and its
  /// checksum into a stack buffer and verifying them — no inflation,
  /// no allocation, no residency or clock-state change. Returns false
  /// (caller pins as usual) when the page is resident, storeless, not
  /// in the block layout, has an invalid width, or its block fails
  /// verification — the pin path then checks the whole payload and
  /// fails stop, so corrupt bytes are never served. Also declines once
  /// the page has absorbed kColdReadPromotion slot reads since it last
  /// went cold: a page that hot deserves residency, so declining hands
  /// it to the pin path, which hydrates it and serves every later read
  /// from memory (one pread per read forever would be the wrong
  /// steady state).
  static bool ReadColdSlot(SegmentPage* page, uint32_t slot, Value* out);

  /// Cold slot reads a page absorbs before ReadColdSlot declines and
  /// the next point read hydrates it (reset at each eviction).
  static constexpr uint32_t kColdReadPromotion = 8;

  /// Evict cold clean frames until bytes_resident <= budget (bounded
  /// sweep; public so tests can force the invariant point).
  void EnforceBudget();

  BufferPoolStats stats() const;
  uint64_t budget_bytes() const { return budget_; }

  /// Wire the engine event log (nullable): EnforceBudget emits
  /// `budget_pressure` (warn) when a sweep cannot get back under
  /// budget — the pinned working set alone exceeds it — and
  /// `budget_relieved` (info) once a later sweep succeeds.
  void set_event_log(EventLog* events) {
    events_.store(events, std::memory_order_release);
  }

  /// Wire registry metrics (nullable): every miss records its pread,
  /// verify, decode and build time into `lstore_buffer_load_ns`.
  void set_metrics(MetricsRegistry* registry);

  /// Value of the LSTORE_BUFFER_POOL_BYTES test knob (0 = unset): CI
  /// uses it to force every suite through the miss/evict path.
  static uint64_t EnvBudgetBytes();

 private:
  const CompressedColumn* Load(SegmentPage* page);
  /// Remove a page from the clock ring; caller holds mu_.
  void UnlinkLocked(SegmentPage* page);
  void CountHit();
  /// Record the post-sweep pressure state, emitting an event on each
  /// transition (see set_event_log).
  void NoteBudgetPressure(bool over);

  const uint64_t budget_;
  std::atomic<EventLog*> events_{nullptr};
  std::atomic<Histogram*> load_ns_{nullptr};
  std::atomic<bool> over_budget_{false};
  /// Hit counting is the only pool-global write on the read hot path;
  /// shard it so point reads across threads do not all RMW one cache
  /// line. stats() sums the shards.
  static constexpr size_t kHitShards = 16;
  struct alignas(64) HitShard {
    std::atomic<uint64_t> n{0};
  };
  HitShard hits_[kHitShards];
  std::atomic<uint64_t> cold_point_reads_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> bytes_resident_{0};
  std::atomic<uint64_t> pages_{0};

  /// Held across one whole eviction pass (victim collection, retire,
  /// reclaim). DetachDomain takes it too, so a table being destroyed
  /// waits out any in-flight pass that may have collected its pages —
  /// no retire can land in an EpochManager after its table detached.
  /// Order: evict_mu_ before mu_.
  std::mutex evict_mu_;
  std::mutex mu_;  ///< clock ring structure + hand
  SegmentPage* clock_hand_ = nullptr;
  uint64_t ring_size_ = 0;
};

}  // namespace lstore

#endif  // LSTORE_BUFFER_BUFFER_POOL_H_
