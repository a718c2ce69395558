// Append-only tail storage for one update range.
//
// Section 2.1/3.1: "for every range of records, and for each updated
// column within the range, we maintain a set of append-only pages to
// store the latest updates". Key properties implemented here:
//  * strictly append-only, write-once (values survive aborts),
//  * lazy tail-page allocation: a column's pages exist only once the
//    column is updated within the range; absent pages read as the
//    special null value ∅,
//  * tail records span aligned columns: record `seq` occupies slot
//    `seq % page_slots` of page `seq / page_slots` in every column,
//  * meta-data columns mirror base pages (Section 2.2): Indirection
//    (backpointer), Start Time, Schema Encoding, Base RID.
//
// The same structure backs the *table-level tail pages* of insert
// ranges (Section 3.2), where all columns are materialized.

#ifndef LSTORE_STORAGE_TAIL_SEGMENT_H_
#define LSTORE_STORAGE_TAIL_SEGMENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/latch.h"
#include "common/types.h"
#include "storage/page.h"

namespace lstore {

/// Physical positions of the tail meta-data columns; data column `c`
/// lives at physical index kTailMetaColumns + c.
enum TailMetaColumn : uint32_t {
  kTailIndirection = 0,  ///< backpointer: previous version's seq (0 = base)
  kTailStartTime = 1,    ///< commit time, txn id, or aborted stamp
  kTailSchemaEncoding = 2,
  kTailBaseRid = 3,      ///< slot of the base record within the range
};
inline constexpr uint32_t kTailMetaColumns = 4;

/// Lock-free-readable, lazily grown list of pages for one column.
/// Growth uses copy-on-write of the pointer directory so readers
/// never take a latch (Section 5.1.2).
class LazyPageList {
 public:
  LazyPageList() = default;
  ~LazyPageList();
  LazyPageList(const LazyPageList&) = delete;
  LazyPageList& operator=(const LazyPageList&) = delete;

  /// Page at index, or nullptr if never allocated (⇒ all slots ∅).
  Page* GetPage(uint32_t idx) const;

  /// Allocate (if needed) and return the page at index.
  Page* EnsurePage(uint32_t idx, uint32_t slots, Value fill = kNull);

  /// Number of allocated pages (for stats).
  size_t allocated_pages() const;

  /// Drop pages with index < first_kept, freeing their memory. Used
  /// after historic compression (Section 4.3). Caller must guarantee
  /// no readers can reach them (epoch-protected).
  void DropPagesBelow(uint32_t first_kept);

 private:
  struct Dir {
    explicit Dir(uint32_t cap) : capacity(cap), pages(new std::atomic<Page*>[cap]) {
      for (uint32_t i = 0; i < cap; ++i) {
        pages[i].store(nullptr, std::memory_order_relaxed);
      }
    }
    uint32_t capacity;
    std::unique_ptr<std::atomic<Page*>[]> pages;
  };

  std::atomic<Dir*> dir_{nullptr};
  mutable SpinLatch grow_latch_;
  std::vector<std::unique_ptr<Dir>> graveyard_;  // retired directories
  std::vector<std::unique_ptr<Dir>> live_keeper_;
};

class TailSegment {
 public:
  TailSegment(uint32_t num_data_columns, uint32_t page_slots);

  /// Reserve the next tail sequence number (first is 1).
  uint32_t ReserveSeq() {
    return next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Highest reserved seq so far.
  uint32_t LastSeq() const {
    return next_seq_.load(std::memory_order_acquire);
  }

  /// Fast-forward the sequence counter (log recovery replays records
  /// at their original sequence numbers).
  void AdvanceSeq(uint32_t seq) {
    uint32_t cur = next_seq_.load(std::memory_order_relaxed);
    while (cur < seq &&
           !next_seq_.compare_exchange_weak(cur, seq,
                                            std::memory_order_relaxed)) {
    }
  }

  /// Write `v` into physical column `col` of record `seq`, allocating
  /// the page lazily on first touch of the column.
  void Write(uint32_t seq, uint32_t col, Value v);

  /// Read physical column `col` of record `seq`; ∅ if the column was
  /// never materialized for that page.
  Value Read(uint32_t seq, uint32_t col) const;

  /// Atomic Start Time slot for lazy commit-time stamping (Section
  /// 5.1.1: "Swapping the transaction ID with commit time is done
  /// lazily by future readers").
  std::atomic<Value>* StartTimeSlot(uint32_t seq);

  uint32_t num_data_columns() const { return num_data_columns_; }
  uint32_t page_slots() const { return page_slots_; }

  size_t allocated_pages() const;

  /// Free tail pages that only contain records with seq < first_kept
  /// (post historic-compression reclamation).
  void DropRecordsBelow(uint32_t first_kept_seq);

 private:
  uint32_t PageIndex(uint32_t seq) const { return (seq - 1) / page_slots_; }
  uint32_t SlotIndex(uint32_t seq) const { return (seq - 1) % page_slots_; }

  uint32_t num_data_columns_;
  uint32_t page_slots_;
  std::atomic<uint32_t> next_seq_{0};
  std::vector<LazyPageList> columns_;  // size = physical columns
};

}  // namespace lstore

#endif  // LSTORE_STORAGE_TAIL_SEGMENT_H_
