// Append-only array of fixed-stride records shared by the two
// baselines (the DBM delta stores and the IUH history table).
//
// Readers resolve a record index without any latch while writers
// append. Records live in fixed-size chunks that never move; the chunk
// directory is replaced (not reallocated in place) when it fills, and
// every directory ever published is kept until Clear(), so a reader
// holding an older directory still finds each chunk it can know of.

#ifndef LSTORE_BASELINES_CHUNKED_RECORDS_H_
#define LSTORE_BASELINES_CHUNKED_RECORDS_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "common/latch.h"
#include "common/types.h"

namespace lstore {

class ChunkedRecords {
 public:
  ChunkedRecords(uint32_t stride, uint32_t chunk_records)
      : stride_(stride), chunk_records_(chunk_records) {}

  /// Field `field` of record `idx` (1-based, from Reserve()).
  std::atomic<Value>* Slot(uint64_t idx, uint32_t field) const {
    uint64_t i = idx - 1;
    const Directory* d = dir_.load(std::memory_order_acquire);
    return &d->chunks[i / chunk_records_]
                     [(i % chunk_records_) * stride_ + field];
  }

  /// Reserve the next record (fields start as kNull); returns its index.
  uint64_t Reserve() {
    uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed) + 1;
    size_t need = (idx - 1) / chunk_records_ + 1;
    if (num_chunks_.load(std::memory_order_acquire) < need) Grow(need);
    return idx;
  }

  /// Records reserved so far.
  uint64_t size() const { return next_.load(std::memory_order_acquire); }

  /// Drop every record. The caller guarantees no concurrent access.
  void Clear() {
    owned_.clear();
    dirs_.clear();
    dir_.store(nullptr, std::memory_order_release);
    num_chunks_.store(0, std::memory_order_release);
    next_.store(0, std::memory_order_release);
  }

 private:
  struct Directory {
    explicit Directory(size_t cap)
        : cap(cap), chunks(std::make_unique<std::atomic<Value>*[]>(cap)) {}
    size_t cap;
    std::unique_ptr<std::atomic<Value>*[]> chunks;
  };

  void Grow(size_t need) {
    SpinGuard g(grow_latch_);
    while (owned_.size() < need) {
      size_t n = static_cast<size_t>(chunk_records_) * stride_;
      auto chunk = std::make_unique<std::atomic<Value>[]>(n);
      for (size_t i = 0; i < n; ++i) {
        chunk[i].store(kNull, std::memory_order_relaxed);
      }
      if (dirs_.empty() || dirs_.back()->cap == owned_.size()) {
        auto d = std::make_unique<Directory>(
            std::max<size_t>(8, 2 * owned_.size()));
        for (size_t i = 0; i < owned_.size(); ++i) {
          d->chunks[i] = owned_[i].get();
        }
        dirs_.push_back(std::move(d));
      }
      dirs_.back()->chunks[owned_.size()] = chunk.get();
      owned_.push_back(std::move(chunk));
    }
    dir_.store(dirs_.back().get(), std::memory_order_release);
    num_chunks_.store(owned_.size(), std::memory_order_release);
  }

  const uint32_t stride_;
  const uint32_t chunk_records_;
  std::atomic<uint64_t> next_{0};
  std::atomic<size_t> num_chunks_{0};
  std::atomic<const Directory*> dir_{nullptr};
  SpinLatch grow_latch_;
  std::vector<std::unique_ptr<std::atomic<Value>[]>> owned_;  ///< grow_latch_
  std::vector<std::unique_ptr<Directory>> dirs_;              ///< grow_latch_
};

}  // namespace lstore

#endif  // LSTORE_BASELINES_CHUNKED_RECORDS_H_
