// Epoch-based, contention-free resource reclamation.
//
// Section 4.1 / Figure 6: after a merge swaps the page directory to
// the consolidated pages, the outdated base pages "are de-allocated
// once the current readers are drained naturally via an epoch-based
// approach ... the outdated base pages must be kept around as long as
// there is an active query that started before the merge process".
//
// Readers pin the current epoch for the duration of a query via an
// EpochGuard. Retiring a resource records the epoch at retire time;
// the resource is freed once every pinned epoch is newer.

#ifndef LSTORE_COMMON_EPOCH_H_
#define LSTORE_COMMON_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>

namespace lstore {

class EpochManager {
 public:
  static constexpr uint64_t kIdle = std::numeric_limits<uint64_t>::max();
  static constexpr int kMaxThreads = 256;

  EpochManager();
  ~EpochManager();

  /// Pin the current epoch for the calling thread (query start).
  /// Returns the slot index to pass to Exit.
  int Enter();

  /// Unpin (query end). May opportunistically reclaim.
  void Exit(int slot);

  /// Register a deleter to run once all queries that were active at
  /// the time of the call have finished.
  void Retire(std::function<void()> deleter);

  /// Attempt to free retired resources whose epoch has been drained.
  /// Returns the number of deleters executed.
  size_t TryReclaim();

  /// Run every pending deleter regardless of reader pins. Only safe
  /// during owner teardown, when no readers can exist; owners must
  /// call this BEFORE freeing structures the deleters reference.
  size_t DrainAllUnsafe();

  /// Number of retired-but-not-yet-freed entries (for tests/stats).
  size_t pending() const;

 private:
  uint64_t MinActiveEpoch() const;

  std::atomic<uint64_t> epoch_{1};
  struct alignas(64) Slot {
    std::atomic<uint64_t> pinned{kIdle};
  };
  Slot slots_[kMaxThreads];
  std::atomic<int> next_slot_hint_{0};

  mutable std::mutex retired_mu_;
  struct Retired {
    uint64_t epoch;
    std::function<void()> deleter;
  };
  std::deque<Retired> retired_;
};

/// RAII epoch pin for the duration of a read/scan.
class EpochGuard {
 public:
  explicit EpochGuard(EpochManager& mgr) : mgr_(&mgr), slot_(mgr.Enter()) {}
  ~EpochGuard() {
    if (mgr_ != nullptr) mgr_->Exit(slot_);
  }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;
  EpochGuard(EpochGuard&& other) noexcept
      : mgr_(other.mgr_), slot_(other.slot_) {
    other.mgr_ = nullptr;
  }

 private:
  EpochManager* mgr_;
  int slot_;
};

}  // namespace lstore

#endif  // LSTORE_COMMON_EPOCH_H_
