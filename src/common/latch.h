// Low-level synchronization primitives.
//
// L-Store's lineage-based storage needs very little latching (Section
// 5.1.2): readers never latch base or committed tail pages, and the
// Indirection column is manipulated with CAS. The primitives here are
// used for the few remaining structured-mutation points (page
// directory growth, index shards) and, heavily, by the baseline
// engines which *do* latch pages (that contrast is the point of the
// evaluation).

#ifndef LSTORE_COMMON_LATCH_H_
#define LSTORE_COMMON_LATCH_H_

#include <atomic>
#include <thread>

namespace lstore {

/// Test-and-test-and-set spin latch for short critical sections.
class SpinLatch {
 public:
  void Lock() {
    for (;;) {
      if (!flag_.exchange(true, std::memory_order_acquire)) return;
      while (flag_.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
      }
    }
  }
  void Unlock() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

/// RAII guard for SpinLatch.
class SpinGuard {
 public:
  explicit SpinGuard(SpinLatch& l) : latch_(l) { latch_.Lock(); }
  ~SpinGuard() { latch_.Unlock(); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  SpinLatch& latch_;
};

/// Reader-writer spin latch (shared/exclusive). Writer-preferring to
/// model the page latches of the In-place Update + History baseline,
/// where an update blocks incoming readers (Section 6.1).
class RWSpinLatch {
 public:
  void LockShared() {
    for (;;) {
      uint32_t v = state_.load(std::memory_order_relaxed);
      if ((v & kWriterBit) == 0 &&
          state_.compare_exchange_weak(v, v + 1,
                                       std::memory_order_acquire)) {
        return;
      }
      std::this_thread::yield();
    }
  }
  void UnlockShared() { state_.fetch_sub(1, std::memory_order_release); }

  void LockExclusive() {
    // Announce the writer, then wait for readers to drain.
    for (;;) {
      uint32_t v = state_.load(std::memory_order_relaxed);
      if ((v & kWriterBit) == 0 &&
          state_.compare_exchange_weak(v, v | kWriterBit,
                                       std::memory_order_acquire)) {
        break;
      }
      std::this_thread::yield();
    }
    while ((state_.load(std::memory_order_acquire) & ~kWriterBit) != 0) {
      std::this_thread::yield();
    }
  }
  void UnlockExclusive() {
    state_.fetch_and(~kWriterBit, std::memory_order_release);
  }

 private:
  static constexpr uint32_t kWriterBit = 1u << 31;
  std::atomic<uint32_t> state_{0};
};

}  // namespace lstore

#endif  // LSTORE_COMMON_LATCH_H_
