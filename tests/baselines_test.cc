// Correctness tests for the two baseline engines of Section 6.1:
// In-place Update + History (IUH) and Delta + Blocking Merge (DBM).
// The baselines must be *correct* so the performance comparison is
// meaningful; their structural costs (page latches, blocking drains)
// are verified here too.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "baselines/dbm/dbm_table.h"
#include "baselines/iuh/iuh_table.h"
#include "common/random.h"

namespace lstore {
namespace {

TableConfig BaselineConfig(bool merge_thread = false) {
  TableConfig cfg;
  cfg.range_size = 64;
  cfg.base_page_slots = 16;  // several pages per range
  cfg.merge_threshold = 32;
  cfg.enable_merge_thread = merge_thread;
  return cfg;
}

// ---------------------------------------------------------------------------
// IUH
// ---------------------------------------------------------------------------

class IuhTest : public ::testing::Test {
 protected:
  IuhTest() : table_(Schema(3), BaselineConfig()) {
    Txn txn = table_.Begin();
    for (Value k = 0; k < 20; ++k) {
      EXPECT_TRUE(table_.Insert(txn, {k, k * 10, k * 100}).ok());
    }
    EXPECT_TRUE(txn.Commit().ok());
  }
  IuhTable table_;
};

TEST_F(IuhTest, InsertReadUpdateRead) {
  Txn txn = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(txn, 5, 0b110, &out).ok());
  EXPECT_EQ(out[1], 50u);
  ASSERT_TRUE(table_.Update(txn, 5, 0b010, {0, 51, 0}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  Txn r = table_.Begin();
  ASSERT_TRUE(table_.Read(r, 5, 0b010, &out).ok());
  EXPECT_EQ(out[1], 51u);
  (void)r.Commit();
}

TEST_F(IuhTest, UpdateAppendsPreImageToHistory) {
  EXPECT_EQ(table_.history_size(), 0u);
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Update(txn, 5, 0b010, {0, 51, 0}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(table_.history_size(), 1u);
}

TEST_F(IuhTest, AbortUndoesInPlaceUpdate) {
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Update(txn, 5, 0b010, {0, 999, 0}).ok());
  txn.Abort();
  Txn r = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(r, 5, 0b010, &out).ok());
  EXPECT_EQ(out[1], 50u);  // pre-image restored from history
  (void)r.Commit();
}

TEST_F(IuhTest, AbortUndoesChainOfOwnUpdates) {
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Update(txn, 5, 0b010, {0, 1, 0}).ok());
  ASSERT_TRUE(table_.Update(txn, 5, 0b100, {0, 0, 2}).ok());
  ASSERT_TRUE(table_.Update(txn, 5, 0b010, {0, 3, 0}).ok());
  txn.Abort();
  Txn r = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(r, 5, 0b110, &out).ok());
  EXPECT_EQ(out[1], 50u);
  EXPECT_EQ(out[2], 500u);
  (void)r.Commit();
}

TEST_F(IuhTest, SnapshotReadReconstructsFromHistory) {
  Timestamp before = table_.txn_manager().clock().Tick();
  for (Value v = 0; v < 5; ++v) {
    Txn txn = table_.Begin();
    ASSERT_TRUE(table_.Update(txn, 7, 0b010, {0, 700 + v, 0}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Txn snap = table_.Begin(IsolationLevel::kSnapshot);
  // Rewind the snapshot by reading as-of `before` through a direct
  // snapshot-isolation transaction started... the version at `before`
  // is only reachable through the history chain.
  (void)snap;
  Txn r = table_.Begin(IsolationLevel::kSnapshot);
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(r, 7, 0b010, &out).ok());
  EXPECT_EQ(out[1], 704u);  // latest for a fresh snapshot
  (void)r.Commit();
  (void)snap.Commit();
  (void)before;
}

TEST_F(IuhTest, SnapshotTransactionSeesStableVersionDespiteUpdates) {
  Txn snap = table_.Begin(IsolationLevel::kSnapshot);
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(snap, 7, 0b010, &out).ok());
  EXPECT_EQ(out[1], 70u);
  Txn w = table_.Begin();
  ASSERT_TRUE(table_.Update(w, 7, 0b010, {0, 71, 0}).ok());
  ASSERT_TRUE(w.Commit().ok());
  ASSERT_TRUE(table_.Read(snap, 7, 0b010, &out).ok());
  EXPECT_EQ(out[1], 70u);  // history walk reconstructs the old version
  (void)snap.Commit();
}

TEST_F(IuhTest, WriteWriteConflictAborts) {
  Txn t1 = table_.Begin();
  ASSERT_TRUE(table_.Update(t1, 9, 0b010, {0, 1, 0}).ok());
  Txn t2 = table_.Begin();
  EXPECT_TRUE(table_.Update(t2, 9, 0b010, {0, 2, 0}).IsAborted());
  t2.Abort();
  ASSERT_TRUE(t1.Commit().ok());
}

TEST_F(IuhTest, DeleteHidesAndAbortRestores) {
  Txn t1 = table_.Begin();
  ASSERT_TRUE(table_.Delete(t1, 3).ok());
  t1.Abort();
  Txn r = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(r, 3, 0b010, &out).ok());
  EXPECT_EQ(out[1], 30u);
  (void)r.Commit();
  Txn t2 = table_.Begin();
  ASSERT_TRUE(table_.Delete(t2, 3).ok());
  ASSERT_TRUE(t2.Commit().ok());
  Txn r2 = table_.Begin();
  EXPECT_TRUE(table_.Read(r2, 3, 0b010, &out).IsNotFound());
  (void)r2.Commit();
}

TEST_F(IuhTest, ScanSumsVisibleVersions) {
  uint64_t sum = 0;
  Timestamp now = table_.txn_manager().clock().Tick();
  ASSERT_TRUE(table_.SumColumn(1, now, &sum).ok());
  uint64_t expect = 0;
  for (Value k = 0; k < 20; ++k) expect += k * 10;
  EXPECT_EQ(sum, expect);
}

// Medium contention: writers hammer a small active set with two-row
// transactions (so write-write aborts and their undo are frequent)
// while a snapshot scan runs back to back. Each update writes the
// same value into columns 1 and 2, so two scans of one snapshot must
// agree. An aborted update must never restore a committed writer's
// unstamped id into the start slot: once that writer retires, every
// reader of the record spins forever.
TEST(IuhRaceTest, ScanFinishesUnderContendedWriters) {
  TableConfig cfg = BaselineConfig();
  IuhTable t(Schema(3), cfg);
  constexpr Value kRows = 2000;
  constexpr Value kActive = 20;
  {
    Txn txn = t.Begin();
    for (Value k = 0; k < kRows; ++k) {
      ASSERT_TRUE(t.Insert(txn, {k, k, k}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> aborts{0};
  std::vector<std::thread> writers;
  for (uint32_t w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      Random rng(17 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        Txn txn = t.Begin();
        bool ok = true;
        for (int i = 0; i < 2 && ok; ++i) {
          Value v = rng.Uniform(1000);
          ok = t.Update(txn, rng.Uniform(kActive), 0b110, {0, v, v}).ok();
        }
        if (ok) {
          (void)txn.Commit();
        } else {
          txn.Abort();
          aborts.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  uint32_t scans = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    Timestamp as_of = t.Now();
    uint64_t s1 = 0, s2 = 0;
    ASSERT_TRUE(t.SumColumn(1, as_of, &s1).ok());
    ASSERT_TRUE(t.SumColumn(2, as_of, &s2).ok());
    ASSERT_EQ(s1, s2) << "a snapshot mixed column versions";
    ++scans;
  }
  stop = true;
  for (auto& th : writers) th.join();
  EXPECT_GT(scans, 0u);
  EXPECT_GT(aborts.load(), 0u) << "the workload must exercise undo";
}

// ---------------------------------------------------------------------------
// DBM
// ---------------------------------------------------------------------------

class DbmTest : public ::testing::Test {
 protected:
  DbmTest() : table_(Schema(3), BaselineConfig()) {
    Txn txn = table_.Begin();
    for (Value k = 0; k < 20; ++k) {
      EXPECT_TRUE(table_.Insert(txn, {k, k * 10, k * 100}).ok());
    }
    EXPECT_TRUE(txn.Commit().ok());
  }
  DbmTable table_;
};

TEST_F(DbmTest, ReadsResolveThroughDelta) {
  Txn txn = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(txn, 4, 0b110, &out).ok());
  EXPECT_EQ(out[1], 40u);
  EXPECT_EQ(out[2], 400u);
  ASSERT_TRUE(table_.Update(txn, 4, 0b010, {0, 41, 0}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  Txn r = table_.Begin();
  ASSERT_TRUE(table_.Read(r, 4, 0b110, &out).ok());
  EXPECT_EQ(out[1], 41u);
  EXPECT_EQ(out[2], 400u);  // untouched column from the insert delta
  (void)r.Commit();
}

TEST_F(DbmTest, MergeConsolidatesDeltaIntoMain) {
  for (Value k = 0; k < 20; ++k) {
    Txn txn = table_.Begin();
    ASSERT_TRUE(table_.Update(txn, k, 0b010, {0, k + 1000, 0}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(table_.MergeRange(0));
  EXPECT_EQ(table_.merges_performed(), 1u);
  Txn r = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(r, 6, 0b110, &out).ok());
  EXPECT_EQ(out[1], 1006u);
  EXPECT_EQ(out[2], 600u);
  (void)r.Commit();
  uint64_t sum = 0;
  Timestamp now = table_.txn_manager().clock().Tick();
  ASSERT_TRUE(table_.SumColumn(1, now, &sum).ok());
  uint64_t expect = 0;
  for (Value k = 0; k < 20; ++k) expect += k + 1000;
  EXPECT_EQ(sum, expect);
}

TEST_F(DbmTest, AbortedDeltasNeverMerge) {
  Txn good = table_.Begin();
  ASSERT_TRUE(table_.Update(good, 2, 0b010, {0, 222, 0}).ok());
  ASSERT_TRUE(good.Commit().ok());
  Txn bad = table_.Begin();
  ASSERT_TRUE(table_.Update(bad, 2, 0b010, {0, 666, 0}).ok());
  bad.Abort();
  ASSERT_TRUE(table_.MergeRange(0));
  Txn r = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(r, 2, 0b010, &out).ok());
  EXPECT_EQ(out[1], 222u);
  (void)r.Commit();
}

TEST_F(DbmTest, MergeDrainsActiveTransactions) {
  // The defining behaviour: a merge must WAIT for active transactions
  // and BLOCK new ones until it finishes.
  Txn open = table_.Begin();
  ASSERT_TRUE(table_.Update(open, 1, 0b010, {0, 11, 0}).ok());

  std::atomic<bool> merge_done{false};
  std::thread merger([&] {
    table_.MergeRange(0);
    merge_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(merge_done.load()) << "merge must wait for the open txn";
  ASSERT_TRUE(open.Commit().ok());
  merger.join();
  EXPECT_TRUE(merge_done.load());
  EXPECT_GT(table_.drain_waits_us(), 0u);
  // Data is intact after the drained merge.
  Txn r = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(r, 1, 0b010, &out).ok());
  EXPECT_EQ(out[1], 11u);
  (void)r.Commit();
}

TEST_F(DbmTest, WriteWriteConflictAborts) {
  Txn t1 = table_.Begin();
  ASSERT_TRUE(table_.Update(t1, 9, 0b010, {0, 1, 0}).ok());
  Txn t2 = table_.Begin();
  EXPECT_TRUE(table_.Update(t2, 9, 0b010, {0, 2, 0}).IsAborted());
  t2.Abort();
  ASSERT_TRUE(t1.Commit().ok());
}

TEST_F(DbmTest, BackgroundMergeTriggersOnThreshold) {
  TableConfig cfg = BaselineConfig(/*merge_thread=*/true);
  cfg.merge_threshold = 16;
  DbmTable t(Schema(3), cfg);
  {
    Txn txn = t.Begin();
    for (Value k = 0; k < 20; ++k) {
      ASSERT_TRUE(t.Insert(txn, {k, k, k}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  Random rng(9);
  for (int i = 0; i < 200; ++i) {
    Txn txn = t.Begin();
    if (t.Update(txn, rng.Uniform(20), 0b010, {0, Value(i), 0}).ok()) {
      (void)txn.Commit();
    } else {
      txn.Abort();
    }
  }
  for (int i = 0; i < 100 && t.merges_performed() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(t.merges_performed(), 0u);
}

// Scans read delta entries without a latch while updaters append to
// the same delta and a merger clears it between drains: the delta's
// chunk directory must stay valid under the readers.
TEST(DbmRaceTest, SumColumnRacesUpdatesAndMerges) {
  TableConfig cfg = BaselineConfig();
  DbmTable t(Schema(3), cfg);
  constexpr Value kRows = 256;
  {
    Txn txn = t.Begin();
    for (Value k = 0; k < kRows; ++k) {
      ASSERT_TRUE(t.Insert(txn, {k, k, k}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  const uint64_t ranges = (kRows + cfg.range_size - 1) / cfg.range_size;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (uint32_t w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      Random rng(31 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        Txn txn = t.Begin();
        Value v = rng.Uniform(1000);
        if (t.Update(txn, rng.Uniform(kRows), 0b110, {0, v, v}).ok()) {
          (void)txn.Commit();
        } else {
          txn.Abort();
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      t.MergeRange(i % ranges);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  uint32_t scans = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    uint64_t sum = 0;
    ASSERT_TRUE(t.SumColumn(1, t.Now(), &sum).ok());
    ++scans;
  }
  stop = true;
  for (auto& th : threads) th.join();
  EXPECT_GT(scans, 0u);
  EXPECT_GT(t.merges_performed(), 0u);
  // Quiescent: every committed update wrote the same value to both
  // columns, before and after merging.
  uint64_t s1 = 0, s2 = 0;
  ASSERT_TRUE(t.SumColumn(1, t.Now(), &s1).ok());
  ASSERT_TRUE(t.SumColumn(2, t.Now(), &s2).ok());
  EXPECT_EQ(s1, s2);
  for (uint64_t r = 0; r < ranges; ++r) t.MergeRange(r);
  ASSERT_TRUE(t.SumColumn(1, t.Now(), &s1).ok());
  ASSERT_TRUE(t.SumColumn(2, t.Now(), &s2).ok());
  EXPECT_EQ(s1, s2);
}

}  // namespace
}  // namespace lstore
