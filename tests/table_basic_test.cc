// Basic fine-grained manipulation on the L-Store table (Section 3):
// insert, point read with projection, update (with pre-image
// snapshots), delete, and error paths.

#include <gtest/gtest.h>

#include "core/query.h"
#include "core/table.h"

namespace lstore {
namespace {

TableConfig SmallConfig() {
  TableConfig cfg;
  cfg.range_size = 64;
  cfg.insert_range_size = 64;
  cfg.tail_page_slots = 16;
  cfg.merge_threshold = 32;
  cfg.enable_merge_thread = false;  // deterministic foreground tests
  return cfg;
}

class TableBasicTest : public ::testing::Test {
 protected:
  TableBasicTest() : table_("t", Schema(4), SmallConfig()) {}

  // Commits a single-insert transaction.
  Status InsertRow(const std::vector<Value>& row) {
    Txn txn = table_.Begin();
    Status s = table_.Insert(txn, row);
    if (!s.ok()) {
      txn.Abort();
      return s;
    }
    return txn.Commit();
  }

  Status UpdateRow(Value key, ColumnMask mask, const std::vector<Value>& row) {
    Txn txn = table_.Begin();
    Status s = table_.Update(txn, key, mask, row);
    if (!s.ok()) {
      txn.Abort();
      return s;
    }
    return txn.Commit();
  }

  std::vector<Value> ReadRow(Value key, ColumnMask mask,
                             Status* status = nullptr) {
    Txn txn = table_.Begin();
    std::vector<Value> out;
    Status s = table_.Read(txn, key, mask, &out);
    (void)txn.Commit();
    if (status != nullptr) *status = s;
    return out;
  }

  Table table_;
};

TEST_F(TableBasicTest, InsertThenReadAllColumns) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Status s;
  auto row = ReadRow(1, 0b1111, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(row, (std::vector<Value>{1, 10, 20, 30}));
}

TEST_F(TableBasicTest, ProjectionReadsOnlyRequestedColumns) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  auto row = ReadRow(1, 0b0100);
  EXPECT_EQ(row[2], 20u);
  EXPECT_EQ(row[0], kNull);  // unrequested columns come back as null
  EXPECT_EQ(row[1], kNull);
  EXPECT_EQ(row[3], kNull);
}

TEST_F(TableBasicTest, ReadMissingKeyIsNotFound) {
  Status s;
  ReadRow(42, 0b1111, &s);
  EXPECT_TRUE(s.IsNotFound());
}

TEST_F(TableBasicTest, DuplicateKeyRejected) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  EXPECT_TRUE(InsertRow({1, 11, 21, 31}).IsAlreadyExists());
  // Original row intact.
  EXPECT_EQ(ReadRow(1, 0b0010)[1], 10u);
}

TEST_F(TableBasicTest, UpdateSingleColumn) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  ASSERT_TRUE(UpdateRow(1, 0b0010, {0, 11, 0, 0}).ok());
  auto row = ReadRow(1, 0b1111);
  EXPECT_EQ(row, (std::vector<Value>{1, 11, 20, 30}));
}

TEST_F(TableBasicTest, UpdateMultipleColumnsAtOnce) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  ASSERT_TRUE(UpdateRow(1, 0b1010, {0, 11, 0, 31}).ok());
  auto row = ReadRow(1, 0b1111);
  EXPECT_EQ(row, (std::vector<Value>{1, 11, 20, 31}));
}

TEST_F(TableBasicTest, RepeatedUpdatesSeeLatest) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  for (Value v = 100; v < 110; ++v) {
    ASSERT_TRUE(UpdateRow(1, 0b0010, {0, v, 0, 0}).ok());
  }
  EXPECT_EQ(ReadRow(1, 0b0010)[1], 109u);
}

TEST_F(TableBasicTest, UpdateKeyColumnRejected) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Txn txn = table_.Begin();
  EXPECT_TRUE(table_.Update(txn, 1, 0b0001, {9, 0, 0, 0})
                  .IsInvalidArgument());
  txn.Abort();
}

TEST_F(TableBasicTest, UpdateUnknownColumnRejected) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Txn txn = table_.Begin();
  EXPECT_TRUE(table_.Update(txn, 1, 1ull << 40, {}).IsInvalidArgument());
  txn.Abort();
}

TEST_F(TableBasicTest, InsertArityMismatchRejected) {
  Txn txn = table_.Begin();
  EXPECT_TRUE(table_.Insert(txn, {1, 2}).IsInvalidArgument());
  txn.Abort();
}

TEST_F(TableBasicTest, DeleteMakesRecordInvisible) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Delete(txn, 1).ok());
  ASSERT_TRUE(txn.Commit().ok());
  Status s;
  ReadRow(1, 0b1111, &s);
  EXPECT_TRUE(s.IsNotFound());
}

TEST_F(TableBasicTest, UpdateAfterDeleteIsNotFound) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Delete(txn, 1).ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(UpdateRow(1, 0b0010, {0, 99, 0, 0}).IsNotFound());
}

TEST_F(TableBasicTest, DeletedRecordStillVisibleToOlderSnapshot) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Timestamp before = table_.txn_manager().clock().Tick();
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Delete(txn, 1).ok());
  ASSERT_TRUE(txn.Commit().ok());
  std::vector<Value> out;
  ASSERT_TRUE(table_.ReadAsOf(1, before, 0b0010, &out).ok());
  EXPECT_EQ(out[1], 10u);
}

TEST_F(TableBasicTest, InsertsSpanMultipleRanges) {
  for (Value k = 0; k < 200; ++k) {  // range_size 64 -> 4 ranges
    ASSERT_TRUE(InsertRow({k, k + 1, k + 2, k + 3}).ok());
  }
  EXPECT_GE(table_.num_ranges(), 3u);
  for (Value k = 0; k < 200; ++k) {
    EXPECT_EQ(ReadRow(k, 0b0010)[1], k + 1);
  }
}

TEST_F(TableBasicTest, MultiStatementTransactionIsAtomicOnAbort) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Update(txn, 1, 0b0010, {0, 99, 0, 0}).ok());
  ASSERT_TRUE(table_.Insert(txn, {2, 200, 201, 202}).ok());
  txn.Abort();
  // Neither the update nor the insert took effect.
  EXPECT_EQ(ReadRow(1, 0b0010)[1], 10u);
  Status s;
  ReadRow(2, 0b0001, &s);
  EXPECT_TRUE(s.IsNotFound());
}

TEST_F(TableBasicTest, AbortedInsertKeyIsReusable) {
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Insert(txn, {7, 1, 2, 3}).ok());
  txn.Abort();
  EXPECT_TRUE(InsertRow({7, 4, 5, 6}).ok());
  EXPECT_EQ(ReadRow(7, 0b0010)[1], 4u);
}

TEST_F(TableBasicTest, ReadYourOwnWrites) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Update(txn, 1, 0b0010, {0, 77, 0, 0}).ok());
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(txn, 1, 0b0010, &out).ok());
  EXPECT_EQ(out[1], 77u);  // own uncommitted write visible to self
  // ... but not to others.
  Txn other = table_.Begin();
  std::vector<Value> out2;
  ASSERT_TRUE(table_.Read(other, 1, 0b0010, &out2).ok());
  EXPECT_EQ(out2[1], 10u);
  (void)txn.Commit();
  (void)other.Commit();
}

TEST_F(TableBasicTest, UncommittedInsertInvisibleToOthers) {
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Insert(txn, {5, 1, 2, 3}).ok());
  Txn other = table_.Begin();
  std::vector<Value> out;
  EXPECT_TRUE(table_.Read(other, 5, 0b1111, &out).IsNotFound());
  (void)txn.Commit();
  (void)other.Commit();
  // After commit it is visible.
  EXPECT_EQ(ReadRow(5, 0b0010)[1], 1u);
}

TEST_F(TableBasicTest, TimeTravelReadSeesEachVersion) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  std::vector<Timestamp> stamps;
  stamps.push_back(table_.txn_manager().clock().Tick());
  for (Value v : {100, 200, 300}) {
    ASSERT_TRUE(UpdateRow(1, 0b0010, {0, v, 0, 0}).ok());
    stamps.push_back(table_.txn_manager().clock().Tick());
  }
  std::vector<Value> out;
  ASSERT_TRUE(table_.ReadAsOf(1, stamps[0], 0b0010, &out).ok());
  EXPECT_EQ(out[1], 10u);
  ASSERT_TRUE(table_.ReadAsOf(1, stamps[1], 0b0010, &out).ok());
  EXPECT_EQ(out[1], 100u);
  ASSERT_TRUE(table_.ReadAsOf(1, stamps[2], 0b0010, &out).ok());
  EXPECT_EQ(out[1], 200u);
  ASSERT_TRUE(table_.ReadAsOf(1, stamps[3], 0b0010, &out).ok());
  EXPECT_EQ(out[1], 300u);
}

TEST_F(TableBasicTest, TimeTravelBeforeInsertIsNotFound) {
  Timestamp before = table_.txn_manager().clock().Tick();
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  std::vector<Value> out;
  EXPECT_TRUE(table_.ReadAsOf(1, before, 0b1111, &out).IsNotFound());
}

TEST_F(TableBasicTest, StatsCountOperations) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  ASSERT_TRUE(UpdateRow(1, 0b0010, {0, 11, 0, 0}).ok());
  ReadRow(1, 0b0010);
  MetricsSnapshot s = table_.metrics()->Snapshot();
  EXPECT_EQ(s.CounterValue("lstore_inserts_total"), 1u);
  EXPECT_EQ(s.CounterValue("lstore_updates_total"), 1u);
  EXPECT_GE(s.CounterValue("lstore_reads_total"), 1u);
}

TEST_F(TableBasicTest, SecondaryIndexSelectsAndReevaluates) {
  for (Value k = 0; k < 10; ++k) {
    ASSERT_TRUE(InsertRow({k, k % 3, 0, 0}).ok());
  }
  table_.CreateSecondaryIndex(1);
  std::vector<Value> keys;
  ASSERT_TRUE(table_.NewQuery().Where(1, Value{0}).Keys(&keys).ok());
  EXPECT_EQ(keys, (std::vector<Value>{0, 3, 6, 9}));
  // Update key 0's value: index keeps the stale posting but the
  // predicate re-evaluation must filter it (Section 3.1).
  ASSERT_TRUE(UpdateRow(0, 0b0010, {0, 2, 0, 0}).ok());
  ASSERT_TRUE(table_.NewQuery().Where(1, Value{0}).Keys(&keys).ok());
  EXPECT_EQ(keys, (std::vector<Value>{3, 6, 9}));
  // And the new value is findable.
  ASSERT_TRUE(table_.NewQuery().Where(1, Value{2}).Keys(&keys).ok());
  EXPECT_EQ(keys, (std::vector<Value>{0, 2, 5, 8}));
}

}  // namespace
}  // namespace lstore
