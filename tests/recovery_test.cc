// Logging & recovery tests (Section 5.1.3): redo-only log for tail
// pages, commit/abort outcomes, torn-tail handling, indirection
// rebuild, and merge idempotence after recovery.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/table.h"
#include "log/redo_log.h"

namespace lstore {
namespace {

std::string TempLogPath(const char* name) {
  return std::string(::testing::TempDir()) + "lstore_" + name + ".log";
}

TableConfig LogConfig(const std::string& path) {
  TableConfig cfg;
  cfg.range_size = 32;
  cfg.insert_range_size = 32;
  cfg.tail_page_slots = 8;
  cfg.enable_merge_thread = false;
  cfg.enable_logging = true;
  cfg.log_path = path;
  return cfg;
}

TEST(RedoLogTest, PayloadRoundTrip) {
  LogRecord rec;
  rec.type = LogRecordType::kTailAppend;
  rec.txn_id = kTxnIdTag | 42;
  rec.range_id = 3;
  rec.seq = 17;
  rec.base_slot = 9;
  rec.backptr = 16;
  rec.schema_encoding = 0b0110 | kSnapshotFlag;
  rec.start_raw = 12345;
  rec.mask = 0b0110;
  rec.values = {111, 222};
  std::string payload;
  RedoLog::EncodePayload(rec, &payload);
  LogRecord out;
  ASSERT_TRUE(RedoLog::DecodePayload(payload.data(), payload.size(), &out));
  EXPECT_EQ(out.txn_id, rec.txn_id);
  EXPECT_EQ(out.seq, rec.seq);
  EXPECT_EQ(out.backptr, rec.backptr);
  EXPECT_EQ(out.schema_encoding, rec.schema_encoding);
  EXPECT_EQ(out.start_raw, rec.start_raw);
  EXPECT_EQ(out.values, rec.values);
}

TEST(RedoLogTest, ReplayStopsAtTornTail) {
  std::string path = TempLogPath("torn");
  {
    RedoLog log;
    ASSERT_TRUE(log.Open(path, true).ok());
    for (int i = 0; i < 5; ++i) {
      LogRecord rec;
      rec.type = LogRecordType::kCommit;
      rec.txn_id = kTxnIdTag | (100 + i);
      rec.commit_time = 100 + i;
      log.Append(rec);
    }
    ASSERT_TRUE(log.SyncTo(log.last_lsn(), false).ok());
  }
  // Truncate mid-frame to simulate a crash during a write.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    std::fseek(f, 0, SEEK_END);
    long sz = std::ftell(f);
    ASSERT_EQ(0, ::truncate(path.c_str(), sz - 3));
    std::fclose(f);
  }
  int count = 0;
  ASSERT_TRUE(RedoLog::Replay(path, [&](const LogRecord&) { ++count; }).ok());
  EXPECT_EQ(count, 4);  // last frame torn, first four intact
  std::remove(path.c_str());
}

TEST(RedoLogTest, ReplayStopsAtCorruptChecksum) {
  std::string path = TempLogPath("corrupt");
  {
    RedoLog log;
    ASSERT_TRUE(log.Open(path, true).ok());
    for (int i = 0; i < 3; ++i) {
      LogRecord rec;
      rec.type = LogRecordType::kAbort;
      rec.txn_id = kTxnIdTag | (7 + i);
      log.Append(rec);
    }
    ASSERT_TRUE(log.SyncTo(log.last_lsn(), false).ok());
  }
  {
    // Flip a byte in the middle of the file (second record's payload).
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    std::fseek(f, 0, SEEK_END);
    long sz = std::ftell(f);
    std::fseek(f, sz / 2, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, sz / 2, SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  int count = 0;
  ASSERT_TRUE(RedoLog::Replay(path, [&](const LogRecord&) { ++count; }).ok());
  EXPECT_LT(count, 3);
  std::remove(path.c_str());
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempLogPath(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(RecoveryTest, CommittedDataSurvivesRestart) {
  {
    Table table("t", Schema(3), LogConfig(path_));
    Txn txn = table.Begin();
    for (Value k = 0; k < 10; ++k) {
      ASSERT_TRUE(table.Insert(txn, {k, k * 2, k * 3}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
    Txn u = table.Begin();
    ASSERT_TRUE(table.Update(u, 4, 0b010, {0, 999, 0}).ok());
    ASSERT_TRUE(u.Commit().ok());
    // Destructor closes the log; the "crash" discards all memory.
  }
  Table table("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  Txn r = table.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table.Read(r, 4, 0b111, &out).ok());
  EXPECT_EQ(out, (std::vector<Value>{4, 999, 12}));
  ASSERT_TRUE(table.Read(r, 7, 0b111, &out).ok());
  EXPECT_EQ(out, (std::vector<Value>{7, 14, 21}));
  (void)r.Commit();
}

TEST_F(RecoveryTest, UncommittedTransactionRolledBackOnRecovery) {
  {
    Table table("t", Schema(3), LogConfig(path_));
    Txn setup = table.Begin();
    ASSERT_TRUE(table.Insert(setup, {1, 10, 20}).ok());
    ASSERT_TRUE(setup.Commit().ok());
    // In-flight transaction: tail records logged, no commit record.
    Txn open = table.Begin();
    ASSERT_TRUE(table.Update(open, 1, 0b010, {0, 777, 0}).ok());
    ASSERT_TRUE(table.Insert(open, {2, 30, 40}).ok());
    // Force the appends to disk without committing.
    // (Flush happens on commit normally; simulate via a committed
    // no-op transaction that triggers the group-commit flush.)
    Txn noop = table.Begin();
    ASSERT_TRUE(noop.Commit().ok());
  }
  Table table("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  Txn r = table.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table.Read(r, 1, 0b010, &out).ok());
  EXPECT_EQ(out[1], 10u);  // uncommitted update rolled back
  EXPECT_TRUE(table.Read(r, 2, 0b111, &out).IsNotFound());
  (void)r.Commit();
}

TEST_F(RecoveryTest, AbortRecordHonoredOnRecovery) {
  {
    Table table("t", Schema(3), LogConfig(path_));
    Txn setup = table.Begin();
    ASSERT_TRUE(table.Insert(setup, {1, 10, 20}).ok());
    ASSERT_TRUE(setup.Commit().ok());
    Txn bad = table.Begin();
    ASSERT_TRUE(table.Update(bad, 1, 0b010, {0, 666, 0}).ok());
    bad.Abort();
    Txn good = table.Begin();
    ASSERT_TRUE(table.Update(good, 1, 0b010, {0, 42, 0}).ok());
    ASSERT_TRUE(good.Commit().ok());
  }
  Table table("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  Txn r = table.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table.Read(r, 1, 0b010, &out).ok());
  EXPECT_EQ(out[1], 42u);
  (void)r.Commit();
}

TEST_F(RecoveryTest, RecoveredTableAcceptsNewTransactions) {
  {
    Table table("t", Schema(3), LogConfig(path_));
    Txn txn = table.Begin();
    ASSERT_TRUE(table.Insert(txn, {1, 10, 20}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Table table("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  // The clock resumed beyond replayed times: new updates win.
  Txn u = table.Begin();
  ASSERT_TRUE(table.Update(u, 1, 0b010, {0, 11, 0}).ok());
  ASSERT_TRUE(u.Commit().ok());
  Txn n = table.Begin();
  ASSERT_TRUE(table.Insert(n, {2, 20, 30}).ok());
  ASSERT_TRUE(n.Commit().ok());
  Txn r = table.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table.Read(r, 1, 0b010, &out).ok());
  EXPECT_EQ(out[1], 11u);
  (void)r.Commit();
}

TEST_F(RecoveryTest, DoubleRecoveryIsIdempotent) {
  {
    Table table("t", Schema(3), LogConfig(path_));
    Txn txn = table.Begin();
    for (Value k = 0; k < 5; ++k) {
      ASSERT_TRUE(table.Insert(txn, {k, k, k}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  for (int round = 0; round < 2; ++round) {
    Table table("t", Schema(3), LogConfig(path_));
    ASSERT_TRUE(table.RecoverFromLog().ok());
    EXPECT_EQ(table.num_rows(), 5u);
    Txn r = table.Begin();
    std::vector<Value> out;
    ASSERT_TRUE(table.Read(r, 3, 0b010, &out).ok());
    EXPECT_EQ(out[1], 3u);
    (void)r.Commit();
  }
}

TEST_F(RecoveryTest, MergeAfterRecoveryIsConsistent) {
  // "The merge process is idempotent ... If crash occurs during the
  // merge, simply the partial merge results can be ignored and the
  // merge can be restarted." Merges are not logged; after recovery the
  // merge re-runs from TPS 0 and must produce the same visible state.
  {
    Table table("t", Schema(3), LogConfig(path_));
    Txn txn = table.Begin();
    for (Value k = 0; k < 32; ++k) {
      ASSERT_TRUE(table.Insert(txn, {k, k, k}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
    for (Value k = 0; k < 32; ++k) {
      Txn u = table.Begin();
      ASSERT_TRUE(table.Update(u, k, 0b010, {0, k + 1000, 0}).ok());
      ASSERT_TRUE(u.Commit().ok());
    }
    table.FlushAll();  // merge ran before the crash
  }
  Table table("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  table.FlushAll();  // restart the merge from scratch
  for (Value k = 0; k < 32; ++k) {
    Txn r = table.Begin();
    std::vector<Value> out;
    ASSERT_TRUE(table.Read(r, k, 0b010, &out).ok());
    EXPECT_EQ(out[1], k + 1000);
    (void)r.Commit();
  }
}

// An abort record may FOLLOW a commit record of the same transaction:
// the pipeline appends per-table commit records first and aborts if a
// later step fails. Recovery must honor the abort — replaying such a
// log as committed would resurrect writes the live process tombstoned.
TEST(RecoveryOutcomeTest, AbortRecordAfterCommitRecordWins) {
  std::string path = TempLogPath("abort_after_commit");
  std::remove(path.c_str());
  const TxnId txn_id = kTxnIdTag | 77;
  {
    RedoLog log;
    ASSERT_TRUE(log.Open(path, /*truncate=*/true).ok());
    LogRecord ins;
    ins.type = LogRecordType::kInsertAppend;
    ins.txn_id = txn_id;
    ins.range_id = 0;
    ins.seq = 1;
    ins.base_slot = 0;
    ins.backptr = 0;
    ins.schema_encoding = 0;
    ins.start_raw = txn_id;
    ins.mask = 0b111;
    ins.values = {5, 50, 500};
    log.Append(ins);
    LogRecord commit;
    commit.type = LogRecordType::kCommit;
    commit.txn_id = txn_id;
    commit.commit_time = 99;
    log.Append(commit);
    LogRecord abort;
    abort.type = LogRecordType::kAbort;
    abort.txn_id = txn_id;
    log.Append(abort);
    ASSERT_TRUE(log.SyncTo(log.last_lsn(), true).ok());
  }
  Table table("t", Schema(3), LogConfig(path));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  Txn r = table.Begin();
  std::vector<Value> out;
  EXPECT_TRUE(table.Read(r, 5, 0b111, &out).IsNotFound());
  std::remove(path.c_str());
}

// --- truncation under load -------------------------------------------------

// Commits proceed while TruncateTo rewrites the log: the mutex-held
// window is O(appends since the scan), so appends interleave with the
// rewrite and every record beyond the watermark must survive with its
// LSN intact.
TEST(RedoLogTruncateTest, CommitsConcurrentWithTruncation) {
  std::string path = TempLogPath("concurrent_truncate");
  std::remove(path.c_str());
  RedoLog log;
  ASSERT_TRUE(log.Open(path, /*truncate=*/true).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> appended{0};
  std::thread committer([&] {
    while (!stop.load()) {
      LogRecord rec;
      rec.type = LogRecordType::kCommit;
      rec.txn_id = kTxnIdTag | (appended.load() + 1);
      rec.commit_time = appended.load() + 1;
      log.Append(rec);
      ASSERT_TRUE(log.SyncTo(log.last_lsn(), false).ok());
      appended.fetch_add(1);
    }
  });

  // Interleave several truncations with the append stream.
  uint64_t last_watermark = 0;
  for (int i = 0; i < 20; ++i) {
    while (appended.load() < static_cast<uint64_t>(i + 1) * 20) {
      std::this_thread::yield();
    }
    last_watermark = log.last_lsn() / 2;
    ASSERT_TRUE(log.TruncateTo(last_watermark).ok());
  }
  stop = true;
  committer.join();
  ASSERT_TRUE(log.SyncTo(log.last_lsn(), false).ok());
  uint64_t total = appended.load();
  log.Close();

  // Replay: LSNs are contiguous from the final truncation point and
  // every record beyond it survived (commit_time encodes the append
  // index, so continuity proves no loss and no duplication).
  uint64_t prev_lsn = 0, first_lsn = 0, records = 0;
  RedoLog::ReplayStats stats;
  ASSERT_TRUE(RedoLog::Replay(
                  path,
                  [&](const LogRecord& rec, uint64_t lsn) {
                    if (records == 0) {
                      first_lsn = lsn;
                    } else {
                      EXPECT_EQ(lsn, prev_lsn + 1);
                    }
                    EXPECT_EQ(rec.commit_time, lsn);  // append i == LSN i
                    prev_lsn = lsn;
                    ++records;
                  },
                  &stats)
                  .ok());
  EXPECT_TRUE(stats.clean_end);
  EXPECT_GT(records, 0u);
  EXPECT_GT(first_lsn, last_watermark);  // prefix actually dropped
  EXPECT_EQ(prev_lsn, total);            // tail fully retained
}

// A batch frame straddling the watermark is retained whole; the
// truncation point's base LSN backs up so the numbering of the
// surviving records does not shift.
TEST(RedoLogTruncateTest, BatchFrameStraddlingWatermarkKeepsLsns) {
  std::string path = TempLogPath("batch_straddle");
  std::remove(path.c_str());
  RedoLog log;
  ASSERT_TRUE(log.Open(path, /*truncate=*/true).ok());
  std::vector<LogRecord> batch;
  for (int i = 0; i < 10; ++i) {
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    rec.txn_id = kTxnIdTag | (i + 1);
    rec.commit_time = i + 1;  // record i+1 carries its own LSN
    batch.push_back(rec);
  }
  EXPECT_EQ(log.AppendBatch(batch), 10u);
  ASSERT_TRUE(log.SyncTo(log.last_lsn(), false).ok());
  // Watermark falls INSIDE the batch: the whole frame must survive.
  ASSERT_TRUE(log.TruncateTo(5).ok());
  log.Close();
  uint64_t records = 0;
  std::vector<uint64_t> lsns;
  ASSERT_TRUE(RedoLog::Replay(
                  path,
                  [&](const LogRecord& rec, uint64_t lsn) {
                    EXPECT_EQ(rec.commit_time, lsn);  // numbering unshifted
                    lsns.push_back(lsn);
                    ++records;
                  },
                  nullptr)
                  .ok());
  EXPECT_EQ(records, 10u);  // retained whole; replay filters by LSN
  EXPECT_EQ(lsns.front(), 1u);
  EXPECT_EQ(lsns.back(), 10u);
}

}  // namespace
}  // namespace lstore
