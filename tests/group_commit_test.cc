// Group commit + database commit log (the single atomic commit point
// for cross-table transactions): fsync sharing across concurrent
// syncs of one log, short-write and failed-fsync handling,
// torn-commit-log fault injection (all-or-nothing recovery on every
// participant), mixed single-/cross-table recovery equivalence, and
// commit-log truncation at checkpoints.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint_manager.h"
#include "core/commit_pipeline.h"
#include "core/database.h"
#include "core/table.h"
#include "log/commit_log.h"
#include "log/redo_log.h"

namespace lstore {
namespace {

class GroupCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "lstore_gc_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static TableConfig SmallConfig() {
    TableConfig cfg;
    cfg.range_size = 32;
    cfg.insert_range_size = 32;
    cfg.tail_page_slots = 8;
    cfg.merge_threshold = 1u << 20;  // manual merges only
    cfg.enable_merge_thread = false;
    return cfg;
  }

  static uint64_t FileBytes(const std::string& path) {
    struct ::stat st;
    return ::stat(path.c_str(), &st) == 0 ? st.st_size : 0;
  }

  /// Open a durable database with tables "a" and "b".
  std::unique_ptr<Database> OpenDb(const DurabilityOptions& opts,
                                   bool create_tables = true) {
    std::unique_ptr<Database> db;
    Status s = Database::Open(dir_, opts, &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (create_tables && db->GetTable("a") == nullptr) {
      EXPECT_TRUE(db->CreateTable("a", Schema(3), SmallConfig()).ok());
      EXPECT_TRUE(db->CreateTable("b", Schema(3), SmallConfig()).ok());
    }
    return db;
  }

  /// One cross-table transaction: insert (k, v, 0) into "a" AND
  /// (k + 1000, v, 0) into "b".
  static Status CrossInsert(Database* db, Value k, Value v) {
    Txn txn = db->Begin();
    Table* a = db->GetTable("a");
    Table* b = db->GetTable("b");
    Status s = a->Insert(txn, {k, v, 0});
    if (s.ok()) s = b->Insert(txn, {k + 1000, v, 0});
    if (s.ok()) return txn.Commit();
    return s;
  }

  /// True iff `key` is visible in `table`.
  static bool Visible(Database* db, const std::string& table, Value key) {
    Txn txn = db->Begin();
    std::vector<Value> row;
    Status s = db->GetTable(table)->Read(txn, key, 0b111, &row);
    (void)txn.Commit();
    return s.ok();
  }

  /// Number of records currently in the live commit log.
  static size_t CommitLogRecords(Database* db) {
    size_t n = 0;
    EXPECT_TRUE(db->commit_log()
                    ->Scan([&n](const CommitLogRecord&, uint64_t) { ++n; })
                    .ok());
    return n;
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// CommitLog unit: framing, LSNs, torn-tail repair, truncation
// ---------------------------------------------------------------------------

TEST_F(GroupCommitTest, CommitLogRoundTripAndTruncation) {
  std::filesystem::create_directories(dir_);
  std::string path = dir_ + "/clog";
  {
    CommitLog log;
    ASSERT_TRUE(log.Open(path, true).ok());
    for (uint64_t i = 0; i < 5; ++i) {
      CommitLogRecord rec;
      rec.txn_id = kTxnIdTag | (10 + i);
      rec.commit_time = 100 + i;
      rec.participants = {{"a", 7 + i}, {"b", 9 + i}};
      EXPECT_EQ(log.Append(rec), i + 1);
    }
    ASSERT_TRUE(log.SyncTo(log.last_lsn(), false).ok());
    ASSERT_TRUE(log.TruncateTo(3).ok());
    CommitLogRecord rec;
    rec.txn_id = kTxnIdTag | 77;
    rec.commit_time = 200;
    rec.participants = {{"a", 20}};
    EXPECT_EQ(log.Append(rec), 6u);  // LSNs continue across truncation
    ASSERT_TRUE(log.SyncTo(log.last_lsn(), false).ok());
  }
  std::vector<uint64_t> lsns;
  std::vector<Timestamp> times;
  CommitLog::ReplayStats stats;
  ASSERT_TRUE(CommitLog::Replay(
                  path,
                  [&](const CommitLogRecord& rec, uint64_t lsn) {
                    lsns.push_back(lsn);
                    times.push_back(rec.commit_time);
                    ASSERT_FALSE(rec.participants.empty());
                    EXPECT_EQ(rec.participants[0].table, "a");
                  },
                  &stats)
                  .ok());
  EXPECT_EQ(lsns, (std::vector<uint64_t>{4, 5, 6}));
  EXPECT_EQ(times, (std::vector<Timestamp>{103, 104, 200}));
  EXPECT_EQ(stats.base_lsn, 3u);
  EXPECT_TRUE(stats.clean_end);
}

TEST_F(GroupCommitTest, CommitLogAbortMarkerOverridesCommitRecord) {
  std::filesystem::create_directories(dir_);
  std::string path = dir_ + "/clog";
  {
    CommitLog log;
    ASSERT_TRUE(log.Open(path, true).ok());
    CommitLogRecord commit;
    commit.txn_id = kTxnIdTag | 7;
    commit.commit_time = 42;
    commit.participants = {{"a", 1}, {"b", 2}};
    log.Append(commit);
    // The commit record's flush failed at runtime: the authoritative
    // abort marker follows it in the log.
    CommitLogRecord abort;
    abort.txn_id = kTxnIdTag | 7;
    abort.aborted = true;
    log.Append(abort);
    ASSERT_TRUE(log.SyncTo(log.last_lsn(), false).ok());
  }
  std::vector<bool> aborted;
  ASSERT_TRUE(CommitLog::Replay(path,
                                [&](const CommitLogRecord& rec, uint64_t) {
                                  aborted.push_back(rec.aborted);
                                  EXPECT_EQ(rec.txn_id, kTxnIdTag | 7);
                                })
                  .ok());
  EXPECT_EQ(aborted, (std::vector<bool>{false, true}));
}

TEST_F(GroupCommitTest, CommitLogOpenRepairsTornTail) {
  std::filesystem::create_directories(dir_);
  std::string path = dir_ + "/clog";
  {
    CommitLog log;
    ASSERT_TRUE(log.Open(path, true).ok());
    for (uint64_t i = 0; i < 3; ++i) {
      CommitLogRecord rec;
      rec.txn_id = kTxnIdTag | (10 + i);
      rec.commit_time = 100 + i;
      rec.participants = {{"table_with_a_long_name", i}};
      log.Append(rec);
    }
    ASSERT_TRUE(log.SyncTo(log.last_lsn(), false).ok());
  }
  // Crash mid-append: chop into the final frame.
  ASSERT_EQ(0, ::truncate(path.c_str(), FileBytes(path) - 3));
  {
    CommitLog log;
    ASSERT_TRUE(log.Open(path, false).ok());
    EXPECT_EQ(log.last_lsn(), 2u);  // torn record discarded
  }
  size_t n = 0;
  CommitLog::ReplayStats stats;
  ASSERT_TRUE(CommitLog::Replay(
                  path, [&n](const CommitLogRecord&, uint64_t) { ++n; },
                  &stats)
                  .ok());
  EXPECT_EQ(n, 2u);
  EXPECT_TRUE(stats.clean_end);
}

// ---------------------------------------------------------------------------
// The single commit point: record placement
// ---------------------------------------------------------------------------

TEST_F(GroupCommitTest, CrossTableCommitWritesOneCommitLogRecordAndNoPerTableOnes) {
  {
    auto db = OpenDb(DurabilityOptions{});
    ASSERT_TRUE(CrossInsert(db.get(), 1, 11).ok());
    // A single-table commit keeps its per-table commit record.
    Txn txn = db->Begin();
    ASSERT_TRUE(db->GetTable("a")->Insert(txn, {2, 22, 0}).ok());
    ASSERT_TRUE(txn.Commit().ok());
    EXPECT_EQ(CommitLogRecords(db.get()), 1u);
  }
  // Inspect the closed logs: the cross-table transaction must have
  // NO commit record in either table log; its only commit point is
  // the database commit log.
  size_t a_commits = 0, b_commits = 0;
  ASSERT_TRUE(RedoLog::Replay(dir_ + "/a.log",
                              [&](const LogRecord& rec) {
                                if (rec.type == LogRecordType::kCommit) {
                                  ++a_commits;
                                }
                              })
                  .ok());
  ASSERT_TRUE(RedoLog::Replay(dir_ + "/b.log",
                              [&](const LogRecord& rec) {
                                if (rec.type == LogRecordType::kCommit) {
                                  ++b_commits;
                                }
                              })
                  .ok());
  EXPECT_EQ(a_commits, 1u);  // only the single-table commit
  EXPECT_EQ(b_commits, 0u);

  size_t clog_records = 0;
  ASSERT_TRUE(CommitLog::Replay(dir_ + "/COMMIT_LOG",
                                [&](const CommitLogRecord& rec, uint64_t) {
                                  ++clog_records;
                                  EXPECT_EQ(rec.participants.size(), 2u);
                                })
                  .ok());
  EXPECT_EQ(clog_records, 1u);

  // Everything recovers.
  auto db = OpenDb(DurabilityOptions{}, /*create_tables=*/false);
  EXPECT_TRUE(Visible(db.get(), "a", 1));
  EXPECT_TRUE(Visible(db.get(), "b", 1001));
  EXPECT_TRUE(Visible(db.get(), "a", 2));
}

// ---------------------------------------------------------------------------
// Fault injection: all-or-nothing across participants
// ---------------------------------------------------------------------------

TEST_F(GroupCommitTest, TornCommitLogTailDropsTxnOnEveryParticipant) {
  {
    auto db = OpenDb(DurabilityOptions{});
    ASSERT_TRUE(CrossInsert(db.get(), 1, 11).ok());  // survives
    ASSERT_TRUE(CrossInsert(db.get(), 2, 22).ok());  // torn below
  }
  // Crash while appending the second commit record: tear into the
  // commit log's final frame. Both participants' payloads are intact
  // in a.log / b.log — only the commit point is gone.
  std::string clog = dir_ + "/COMMIT_LOG";
  ASSERT_GT(FileBytes(clog), 4u);
  ASSERT_EQ(0, ::truncate(clog.c_str(), FileBytes(clog) - 4));

  auto db = OpenDb(DurabilityOptions{}, /*create_tables=*/false);
  EXPECT_TRUE(Visible(db.get(), "a", 1));
  EXPECT_TRUE(Visible(db.get(), "b", 1001));
  // The torn transaction is aborted on BOTH tables, not split.
  EXPECT_FALSE(Visible(db.get(), "a", 2));
  EXPECT_FALSE(Visible(db.get(), "b", 1002));
}

TEST_F(GroupCommitTest, CrashBetweenParticipantWritesRecoversAllOrNothing) {
  {
    auto db = OpenDb(DurabilityOptions{});
    ASSERT_TRUE(CrossInsert(db.get(), 1, 11).ok());
  }
  // Crash before the commit-log append: participant logs carry the
  // payloads (in any flushed subset), the commit log has no record.
  // Deleting the commit log wholesale models the strongest version:
  // every participant write landed, the commit point didn't.
  ASSERT_EQ(0, std::remove((dir_ + "/COMMIT_LOG").c_str()));

  auto db = OpenDb(DurabilityOptions{}, /*create_tables=*/false);
  EXPECT_FALSE(Visible(db.get(), "a", 1));
  EXPECT_FALSE(Visible(db.get(), "b", 1001));

  // The recovered database accepts and persists new transactions.
  ASSERT_TRUE(CrossInsert(db.get(), 3, 33).ok());
  EXPECT_TRUE(Visible(db.get(), "a", 3));
  EXPECT_TRUE(Visible(db.get(), "b", 1003));
}

// ---------------------------------------------------------------------------
// Mixed single-/cross-table recovery equivalence
// ---------------------------------------------------------------------------

TEST_F(GroupCommitTest, MixedSingleAndCrossTableCommitsRecoverEquivalently) {
  {
    auto db = OpenDb(DurabilityOptions{});
    Table* a = db->GetTable("a");
    Table* b = db->GetTable("b");
    // Interleave: cross, single-on-a, cross, single-on-b, updates.
    ASSERT_TRUE(CrossInsert(db.get(), 1, 11).ok());
    {
      Txn txn = db->Begin();
      ASSERT_TRUE(a->Insert(txn, {2, 22, 0}).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
    ASSERT_TRUE(CrossInsert(db.get(), 3, 33).ok());
    {
      Txn txn = db->Begin();
      ASSERT_TRUE(b->Insert(txn, {1002, 22, 0}).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
    // A checkpoint mid-stream: later commits replay from log tails.
    ASSERT_TRUE(db->Checkpoint().ok());
    {
      Txn txn = db->Begin();
      std::vector<Value> row{0, 99, 0};
      ASSERT_TRUE(a->Update(txn, 1, 0b010, row).ok());
      ASSERT_TRUE(b->Update(txn, 1001, 0b010, row).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
    ASSERT_TRUE(CrossInsert(db.get(), 4, 44).ok());
    // An aborted cross-table transaction leaves nothing.
    {
      Txn txn = db->Begin();
      ASSERT_TRUE(a->Insert(txn, {5, 55, 0}).ok());
      ASSERT_TRUE(b->Insert(txn, {1005, 55, 0}).ok());
      txn.Abort();
    }
  }
  auto db = OpenDb(DurabilityOptions{}, /*create_tables=*/false);
  Txn txn = db->Begin();
  std::vector<Value> row;
  ASSERT_TRUE(db->GetTable("a")->Read(txn, 1, 0b111, &row).ok());
  EXPECT_EQ(row[1], 99u);  // cross-table update replayed on a
  ASSERT_TRUE(db->GetTable("b")->Read(txn, 1001, 0b111, &row).ok());
  EXPECT_EQ(row[1], 99u);  // ... and on b
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(Visible(db.get(), "a", 2));
  EXPECT_TRUE(Visible(db.get(), "b", 1002));
  EXPECT_TRUE(Visible(db.get(), "a", 3));
  EXPECT_TRUE(Visible(db.get(), "b", 1003));
  EXPECT_TRUE(Visible(db.get(), "a", 4));
  EXPECT_TRUE(Visible(db.get(), "b", 1004));
  EXPECT_FALSE(Visible(db.get(), "a", 5));
  EXPECT_FALSE(Visible(db.get(), "b", 1005));
}

// ---------------------------------------------------------------------------
// Group commit inside the log: concurrent syncs share one flush
// ---------------------------------------------------------------------------

/// An encoded redo payload of roughly 100 bytes (12 wide values).
static std::string WidePayload(uint64_t i) {
  LogRecord rec;
  rec.type = LogRecordType::kTailAppend;
  rec.txn_id = kTxnIdTag | (i + 1);
  rec.range_id = i;
  rec.mask = (ColumnMask{1} << 12) - 1;
  for (uint64_t c = 0; c < 12; ++c) rec.values.push_back(~uint64_t{0} - i - c);
  std::string payload;
  RedoLog::EncodePayload(rec, &payload);
  return payload;
}

TEST_F(GroupCommitTest, ConcurrentSyncsOfAppendedRecordsCostOneFsync) {
  std::filesystem::create_directories(dir_);
  MetricsRegistry registry;
  FramedLogMetrics m;
  m.fsyncs = registry.GetCounter("fsyncs", "");
  m.batch_size = registry.GetHistogram("batch", "");
  FramedLog log(&RedoLog::ValidatePayload);
  log.set_metrics(m);
  ASSERT_TRUE(log.Open(dir_ + "/a.log", /*truncate=*/true).ok());

  // Every thread appends first; only then do all of them sync their
  // own LSN at once. Whichever flush runs first covers every appended
  // record, so each other caller finds its LSN already durable (at
  // entry, or on re-checking under the flush mutex): exactly one
  // fsync, whatever the interleaving.
  constexpr int kThreads = 8;
  std::vector<uint64_t> lsns(kThreads);
  std::atomic<int> appended{0};
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      lsns[i] = log.Append(WidePayload(i), 1);
      appended.fetch_add(1);
      while (appended.load() != kThreads) std::this_thread::yield();
      if (log.SyncTo(lsns[i], /*fsync=*/true).ok()) ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kThreads);
  EXPECT_EQ(registry.Snapshot().CounterValue("fsyncs"), 1u);
  EXPECT_EQ(registry.Snapshot().FindHistogram("batch")->hist.count, 1u);
  EXPECT_EQ(log.synced_lsn(), static_cast<uint64_t>(kThreads));
  EXPECT_EQ(log.written_lsn(), static_cast<uint64_t>(kThreads));

  // Already durable: no further fsync.
  ASSERT_TRUE(log.SyncTo(lsns[0], /*fsync=*/true).ok());
  EXPECT_EQ(registry.Snapshot().CounterValue("fsyncs"), 1u);
}

TEST_F(GroupCommitTest, ConcurrentCrossTableCommitsAreAllDurable) {
  DurabilityOptions opts;
  opts.sync_commit = true;
  auto db = OpenDb(opts);
  // Every commit-path fsync: the table redo logs plus the commit log.
  auto fsyncs = [&db] {
    MetricsSnapshot s = db->Metrics();
    return s.CounterValue("lstore_redo_fsyncs_total") +
           s.CounterValue("lstore_commit_log_fsyncs_total");
  };

  constexpr int kThreads = 8;
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(CrossInsert(db.get(), i, i).ok());
  }

  uint64_t before_fsyncs = fsyncs();
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      Txn txn = db->Begin();
      std::vector<Value> row{0, static_cast<Value>(100 + i), 0};
      Status s = db->GetTable("a")->Update(txn, i, 0b010, row);
      if (s.ok()) s = db->GetTable("b")->Update(txn, i + 1000, 0b010, row);
      if (s.ok()) s = txn.Commit();
      if (s.ok()) ok.fetch_add(1);
    });
  }
  while (ready.load() != kThreads) std::this_thread::yield();
  go.store(true);
  for (auto& t : threads) t.join();
  ASSERT_EQ(ok.load(), kThreads);

  // A cross-table commit over 2 tables syncs each of its 3 logs at
  // most once; shared flushes can only lower that.
  uint64_t delta_fsyncs = fsyncs() - before_fsyncs;
  EXPECT_GT(delta_fsyncs, 0u);
  EXPECT_LE(delta_fsyncs, 3u * kThreads);

  // And the shared flushes really committed everyone, durably.
  db.reset();
  db = OpenDb(opts, /*create_tables=*/false);
  for (int i = 0; i < kThreads; ++i) {
    Txn txn = db->Begin();
    std::vector<Value> row;
    ASSERT_TRUE(db->GetTable("a")->Read(txn, i, 0b111, &row).ok());
    EXPECT_EQ(row[1], static_cast<Value>(100 + i));
    ASSERT_TRUE(db->GetTable("b")->Read(txn, i + 1000, 0b111, &row).ok());
    EXPECT_EQ(row[1], static_cast<Value>(100 + i));
    ASSERT_TRUE(txn.Commit().ok());
  }
}

// ---------------------------------------------------------------------------
// Log I/O faults: short writes keep their suffix, a failed fsync stops
// ---------------------------------------------------------------------------

TEST_F(GroupCommitTest, ShortWriteKeepsUnwrittenSuffixForNextSync) {
  std::filesystem::create_directories(dir_);
  const std::string path = dir_ + "/a.log";
  constexpr uint64_t kFirst = 64, kSecond = 16;
  // The file-size limit makes write() return short (then EFBIG) in a
  // child process, so the limit never touches the test runner.
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    struct ::rlimit lim;
    ::getrlimit(RLIMIT_FSIZE, &lim);
    struct ::rlimit low = lim;
    low.rlim_cur = 3001;  // mid-frame: frames are ~100 bytes
    if (::setrlimit(RLIMIT_FSIZE, &low) != 0) ::_exit(10);
    FramedLog log(&RedoLog::ValidatePayload);
    if (!log.Open(path, /*truncate=*/true).ok()) ::_exit(11);
    uint64_t lsn = 0;
    for (uint64_t i = 0; i < kFirst; ++i) lsn = log.Append(WidePayload(i), 1);
    Status s = log.SyncTo(lsn, /*fsync=*/false);
    if (!s.IsIOError()) ::_exit(12);
    if (log.written_lsn() >= lsn) ::_exit(13);
    // More appends while the suffix waits: they must land after it.
    for (uint64_t i = kFirst; i < kFirst + kSecond; ++i) {
      lsn = log.Append(WidePayload(i), 1);
    }
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) ::_exit(14);
    if (!log.SyncTo(lsn, /*fsync=*/true).ok()) ::_exit(15);
    if (log.synced_lsn() != kFirst + kSecond) ::_exit(16);
    log.Close();
    ::_exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  uint64_t expect = 1;
  RedoLog::ReplayStats stats;
  ASSERT_TRUE(RedoLog::Replay(
                  path,
                  [&](const LogRecord& rec, uint64_t lsn) {
                    EXPECT_EQ(lsn, expect);
                    EXPECT_EQ(rec.range_id, expect - 1);
                    ++expect;
                  },
                  &stats)
                  .ok());
  EXPECT_EQ(expect, kFirst + kSecond + 1);
  EXPECT_TRUE(stats.clean_end);
  RedoLog reopened;
  ASSERT_TRUE(reopened.Open(path, /*truncate=*/false).ok());
  EXPECT_EQ(reopened.last_lsn(), kFirst + kSecond);
}

TEST_F(GroupCommitTest, FailedFsyncStopsTheLog) {
  std::filesystem::create_directories(dir_);
  const std::string path = dir_ + "/fifo.log";
  // On a FIFO, write() succeeds (into the pipe the test drains) and
  // fsync() fails with EINVAL: a real failed fsync, no seam needed.
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  int reader = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);
  MetricsRegistry registry;
  FramedLogMetrics m;
  m.fsyncs = registry.GetCounter("fsyncs", "");
  m.fsync_failures = registry.GetCounter("fsync_failures", "");
  {
    FramedLog log(&RedoLog::ValidatePayload);
    log.set_metrics(m);
    ASSERT_TRUE(log.Open(path, /*truncate=*/true).ok());
    uint64_t lsn = log.Append(WidePayload(0), 1);
    ASSERT_TRUE(log.SyncTo(lsn, /*fsync=*/false).ok());
    EXPECT_EQ(log.written_lsn(), lsn);

    Status failed = log.SyncTo(lsn, /*fsync=*/true);
    ASSERT_TRUE(failed.IsIOError());
    EXPECT_EQ(log.synced_lsn(), 0u);
    // Fail-stop: every later sync returns the same error — already
    // written records, new ones, and fsyncs alike — without retrying.
    EXPECT_EQ(log.SyncTo(lsn, /*fsync=*/false).ToString(), failed.ToString());
    EXPECT_EQ(log.SyncTo(0, /*fsync=*/true).ToString(), failed.ToString());
    uint64_t next = log.Append(WidePayload(1), 1);
    EXPECT_EQ(log.SyncTo(next, /*fsync=*/true).ToString(), failed.ToString());
    EXPECT_EQ(registry.Snapshot().CounterValue("fsyncs"), 1u);
    EXPECT_EQ(registry.Snapshot().CounterValue("fsync_failures"), 1u);
  }
  ::close(reader);
}

// ---------------------------------------------------------------------------
// Checkpoint integration: quiesce + commit-log truncation
// ---------------------------------------------------------------------------

TEST_F(GroupCommitTest, CheckpointTruncatesCoveredCommitLogPrefix) {
  auto db = OpenDb(DurabilityOptions{});
  for (Value k = 0; k < 4; ++k) {
    ASSERT_TRUE(CrossInsert(db.get(), k, k).ok());
  }
  EXPECT_EQ(CommitLogRecords(db.get()), 4u);
  uint64_t lsn_before = db->commit_log()->last_lsn();

  // The checkpoint covers every participant payload, so all four
  // records are dead weight and the covered prefix is dropped.
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_EQ(CommitLogRecords(db.get()), 0u);
  EXPECT_EQ(db->commit_log()->last_lsn(), lsn_before);  // LSNs stable

  // New cross-table commits append afresh and replay on restart.
  ASSERT_TRUE(CrossInsert(db.get(), 10, 1).ok());
  EXPECT_EQ(CommitLogRecords(db.get()), 1u);
  db.reset();

  auto db2 = OpenDb(DurabilityOptions{}, /*create_tables=*/false);
  for (Value k = 0; k < 4; ++k) {
    EXPECT_TRUE(Visible(db2.get(), "a", k));
    EXPECT_TRUE(Visible(db2.get(), "b", k + 1000));
  }
  EXPECT_TRUE(Visible(db2.get(), "a", 10));
  EXPECT_TRUE(Visible(db2.get(), "b", 1010));
}

TEST_F(GroupCommitTest, CheckpointDoesNotOrphanPostQuiesceCommits) {
  // Commits racing a checkpoint keep their commit-log record until
  // the NEXT checkpoint covers them; a restart right after the first
  // checkpoint must see them on every participant.
  auto db = OpenDb(DurabilityOptions{});
  ASSERT_TRUE(CrossInsert(db.get(), 1, 11).ok());

  std::atomic<bool> stop{false};
  std::atomic<Value> next_key{10};
  std::thread committer([&] {
    while (!stop.load()) {
      Value k = next_key.fetch_add(1);
      (void)CrossInsert(db.get(), k, k);
    }
  });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  stop.store(true);
  committer.join();
  Value last = next_key.load();
  db.reset();

  auto db2 = OpenDb(DurabilityOptions{}, /*create_tables=*/false);
  EXPECT_TRUE(Visible(db2.get(), "a", 1));
  // Every committed cross-table insert is visible on BOTH tables or
  // NEITHER — never split.
  for (Value k = 10; k < last; ++k) {
    EXPECT_EQ(Visible(db2.get(), "a", k), Visible(db2.get(), "b", k + 1000))
        << "split transaction at key " << k;
  }
}

}  // namespace
}  // namespace lstore
