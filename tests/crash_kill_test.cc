// Real-kill crash test: a forked child runs single- and cross-table
// inserts on a durable database (archive on, a thread checkpointing
// in a loop) and reports every acknowledged commit to the parent over
// a pipe. The parent SIGKILLs the child at a random moment, reopens
// the directory, and checks the oracle:
//   - every acknowledged insert of this and every earlier round is
//     present (on both tables for a cross-table one),
//   - no cross-table insert is split, acknowledged or not.
// Several kill/reopen rounds run on the same directory, with
// sync_commit off and on. A kill can land anywhere after the child's
// first acknowledgement: mid-fsync, mid-checkpoint, mid-archive seal.

#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/table.h"

namespace lstore {
namespace {

constexpr int kWorkers = 2;
constexpr uint64_t kPerWorker = 100000;  ///< key space per worker per round
constexpr uint64_t kPerRound = kWorkers * kPerWorker;

/// What insert `i` of a worker does: i % 3 picks single-table on "a",
/// single-table on "b", or one transaction inserting into both.
enum Kind : uint64_t { kSingleA = 0, kSingleB = 1, kCross = 2 };

uint64_t KeyOf(int round, int worker, uint64_t i) {
  return (round + 1) * kPerRound + worker * kPerWorker + i;
}

/// One acknowledgement on the pipe: 16 bytes, so each write is atomic.
struct Ack {
  uint64_t worker;
  uint64_t i;
};

/// The acknowledgements of one kill round.
struct Round {
  int round;
  std::vector<Ack> acks;
};

TableConfig SmallConfig() {
  TableConfig cfg;
  cfg.range_size = 64;
  cfg.insert_range_size = 64;
  cfg.tail_page_slots = 16;
  cfg.merge_threshold = 1u << 20;  // manual merges only
  cfg.enable_merge_thread = false;
  return cfg;
}

DurabilityOptions Options(bool sync) {
  DurabilityOptions opts;
  opts.sync_commit = sync;
  opts.archive_enabled = true;
  return opts;
}

/// Child body: never returns. Exit codes above 0 name the failed step
/// (a clean run is always ended by the parent's SIGKILL).
[[noreturn]] void RunChild(const std::string& dir, bool sync, int round,
                           int ack_fd) {
  std::unique_ptr<Database> db;
  if (!Database::Open(dir, Options(sync), &db).ok()) ::_exit(2);
  for (const char* name : {"a", "b"}) {
    if (db->GetTable(name) == nullptr &&
        !db->CreateTable(name, Schema(3), SmallConfig()).ok()) {
      ::_exit(3);
    }
  }
  Table* a = db->GetTable("a");
  Table* b = db->GetTable("b");
  std::thread checkpointer([&] {
    for (;;) {
      (void)db->Checkpoint();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWorker; ++i) {
        Value k = KeyOf(round, w, i);
        Txn txn = db->Begin();
        Status s = Status::OK();
        if (i % 3 != kSingleB) s = a->Insert(txn, {k, k, 0});
        if (s.ok() && i % 3 != kSingleA) s = b->Insert(txn, {k, k, 0});
        if (s.ok()) {
          s = txn.Commit();
        } else {
          txn.Abort();
        }
        if (!s.ok()) continue;
        Ack ack{static_cast<uint64_t>(w), i};
        if (::write(ack_fd, &ack, sizeof(ack)) != sizeof(ack)) ::_exit(4);
      }
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    });
  }
  for (auto& t : workers) t.join();
  checkpointer.join();
  ::_exit(5);
}

class CrashKillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps concurrent runs of this binary apart.
    dir_ = std::string(::testing::TempDir()) + "lstore_crash_kill_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Fork the child, let it run `run_ms` past its first ack, SIGKILL
  /// it, and return every ack it managed to send.
  std::vector<Ack> RunAndKill(bool sync, int round, int run_ms) {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    pid_t pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      RunChild(dir_, sync, round, fds[1]);
    }
    ::close(fds[1]);
    EXPECT_GT(pid, 0);

    std::vector<Ack> acks;
    std::string pending;
    auto drain = [&](int timeout_ms) {
      struct pollfd p{fds[0], POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) return true;
      char buf[4096];
      ssize_t n = ::read(fds[0], buf, sizeof(buf));
      if (n <= 0) return false;  // EOF: the child is gone
      pending.append(buf, static_cast<size_t>(n));
      size_t whole = pending.size() / sizeof(Ack) * sizeof(Ack);
      for (size_t off = 0; off < whole; off += sizeof(Ack)) {
        Ack ack;
        std::memcpy(&ack, pending.data() + off, sizeof(ack));
        acks.push_back(ack);
      }
      pending.erase(0, whole);
      return true;
    };

    using Clock = std::chrono::steady_clock;
    // Open + recovery of a grown directory can take a while under
    // sanitizers; the kill timer starts at the first ack.
    auto give_up = Clock::now() + std::chrono::seconds(60);
    bool alive = true;
    while (alive && acks.empty() && Clock::now() < give_up) alive = drain(10);
    auto kill_at = Clock::now() + std::chrono::milliseconds(run_ms);
    while (alive && Clock::now() < kill_at) alive = drain(1);
    ::kill(pid, SIGKILL);
    while (drain(1000)) {
    }
    ::close(fds[0]);
    int wstatus = 0;
    EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
    EXPECT_TRUE(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL)
        << "child exited on its own, status " << wstatus;
    EXPECT_FALSE(acks.empty()) << "child acknowledged nothing";
    return acks;
  }

  static bool Visible(Database* db, const char* table, Value key) {
    Txn txn = db->Begin();
    std::vector<Value> row;
    Status s = db->GetTable(table)->Read(txn, key, 0b111, &row);
    (void)txn.Commit();
    return s.ok() && row[1] == key;
  }

  /// Reopen after a kill and check the oracle for every round so far:
  /// later rounds' checkpoints and log truncations must not lose what
  /// an earlier round acknowledged.
  void Verify(bool sync, const std::vector<Round>& rounds) {
    std::unique_ptr<Database> db;
    Status s = Database::Open(dir_, Options(sync), &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_NE(db->GetTable("a"), nullptr);
    ASSERT_NE(db->GetTable("b"), nullptr);
    for (const Round& r : rounds) {
      std::map<uint64_t, uint64_t> max_acked;  // worker -> highest acked i
      for (const Ack& ack : r.acks) {
        Value k = KeyOf(r.round, static_cast<int>(ack.worker), ack.i);
        if (ack.i % 3 != kSingleB) {
          EXPECT_TRUE(Visible(db.get(), "a", k)) << "acked key lost: a/" << k;
        }
        if (ack.i % 3 != kSingleA) {
          EXPECT_TRUE(Visible(db.get(), "b", k)) << "acked key lost: b/" << k;
        }
        max_acked[ack.worker] = std::max(max_acked[ack.worker], ack.i);
      }
      // Unacknowledged cross-table inserts (each worker has at most one
      // in flight past its last ack) are all-or-nothing too.
      for (int w = 0; w < kWorkers; ++w) {
        uint64_t hi = max_acked.count(w) != 0 ? max_acked[w] + 3 : 3;
        for (uint64_t i = kCross; i <= hi && i < kPerWorker; i += 3) {
          Value k = KeyOf(r.round, w, i);
          EXPECT_EQ(Visible(db.get(), "a", k), Visible(db.get(), "b", k))
              << "split cross-table insert, key " << k;
        }
      }
    }
  }

  std::string dir_;
};

TEST_F(CrashKillTest, AcknowledgedCommitsSurviveSigkill) {
  std::random_device rd;
  const uint32_t seed = rd();
  SCOPED_TRACE("seed " + std::to_string(seed));
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> run_ms(1, 120);
  std::vector<Round> rounds;
  for (bool sync : {false, true}) {
    for (int r = 0; r < 3; ++r) {
      const int round = static_cast<int>(rounds.size());
      SCOPED_TRACE("round " + std::to_string(round) +
                   (sync ? " sync_commit" : " no sync"));
      rounds.push_back({round, RunAndKill(sync, round, run_ms(rng))});
      Verify(sync, rounds);
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace lstore
