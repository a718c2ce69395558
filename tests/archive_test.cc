// Log archiving + point-in-time recovery (src/archive/).
//
// The heart of the suite is an oracle schedule: a mixed single- and
// cross-table workload that records, after EVERY commit, the point's
// timestamp and the full expected state of both tables. Each recorded
// point is then restored with Database::RestoreToPoint and compared
// exactly — across multiple checkpoint/truncation cycles, merges, and
// crash-shaped archive states. Fault injection covers torn archive
// segments (clean Corruption, never silent loss), stale seal temps,
// crash-between-seal-and-truncate overlaps, and retention eviction
// (points behind the floor fail cleanly; everything at or after the
// floor stays exactly restorable).

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "archive/archive_manager.h"
#include "checkpoint/checkpoint_manager.h"
#include "core/database.h"
#include "core/table.h"
#include "log/commit_log.h"
#include "log/framed_log.h"
#include "log/redo_log.h"

namespace lstore {
namespace {

namespace fs = std::filesystem;

using TableState = std::map<Value, std::vector<Value>>;

class ArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "lstore_arc_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    fs::remove_all(dir_ + "_crash");
  }

  static TableConfig SmallConfig() {
    TableConfig cfg;
    cfg.range_size = 32;
    cfg.insert_range_size = 32;
    cfg.tail_page_slots = 8;
    cfg.merge_threshold = 1u << 20;  // manual merges only
    cfg.enable_merge_thread = false;
    return cfg;
  }

  static DurabilityOptions ArchiveOpts() {
    DurabilityOptions opts;
    opts.archive_enabled = true;
    return opts;
  }

  static TableState Snapshot(Table* t, const std::vector<Value>& keys,
                             Timestamp as_of) {
    TableState s;
    ColumnMask all = (1u << t->schema().num_columns()) - 1;
    for (Value k : keys) {
      std::vector<Value> row;
      if (t->ReadAsOf(k, as_of, all, &row).ok()) s[k] = row;
    }
    return s;
  }

  struct OraclePoint {
    Timestamp t = 0;          ///< restore point (inclusive commit time)
    uint64_t commit_lsn = 0;  ///< commit-log LSN when the op was cross-table
    TableState a, b;
  };

  struct Oracle {
    std::vector<OraclePoint> points;
    std::vector<Value> keys_a, keys_b;
  };

  /// Run `nops` mixed operations against tables A (k,v1,v2) and
  /// B (k,v), checkpointing every `ckpt_every` ops, recording an
  /// oracle point after every commit. Keys 100..104 / 200..204 are the
  /// cross-table pool (each cross txn writes the SAME value to
  /// A.v2 and B.v of a paired key — a split transaction breaks the
  /// pairing). Appends to `oracle` so the schedule can resume after a
  /// simulated crash.
  void RunSchedule(Database* db, Oracle* oracle, int nops, int ckpt_every,
                   uint32_t seed) {
    Table* a = db->GetTable("A");
    Table* b = db->GetTable("B");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    std::mt19937 rng(seed);
    if (oracle->keys_a.empty()) {
      for (Value j = 0; j < 5; ++j) {
        Txn txn = db->Begin();
        ASSERT_TRUE(a->Insert(txn, {100 + j, 0, 0}).ok());
        ASSERT_TRUE(b->Insert(txn, {200 + j, 0}).ok());
        ASSERT_TRUE(txn.Commit().ok());
        oracle->keys_a.push_back(100 + j);
        oracle->keys_b.push_back(200 + j);
        Record(db, oracle, 0);
      }
    }
    Value next_a = 1000 + static_cast<Value>(oracle->points.size());
    Value next_b = 2000 + static_cast<Value>(oracle->points.size());
    for (int i = 0; i < nops; ++i) {
      int op = static_cast<int>(rng() % 5);
      uint64_t cross_lsn = 0;
      Txn txn = db->Begin();
      switch (op) {
        case 0: {  // insert into A
          ASSERT_TRUE(a->Insert(txn, {next_a, rng() % 97, 0}).ok());
          oracle->keys_a.push_back(next_a++);
          break;
        }
        case 1: {  // update a random A key's v1
          Value k = oracle->keys_a[rng() % oracle->keys_a.size()];
          (void)a->Update(txn, k, 0b010, {0, rng() % 997, 0});
          break;
        }
        case 2: {  // delete a non-pool A key, if any exists
          if (oracle->keys_a.size() > 5) {
            Value k = oracle->keys_a[5 + rng() % (oracle->keys_a.size() - 5)];
            (void)a->Delete(txn, k);
          } else {
            Value k = oracle->keys_a[rng() % oracle->keys_a.size()];
            (void)a->Update(txn, k, 0b010, {0, rng() % 997, 0});
          }
          break;
        }
        case 3: {  // B traffic — pool keys stay exclusive to cross txns
          if (oracle->keys_b.size() < 8 || rng() % 3 == 0) {
            ASSERT_TRUE(b->Insert(txn, {next_b, rng() % 97}).ok());
            oracle->keys_b.push_back(next_b++);
          } else {
            Value k =
                oracle->keys_b[5 + rng() % (oracle->keys_b.size() - 5)];
            (void)b->Update(txn, k, 0b10, {0, rng() % 997});
          }
          break;
        }
        case 4: {  // cross-table: same value to a paired key of A and B
          Value j = rng() % 5;
          Value v = 10000 + static_cast<Value>(oracle->points.size());
          ASSERT_TRUE(a->Update(txn, 100 + j, 0b100, {0, 0, v}).ok());
          ASSERT_TRUE(b->Update(txn, 200 + j, 0b10, {0, v}).ok());
          break;
        }
      }
      Status cs = txn.Commit();
      ASSERT_TRUE(cs.ok()) << cs.ToString();
      if (op == 4 && db->commit_log() != nullptr) {
        cross_lsn = db->commit_log()->last_lsn();
      }
      Record(db, oracle, cross_lsn);
      if (i % 9 == 5) {
        a->FlushAll();  // merges: base segments + lineage move
        b->FlushAll();
      }
      if (ckpt_every > 0 && (i + 1) % ckpt_every == 0) {
        ASSERT_TRUE(db->Checkpoint().ok());
      }
    }
  }

  void Record(Database* db, Oracle* oracle, uint64_t cross_lsn) {
    OraclePoint p;
    // db->Now() = clock + 1 (covers every commit); the point itself is
    // the newest commit time, so restore-inclusive matches the
    // snapshot read at as_of = t + 1.
    p.t = db->Now() - 1;
    p.commit_lsn = cross_lsn;
    p.a = Snapshot(db->GetTable("A"), oracle->keys_a, p.t + 1);
    p.b = Snapshot(db->GetTable("B"), oracle->keys_b, p.t + 1);
    oracle->points.push_back(std::move(p));
  }

  void OpenWithTables(const DurabilityOptions& opts,
                      std::unique_ptr<Database>* db) {
    ASSERT_TRUE(Database::Open(dir_, opts, db).ok());
    if ((*db)->GetTable("A") == nullptr) {
      ASSERT_TRUE(
          (*db)->CreateTable("A", Schema({"k", "v1", "v2"}), SmallConfig())
              .ok());
      ASSERT_TRUE(
          (*db)->CreateTable("B", Schema({"k", "v"}), SmallConfig()).ok());
    }
  }

  /// Restore `point` and compare both tables exactly; also check the
  /// cross-table pairing invariant.
  void VerifyPoint(const OraclePoint& p, const Oracle& oracle) {
    std::unique_ptr<Database> rdb;
    Status s = Database::RestoreToPoint(dir_, RestorePoint::AtTime(p.t), &rdb);
    ASSERT_TRUE(s.ok()) << "restore to " << p.t << ": " << s.ToString();
    TableState ra =
        Snapshot(rdb->GetTable("A"), oracle.keys_a, p.t + 1);
    TableState rb =
        Snapshot(rdb->GetTable("B"), oracle.keys_b, p.t + 1);
    EXPECT_EQ(ra, p.a) << "table A diverged at point " << p.t;
    EXPECT_EQ(rb, p.b) << "table B diverged at point " << p.t;
    // No split transactions: every cross-table write pairs A.v2 with
    // B.v — and the restored database's own Now() must already sit at
    // the point (default reads need no explicit as_of).
    TableState na = Snapshot(rdb->GetTable("A"), oracle.keys_a,
                             rdb->GetTable("A")->Now());
    for (Value j = 0; j < 5; ++j) {
      auto ia = na.find(100 + j);
      auto ib = rb.find(200 + j);
      if (ia != na.end() && ib != rb.end()) {
        EXPECT_EQ(ia->second[2], ib->second[1])
            << "split cross-table txn at point " << p.t << " pair " << j;
      }
    }
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// The oracle: restore to EVERY recorded commit point
// ---------------------------------------------------------------------------

TEST_F(ArchiveTest, RestoreToEveryCommitPointMatchesOracle) {
  Oracle oracle;
  {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
    RunSchedule(db.get(), &oracle, 60, 12, /*seed=*/7);
    // >= 2 checkpoint/truncation cycles with sealed segments.
    ASSERT_GE(ArchiveManager::ListManifests(dir_).size(), 2u);
    ASSERT_FALSE(ArchiveManager::ListRedoSegments(dir_, "A").empty());
  }
  ASSERT_GT(oracle.points.size(), 60u);
  for (const OraclePoint& p : oracle.points) VerifyPoint(p, oracle);
}

TEST_F(ArchiveTest, RestoreSurvivesReopenBetweenCycles) {
  // Same oracle discipline, but the database is closed and reopened
  // (full restart recovery) between schedule segments — archived
  // state must compose across process lifetimes.
  Oracle oracle;
  for (uint32_t round = 0; round < 3; ++round) {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
    RunSchedule(db.get(), &oracle, 18, 8, /*seed=*/100 + round);
  }
  for (size_t i = 0; i < oracle.points.size(); i += 3) {
    VerifyPoint(oracle.points[i], oracle);
  }
  VerifyPoint(oracle.points.back(), oracle);
}

TEST_F(ArchiveTest, RestoreByCommitLsn) {
  Oracle oracle;
  {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
    RunSchedule(db.get(), &oracle, 40, 10, /*seed=*/21);
  }
  size_t checked = 0;
  for (const OraclePoint& p : oracle.points) {
    if (p.commit_lsn == 0) continue;
    std::unique_ptr<Database> rdb;
    ASSERT_TRUE(Database::RestoreToPoint(
                    dir_, RestorePoint::AtCommitLsn(p.commit_lsn), &rdb)
                    .ok());
    EXPECT_EQ(Snapshot(rdb->GetTable("A"), oracle.keys_a, p.t + 1), p.a);
    EXPECT_EQ(Snapshot(rdb->GetTable("B"), oracle.keys_b, p.t + 1), p.b);
    ++checked;
  }
  EXPECT_GT(checked, 3u);

  std::unique_ptr<Database> rdb;
  EXPECT_TRUE(Database::RestoreToPoint(dir_, RestorePoint::AtCommitLsn(1u << 20),
                                       &rdb)
                  .IsNotFound());
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST_F(ArchiveTest, TornArchiveSegmentRejectedNeverSilentlyWrong) {
  Oracle oracle;
  {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
    RunSchedule(db.get(), &oracle, 40, 10, /*seed=*/3);
  }
  auto segs = ArchiveManager::ListRedoSegments(dir_, "A");
  ASSERT_FALSE(segs.empty());
  const std::string victim = segs.front().path;
  std::string original;
  {
    std::ifstream in(victim, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(original.size(), 16u);
  const OraclePoint& early = oracle.points[2];

  std::mt19937 rng(11);
  for (int trial = 0; trial < 6; ++trial) {
    size_t cut = 1 + rng() % (original.size() - 1);
    ASSERT_EQ(::truncate(victim.c_str(), static_cast<off_t>(cut)), 0);
    std::unique_ptr<Database> rdb;
    Status s =
        Database::RestoreToPoint(dir_, RestorePoint::AtTime(early.t), &rdb);
    // A truncated segment must surface as a clean error — it must
    // never restore with records silently missing.
    EXPECT_TRUE(s.IsCorruption()) << "cut=" << cut << " -> " << s.ToString();
  }
  // Bit flip mid-file: frame checksum catches it.
  {
    std::string corrupt = original;
    corrupt[corrupt.size() / 2] ^= 0x40;
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }
  {
    std::unique_ptr<Database> rdb;
    EXPECT_TRUE(
        Database::RestoreToPoint(dir_, RestorePoint::AtTime(early.t), &rdb)
            .IsCorruption());
  }
  // Restoring the original bytes heals the archive completely.
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(original.data(), static_cast<std::streamsize>(original.size()));
  }
  VerifyPoint(early, oracle);
  // The newest point never needed the victim segment: restorable even
  // while the old segment was torn (checked last so the heal above
  // does not mask it).
  VerifyPoint(oracle.points.back(), oracle);
}

TEST_F(ArchiveTest, StaleSealTempSweptAtOpen) {
  {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
  }
  std::string stale = ArchiveManager::ArchiveDirOf(dir_) + "/A.redo.1-9.arc.tmp";
  {
    std::ofstream out(stale, std::ios::binary);
    out << "torn seal";
  }
  {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
  }
  EXPECT_FALSE(fs::exists(stale));
}

TEST_F(ArchiveTest, CrashBetweenSealAndTruncateReplaysIdempotently) {
  // Simulate the crash window where archive segments (and the
  // manifest copy) are durable but the live logs were never
  // truncated: snapshot the directory BEFORE a checkpoint, take the
  // checkpoint on the live tree, then overlay only the archive
  // artifacts onto the snapshot. The snapshot now holds sealed
  // prefixes AND full live logs — the overlap crash state.
  const std::string crash_dir = dir_ + "_crash";
  Oracle oracle;
  for (uint32_t seed = 40; seed < 43; ++seed) {
    fs::remove_all(dir_);
    fs::remove_all(crash_dir);
    oracle = Oracle{};
    {
      std::unique_ptr<Database> db;
      OpenWithTables(ArchiveOpts(), &db);
      std::mt19937 rng(seed);
      RunSchedule(db.get(), &oracle, 10 + static_cast<int>(rng() % 12),
                  /*ckpt_every=*/9, seed);
      db->GetTable("A")->FlushAll();
      // Pre-checkpoint snapshot = the state a crash rolls back to.
      fs::copy(dir_, crash_dir, fs::copy_options::recursive);
      ASSERT_TRUE(db->Checkpoint().ok());
      // Overlay a random subset of the sealed artifacts (a crash can
      // land between any two seals).
      fs::create_directories(crash_dir + "/archive");
      for (const auto& entry :
           fs::directory_iterator(ArchiveManager::ArchiveDirOf(dir_))) {
        if (rng() % 2 == 0) continue;
        fs::copy(entry.path(),
                 crash_dir + "/archive/" + entry.path().filename().string(),
                 fs::copy_options::overwrite_existing);
      }
    }
    size_t pre_crash_points = oracle.points.size();
    {
      // Reopen the crash image: recovery must converge, later
      // checkpoints must re-seal (superseding the overlap), and the
      // whole pre-crash history stays restorable.
      std::unique_ptr<Database> db;
      ASSERT_TRUE(Database::Open(crash_dir, ArchiveOpts(), &db).ok());
      Table* a = db->GetTable("A");
      ASSERT_NE(a, nullptr);
      EXPECT_EQ(Snapshot(a, oracle.keys_a,
                         oracle.points.back().t + 1),
                oracle.points.back().a);
      Oracle more = oracle;
      RunSchedule(db.get(), &more, 12, 6, seed + 1000);
      oracle = std::move(more);
    }
    std::swap(dir_, const_cast<std::string&>(crash_dir));
    for (size_t i = 0; i < pre_crash_points; i += 2) {
      VerifyPoint(oracle.points[i], oracle);
    }
    VerifyPoint(oracle.points.back(), oracle);
    std::swap(dir_, const_cast<std::string&>(crash_dir));
  }
}

// ---------------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------------

TEST_F(ArchiveTest, RetentionEvictsOldestEpochsOnly) {
  DurabilityOptions opts = ArchiveOpts();
  opts.archive_max_segments = 6;
  Oracle oracle;
  {
    std::unique_ptr<Database> db;
    OpenWithTables(opts, &db);
    RunSchedule(db.get(), &oracle, 80, 8, /*seed=*/5);
  }
  // The policy held: segments were evicted down toward the cap.
  auto count_segments = [&] {
    return ArchiveManager::ListRedoSegments(dir_, "A").size() +
           ArchiveManager::ListRedoSegments(dir_, "B").size() +
           ArchiveManager::ListCommitSegments(dir_).size();
  };
  EXPECT_LE(count_segments(), 6u + 3u);  // at most one fresh cycle over

  // The floor: the oldest retained archived manifest. Everything at or
  // after its capture time restores exactly; sufficiently old points
  // are gone — with a clean NotFound, never wrong data.
  auto manifests = ArchiveManager::ListManifests(dir_);
  ASSERT_FALSE(manifests.empty());
  Manifest floor;
  bool exists = false;
  ASSERT_TRUE(ReadManifestFile(manifests.front().path, &floor, &exists).ok());
  ASSERT_TRUE(exists);
  ASSERT_GT(floor.capture_time, 0u);

  size_t restored = 0, evicted = 0;
  for (const OraclePoint& p : oracle.points) {
    std::unique_ptr<Database> rdb;
    Status s = Database::RestoreToPoint(dir_, RestorePoint::AtTime(p.t), &rdb);
    if (p.t + 1 >= floor.capture_time) {
      ASSERT_TRUE(s.ok()) << "point " << p.t << " at/after floor "
                          << floor.capture_time << ": " << s.ToString();
      EXPECT_EQ(Snapshot(rdb->GetTable("A"), oracle.keys_a, p.t + 1), p.a);
      EXPECT_EQ(Snapshot(rdb->GetTable("B"), oracle.keys_b, p.t + 1), p.b);
      ++restored;
    } else if (s.ok()) {
      // An older point may still be coincidentally coverable; if the
      // restore claims success it must be exact.
      EXPECT_EQ(Snapshot(rdb->GetTable("A"), oracle.keys_a, p.t + 1), p.a);
      EXPECT_EQ(Snapshot(rdb->GetTable("B"), oracle.keys_b, p.t + 1), p.b);
    } else {
      EXPECT_TRUE(s.IsNotFound()) << s.ToString();
      ++evicted;
    }
  }
  EXPECT_GT(restored, 0u);
  EXPECT_GT(evicted, 0u);
}

TEST_F(ArchiveTest, ArchivingOffKeepsDeleteBehavior) {
  {
    std::unique_ptr<Database> db;
    OpenWithTables(DurabilityOptions{}, &db);
    Oracle oracle;
    RunSchedule(db.get(), &oracle, 20, 10, /*seed=*/1);
  }
  EXPECT_FALSE(fs::exists(ArchiveManager::ArchiveDirOf(dir_)));
  std::unique_ptr<Database> rdb;
  EXPECT_TRUE(
      Database::RestoreToPoint(dir_, RestorePoint::AtTime(5), &rdb)
          .IsNotFound());
}

// ---------------------------------------------------------------------------
// Framed-core seal mechanics
// ---------------------------------------------------------------------------

TEST_F(ArchiveTest, SealSinkFailureLeavesLogIntact) {
  fs::create_directories(dir_);
  std::string path = dir_ + "/t.log";
  RedoLog log;
  ASSERT_TRUE(log.Open(path, true).ok());
  for (int i = 0; i < 8; ++i) {
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    rec.txn_id = kTxnIdTag | (10 + i);
    rec.commit_time = 10 + i;
    log.Append(rec);
  }
  ASSERT_TRUE(log.SyncTo(log.last_lsn(), false).ok());

  // A failing sink aborts the truncation before anything is dropped.
  Status s = log.TruncateTo(5, [](uint64_t, uint64_t, std::string_view) {
    return Status::IOError("archive disk full");
  });
  EXPECT_FALSE(s.ok());
  size_t seen = 0;
  ASSERT_TRUE(
      RedoLog::Replay(path, [&](const LogRecord&) { ++seen; }).ok());
  EXPECT_EQ(seen, 8u);

  // A successful sink receives a self-describing framed prefix: the
  // sealed bytes replay standalone with the original LSNs.
  std::string sealed;
  uint64_t lo = 0, hi = 0;
  ASSERT_TRUE(log.TruncateTo(5,
                             [&](uint64_t l, uint64_t h,
                                 std::string_view bytes) {
                               lo = l;
                               hi = h;
                               sealed.assign(bytes.data(), bytes.size());
                               return Status::OK();
                             })
                  .ok());
  EXPECT_EQ(lo, 1u);
  EXPECT_EQ(hi, 5u);
  std::string seg_path = dir_ + "/sealed.arc";
  {
    std::ofstream out(seg_path, std::ios::binary);
    out.write(sealed.data(), static_cast<std::streamsize>(sealed.size()));
  }
  std::vector<uint64_t> lsns;
  RedoLog::ReplayStats stats;
  ASSERT_TRUE(RedoLog::Replay(
                  seg_path,
                  [&](const LogRecord&, uint64_t lsn) { lsns.push_back(lsn); },
                  &stats)
                  .ok());
  EXPECT_EQ(lsns, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(stats.clean_end);
  EXPECT_EQ(stats.last_lsn, 5u);
  // And the live log kept exactly the suffix.
  std::vector<uint64_t> live;
  ASSERT_TRUE(RedoLog::Replay(
                  path,
                  [&](const LogRecord&, uint64_t lsn) { live.push_back(lsn); },
                  nullptr)
                  .ok());
  EXPECT_EQ(live, (std::vector<uint64_t>{6, 7, 8}));
}

TEST_F(ArchiveTest, ManifestCarriesArchiveWatermarks) {
  std::unique_ptr<Database> db;
  OpenWithTables(ArchiveOpts(), &db);
  Oracle oracle;
  RunSchedule(db.get(), &oracle, 15, 0, /*seed=*/2);
  ASSERT_TRUE(db->Checkpoint().ok());
  Manifest m;
  bool exists = false;
  ASSERT_TRUE(ReadManifest(dir_, &m, &exists).ok());
  ASSERT_TRUE(exists);
  EXPECT_GT(m.capture_time, 0u);
  // Round-trips through the archived copy too.
  auto archived = ArchiveManager::ListManifests(dir_);
  ASSERT_EQ(archived.size(), 1u);
  Manifest am;
  ASSERT_TRUE(ReadManifestFile(archived.front().path, &am, &exists).ok());
  EXPECT_EQ(am.capture_time, m.capture_time);
  EXPECT_EQ(am.commit_log_mark, m.commit_log_mark);
  EXPECT_EQ(am.checkpoint_id, m.checkpoint_id);
}

}  // namespace
}  // namespace lstore
