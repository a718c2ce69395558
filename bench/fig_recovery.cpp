// Recovery-path benchmark: checkpoint write throughput and restart
// time as a function of the redo-log length.
//
// Section 5.1.3 argues that read-only base pages + append-only tail
// pages make redo-only logging sufficient; the flip side is that
// restart cost is the cost of replaying the log tail beyond the last
// checkpoint. This driver quantifies both halves so future PRs can
// track the recovery path:
//   (a) full-table checkpoint throughput (rows/s, bytes written),
//   (b) Database::Open latency vs number of redo records to replay,
//       with and without a preceding checkpoint + log truncation.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/database.h"
#include "core/query.h"

namespace lstore {
namespace bench {
namespace {

constexpr uint32_t kColumns = 5;  // key + 4 data columns

std::unique_ptr<Database> OpenDb(const std::string& dir) {
  std::unique_ptr<Database> db;
  Must(Database::Open(dir, &db), "open database");
  return db;
}

void Load(Database* db, Table* t, uint64_t rows) {
  for (uint64_t k = 0; k < rows;) {
    Txn txn = db->Begin();
    for (uint64_t i = 0; i < 1000 && k < rows; ++i, ++k) {
      std::vector<Value> row(kColumns, k);
      (void)t->Insert(txn, row);
    }
    (void)txn.Commit();
  }
}

void Update(Database* db, Table* t, uint64_t count, uint64_t rows,
            uint64_t seed) {
  Random rng(seed);
  for (uint64_t done = 0; done < count;) {
    Txn txn = db->Begin();
    for (uint64_t i = 0; i < 100 && done < count; ++i, ++done) {
      std::vector<Value> row(kColumns, 0);
      row[1] = done;
      (void)t->Update(txn, rng.Uniform(rows), 0b00010, row);
    }
    (void)txn.Commit();
  }
}

void Run(const BenchArgs& args) {
  PrintHeader(
      args, "fig_recovery: checkpoint throughput + restart time vs log length",
      "restart cost grows with the redo-log tail; checkpoint + "
      "truncation bounds it at a sequential write");

  const uint64_t rows = std::min<uint64_t>(args.rows, 200000);
  const std::string dir = ScratchDir("fig_recovery");

  // --- (a) checkpoint write throughput --------------------------------
  {
    auto db = OpenDb(dir);
    TableConfig cfg;
    (void)db->CreateTable("t", Schema(kColumns), cfg);
    Table* t = db->GetTable("t");
    Load(db.get(), t, rows);
    t->FlushAll();
    double t0 = WallMs();
    Status s = db->Checkpoint();
    double ckpt_ms = WallMs() - t0;
    uint64_t ckpt_bytes = DirBytes(dir, ".ckpt");
    std::printf("checkpoint_write | rows=%llu ok=%d ms=%.1f rows_per_s=%.0f "
                "bytes=%llu\n",
                (unsigned long long)rows, s.ok() ? 1 : 0, ckpt_ms,
                ckpt_ms > 0 ? rows / (ckpt_ms / 1000.0) : 0.0,
                (unsigned long long)ckpt_bytes);
    EmitMetric("fig_recovery", "checkpoint_rows_s",
               ckpt_ms > 0 ? rows / (ckpt_ms / 1000.0) : 0.0, "rows/s");
  }

  // --- (b) restart time vs redo-log length ----------------------------
  std::printf("restart         | %12s %12s %10s %12s\n", "log_records",
              "log_bytes", "open_ms", "rows_per_s");
  for (uint64_t updates : {uint64_t{0}, rows / 4, rows, rows * 4}) {
    {
      auto db = OpenDb(dir);
      Table* t = db->GetTable("t");
      // Reset the log to (near) empty, then grow exactly the tail we
      // want to measure.
      (void)db->Checkpoint();
      Update(db.get(), t, updates, rows, args.seed);
      // Crash: drop all in-memory state with the log un-truncated.
    }
    uint64_t log_bytes = DirBytes(dir, ".log");
    double t0 = WallMs();
    auto db = OpenDb(dir);
    double open_ms = WallMs() - t0;
    std::printf("restart         | %12llu %12llu %10.1f %12.0f\n",
                (unsigned long long)updates, (unsigned long long)log_bytes,
                open_ms, open_ms > 0 ? rows / (open_ms / 1000.0) : 0.0);
    EmitMetric("fig_recovery",
               "restart_ms_u" + std::to_string(updates), open_ms, "ms");
  }

  // --- (c) group commit: cross-table commit cost ----------------------
  // One commit-log fsync (plus one fsync per touched table log) is the
  // durability point of a cross-table transaction; concurrent
  // committers share those fsyncs through each log's group commit
  // (one flush covers every record appended before it), so
  // fsyncs-per-commit should FALL as committers are added.
  std::printf("group_commit    | %8s %12s %14s\n", "threads", "commits_s",
              "fsyncs_per_txn");
  for (uint32_t threads : {1u, 4u}) {
    std::filesystem::remove_all(dir);
    DurabilityOptions opts;
    opts.sync_commit = true;
    std::unique_ptr<Database> db;
    Must(Database::Open(dir, opts, &db), "open database (group commit)");
    (void)db->CreateTable("x", Schema(kColumns), TableConfig{});
    (void)db->CreateTable("y", Schema(kColumns), TableConfig{});
    const uint64_t per_thread =
        std::max<uint64_t>(std::min<uint64_t>(rows / 50, 500), 50);
    // Fsyncs come from the engine's own registry now (redo + commit
    // log), not an injected test counter.
    auto total_fsyncs = [&db] {
      MetricsSnapshot snap = db->Metrics();
      return snap.CounterValue("lstore_redo_fsyncs_total") +
             snap.CounterValue("lstore_commit_log_fsyncs_total");
    };
    uint64_t fsyncs_before = total_fsyncs();
    double t0 = WallMs();
    std::vector<std::thread> workers;
    for (uint32_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        Table* x = db->GetTable("x");
        Table* y = db->GetTable("y");
        for (uint64_t i = 0; i < per_thread; ++i) {
          Value k = t * per_thread + i;
          Txn txn = db->Begin();
          std::vector<Value> row(kColumns, k);
          (void)x->Insert(txn, row);
          (void)y->Insert(txn, row);
          (void)txn.Commit();
        }
      });
    }
    for (auto& w : workers) w.join();
    double secs = (WallMs() - t0) / 1000.0;
    uint64_t commits = threads * per_thread;
    double per_txn =
        static_cast<double>(total_fsyncs() - fsyncs_before) / commits;
    std::printf("group_commit    | %8u %12.0f %14.2f\n", threads,
                commits / secs, per_txn);
    EmitMetric("fig_recovery",
               "group_commit_txn_s_t" + std::to_string(threads),
               commits / secs, "txns/s");
    EmitMetric("fig_recovery",
               "group_commit_fsyncs_per_txn_t" + std::to_string(threads),
               per_txn, "fsyncs");
  }

  // --- (d) buffer-managed base storage: table >> pool budget ----------
  // A demand-paged table whose base footprint is several times the
  // pool budget must keep serving exact scans and point reads — just
  // with misses and evictions instead of residency. Budget 0 (no
  // pool) is the resident baseline.
  std::printf("buffer_pool     | %10s %12s %10s %10s %10s %10s %8s\n",
              "budget", "resident_B", "hits", "misses", "evicts",
              "scan_ms", "sum_ok");
  {
    uint64_t footprint = 0;
    uint64_t expect_sum = 0;
    for (uint64_t k = 0; k < rows; ++k) expect_sum += k;
    for (int phase = 0; phase < 3; ++phase) {
      std::filesystem::remove_all(dir);
      DurabilityOptions opts;
      // phase 0: unlimited-ish (resident; measures the footprint);
      // phase 1: budget = footprint / 4 (the paging case);
      // phase 2: budget = 0 (no pool at all — the old behavior).
      opts.buffer_pool_bytes =
          phase == 0 ? (1ull << 40) : (phase == 1 ? footprint / 4 : 0);
      std::unique_ptr<Database> db;
      Must(Database::Open(dir, opts, &db), "open database (buffer pool)");
      (void)db->CreateTable("t", Schema(kColumns), TableConfig{});
      Table* t = db->GetTable("t");
      Load(db.get(), t, rows);
      t->FlushAll();
      if (phase == 0) footprint = db->buffer_stats().bytes_resident;

      BufferPoolStats before = db->buffer_stats();
      double t0 = WallMs();
      uint64_t sum = 0, nrows = 0;
      bool ok = true;
      for (int rep = 0; rep < 3; ++rep) {
        ok = ok && t->NewQuery().Sum(1, &sum, &nrows).ok() &&
             sum == expect_sum && nrows == rows;
      }
      // Point reads across the key space fault in individual ranges.
      Txn txn = db->Begin();
      for (uint64_t k = 0; k < rows; k += rows / 100 + 1) {
        std::vector<Value> row;
        ok = ok && t->Read(txn, k, 0b10, &row).ok() && row[1] == k;
      }
      (void)txn.Commit();
      double ms = WallMs() - t0;
      BufferPoolStats after = db->buffer_stats();

      std::printf("buffer_pool     | %10llu %12llu %10llu %10llu %10llu "
                  "%10.1f %8d\n",
                  (unsigned long long)opts.buffer_pool_bytes,
                  (unsigned long long)after.bytes_resident,
                  (unsigned long long)(after.hits - before.hits),
                  (unsigned long long)(after.misses - before.misses),
                  (unsigned long long)(after.evictions - before.evictions),
                  ms, ok ? 1 : 0);
      if (!ok) {
        std::fprintf(stderr, "buffer_pool phase %d: WRONG RESULTS\n", phase);
        std::exit(1);
      }
      const char* tag =
          phase == 0 ? "resident" : (phase == 1 ? "paged4x" : "nopool");
      uint64_t hits = after.hits - before.hits;
      uint64_t misses = after.misses - before.misses;
      EmitMetric("fig_recovery", std::string("buffer_scan_ms_") + tag, ms,
                 "ms");
      if (hits + misses > 0) {
        EmitMetric("fig_recovery", std::string("buffer_hit_rate_") + tag,
                   100.0 * hits / (hits + misses), "%");
      }
      EmitMetric("fig_recovery", std::string("buffer_evictions_") + tag,
                 static_cast<double>(after.evictions - before.evictions),
                 "evictions");
    }
  }

  // --- (e) point-in-time recovery: restore time vs archive length -----
  // With archiving on, every checkpoint seals the truncated log prefix
  // instead of deleting it. Restore cost then has two regimes: a point
  // near the newest checkpoint replays a short stitched tail, while an
  // old point walks back to an older archived checkpoint and replays
  // a longer stretch of sealed segments.
  std::printf("pitr            | %10s %12s %12s %10s\n", "point", "cycles",
              "arc_bytes", "restore_ms");
  {
    std::filesystem::remove_all(dir);
    DurabilityOptions opts;
    opts.archive_enabled = true;
    std::unique_ptr<Database> db;
    Must(Database::Open(dir, opts, &db), "open database (archive)");
    (void)db->CreateTable("t", Schema(kColumns), TableConfig{});
    Table* t = db->GetTable("t");
    const uint64_t arc_rows = std::min<uint64_t>(rows, 50000);
    Load(db.get(), t, arc_rows);
    // Several checkpoint/truncation cycles, recording a restore point
    // per cycle (oldest = longest stitched replay).
    constexpr int kCycles = 4;
    std::vector<Timestamp> points;
    for (int c = 0; c < kCycles; ++c) {
      Update(db.get(), t, arc_rows / 4, arc_rows, args.seed + c);
      points.push_back(db->Now() - 1);
      (void)db->Checkpoint();
    }
    db.reset();
    uint64_t arc_bytes = DirBytes(dir + "/archive", "");
    struct Probe {
      const char* tag;
      Timestamp at;
    } probes[] = {{"oldest", points.front()}, {"newest", points.back()}};
    for (const Probe& p : probes) {
      double t0 = WallMs();
      std::unique_ptr<Database> rdb;
      Status rs = Database::RestoreToPoint(dir, RestorePoint::AtTime(p.at),
                                           &rdb);
      double ms = WallMs() - t0;
      if (!rs.ok()) {
        std::fprintf(stderr, "pitr restore failed: %s\n",
                     rs.ToString().c_str());
        std::exit(1);
      }
      std::printf("pitr            | %10s %12d %12llu %10.1f\n", p.tag,
                  kCycles, (unsigned long long)arc_bytes, ms);
      EmitMetric("fig_recovery", std::string("pitr_restore_ms_") + p.tag, ms,
                 "ms");
    }
    EmitMetric("fig_recovery", "pitr_archive_bytes",
               static_cast<double>(arc_bytes), "bytes");
  }

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bench
}  // namespace lstore

int main(int argc, char** argv) {
  // Shared flag vocabulary (--rows/--seed); defaults preserve the
  // historical env-knob sizing for flag-less runs.
  lstore::bench::Run(lstore::bench::BenchArgs::ParseOrDie(argc, argv));
  return 0;
}
