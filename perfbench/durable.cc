// durable: an on-disk database with no buffer budget. Every commit's
// redo record is written to the OS (fflush), never fsynced. Two
// writer threads, each on its own key partition, run whole rounds of
// 1000 ops (85% updates, 5% inserts of fresh keys, 10% point reads of
// their own keys); a checkpointer thread calls Database::Checkpoint()
// every 500k ops. After the window: a final checkpoint (disk figures),
// a fixed tail of 10 more rounds per writer with no checkpoint, close,
// and a timed reopen that replays exactly that tail.
//
// Checks: each writer keeps the last value it had acknowledged for
// every key it owns; every in-window read and, after the reopen, every
// key must read exactly that value, and the row count must equal the
// preload plus the acknowledged inserts.

#include <cstdio>
#include <filesystem>

#include "core/query.h"
#include "harness.h"

namespace lstore {
namespace perfbench {
namespace {

constexpr uint64_t kPreload = 200000;  // even: keys split 2i + writer
constexpr uint32_t kWriters = 2;
constexpr uint32_t kRoundOps = 1000;
constexpr uint64_t kCheckpointEvery = 500000;
constexpr uint32_t kTailRounds = 10;
constexpr int kSetups = 3;
constexpr int kScans = 5;

/// One writer's key partition (key = 2 * i + id) and the model of what
/// it has acknowledged: vals[i] is the value column of key 2 * i + id.
struct Writer {
  uint32_t id = 0;
  Random rng{1};
  std::vector<Value> vals;
  uint64_t inserts = 0;

  Value Key(uint64_t i) const { return 2 * i + id; }
};

/// One round of kRoundOps ops into `out`; `ctx` is null outside a
/// window.
void RunRound(Database* db, Table* t, Writer& w, ThreadStats& out,
              WorkerCtx* ctx, bool measure) {
  const bool timed = ctx != nullptr && ctx->traced && measure;
  const ColumnMask all = t->schema().AllColumns();
  std::vector<Value> row;
  for (uint32_t n = 0; n < kRoundOps; ++n) {
    const uint64_t dice = w.rng.Uniform(100);
    uint64_t trace_id = ctx != nullptr ? ctx->MaybeTrace(measure) : 0;
    TraceContext::Scope scope(trace_id);
    uint64_t t0 = NowNs();
    if (dice < 90) {
      // Update (85) or insert (5): a write transaction.
      const bool insert = dice >= 85;
      uint64_t i = insert ? w.vals.size() : w.rng.Uniform(w.vals.size());
      Value key = w.Key(i);
      Value v = insert ? Formula(key, kValueCol) : (w.rng.Next() >> 16);
      MakeRow(key, v, &row);
      Txn txn = db->Begin();
      uint64_t u0 = timed ? NowNs() : 0;
      Status s = insert ? t->Insert(txn, row)
                        : t->Update(txn, key, kPairMask, row);
      if (timed && !insert) out.table_update.Record(NowNs() - u0);
      if (s.ok()) {
        uint64_t c0 = timed ? NowNs() : 0;
        s = txn.Commit();
        if (timed) out.commit.Record(NowNs() - c0);
      }
      if (measure) ++out.commit_attempts;
      if (s.ok()) {
        if (measure) ++out.commits;
        if (insert) {
          w.vals.push_back(v);
          ++w.inserts;
        } else {
          w.vals[i] = v;
        }
      }
      out.Account(kWrite, s, t0, measure);
    } else {
      uint64_t i = w.rng.Uniform(w.vals.size());
      Value key = w.Key(i);
      Txn txn = db->Begin();
      uint64_t r0 = timed ? NowNs() : 0;
      Status s = t->Read(txn, key, all, &row);
      if (timed) out.table_read.Record(NowNs() - r0);
      if (s.ok()) s = txn.Commit();
      out.Account(kRead, s, t0, measure);
      if (s.ok() && (!RowConsistent(key, row) || row[kValueCol] != w.vals[i])) {
        out.Wrong("durable read of key " + std::to_string(key) +
                  " is not the last acknowledged value");
      }
    }
    if (trace_id != 0) RecordSpan(trace_id, "request", t0, NowNs() - t0);
  }
}

Status OpenDb(const std::string& dir, std::unique_ptr<Database>* db) {
  DurabilityOptions opts;  // sync_commit off, no buffer budget
  return Database::Open(dir, opts, db);
}

bool IsLog(const std::string& f) {
  return f.size() > 4 && f.compare(f.size() - 4, 4, ".log") == 0 &&
         f != "events.log";
}

}  // namespace

Report RunDurable(const Options& o) {
  Report rep;
  const std::string dir = o.dir + "/durable";
  std::unique_ptr<Database> db;
  Table* t = nullptr;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    db.reset();
    std::filesystem::remove_all(dir);
    auto t0 = Clock::now();
    bench::Must(OpenDb(dir, &db), "open durable database");
    t = Preload(db.get(), kPreload,
                [](Value k) { return Formula(k, kValueCol); });
    bench::Must(db->Checkpoint(), "setup checkpoint");
    setups.push_back(SecsSince(t0));
  }
  rep.Set("setup_s", Median(setups));
  rep.Set("merge.insert_rows_at_start",
          db->Metrics().CounterValue("lstore_merge_insert_rows_total"));

  std::vector<Writer> writers(kWriters);
  for (uint32_t w = 0; w < kWriters; ++w) {
    writers[w].id = w;
    writers[w].rng = Random(o.seed * 0x9e3779b97f4a7c15ull + w + 1);
    for (uint64_t i = 0; i < kPreload / kWriters; ++i) {
      writers[w].vals.push_back(Formula(writers[w].Key(i), kValueCol));
    }
  }

  // Workers 0..kWriters-1 write; worker kWriters checkpoints every
  // kCheckpointEvery ops the writers complete.
  std::atomic<uint64_t> ops_done{0};
  auto body = [&](WorkerCtx& ctx) {
    if (ctx.worker < kWriters) {
      for (int ph; (ph = ctx.State()) != kStop;) {
        RunRound(db.get(), t, writers[ctx.worker], *ctx.out, &ctx,
                 ph == kMeasure);
        ops_done.fetch_add(kRoundOps, std::memory_order_relaxed);
      }
      return;
    }
    uint64_t next = ops_done.load() + kCheckpointEvery;
    for (int ph; (ph = ctx.State()) != kStop;) {
      if (ops_done.load(std::memory_order_relaxed) < next) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        continue;
      }
      uint64_t c0 = NowNs();
      Status s = db->Checkpoint();
      if (!s.ok()) ctx.out->Wrong("checkpoint failed: " + s.ToString());
      if (ph == kMeasure) ctx.out->checkpoint.Record(NowNs() - c0);
      next += kCheckpointEvery;
    }
  };

  WindowResult r = Measure(o, *db, kWriters + 1, 0.5, body, nullptr, &rep);

  // The final checkpoint fixes the on-disk figures.
  bench::Must(db->Checkpoint(), "final checkpoint");
  rep.Set("disk.log_mb", DirBytes(dir, IsLog) / kMB);
  rep.Set("disk.segs_mb", DirBytes(dir, [](const std::string& f) {
                            return f.find(".segs") != std::string::npos;
                          }) / kMB);
  rep.Set("disk.ckpt_mb", DirBytes(dir, [](const std::string& f) {
                            return f.find("ckpt") != std::string::npos;
                          }) / kMB);
  rep.Set("disk.total_mb",
          DirBytes(dir, [](const std::string&) { return true; }) / kMB);

  // A fixed tail the reopen must replay from the log.
  ThreadStats tail;
  for (Writer& w : writers) {
    for (uint32_t n = 0; n < kTailRounds; ++n) {
      RunRound(db.get(), t, w, tail, nullptr, false);
    }
  }
  if (tail.wrong > 0) rep.Wrong("tail: " + tail.first_wrong);
  db.reset();
  rep.Set("recover.log_mb", DirBytes(dir, IsLog) / kMB);
  auto t0 = Clock::now();
  bench::Must(OpenDb(dir, &db), "reopen durable database");
  rep.Set("recover.open_s", SecsSince(t0));
  t = db->GetTable("t");

  // Every key reads its last acknowledged value; the table holds the
  // preload plus the acknowledged inserts and nothing else.
  uint64_t expect_rows = kPreload;
  uint64_t expect_sum = 0;
  uint64_t bad = 0;
  std::vector<Value> row;
  const ColumnMask all = t->schema().AllColumns();
  for (const Writer& w : writers) {
    expect_rows += w.inserts;
    for (uint64_t i = 0; i < w.vals.size(); ++i) {
      expect_sum += w.vals[i];
      Txn txn = db->Begin();
      Status s = t->Read(txn, w.Key(i), all, &row);
      if (!s.ok() || !RowConsistent(w.Key(i), row) ||
          row[kValueCol] != w.vals[i]) {
        if (bad++ == 0) {
          rep.Wrong("after reopen key " + std::to_string(w.Key(i)) +
                    " lost its acknowledged value: " + s.ToString());
        }
      }
    }
  }
  // Scans measure the recovered table once its replayed tail is merged.
  t->FlushAll();
  t->WaitForMergeQueue();
  ScanStats scans;
  for (int i = 0; i < kScans; ++i) {
    uint64_t s0 = NowNs();
    uint64_t sum = 0, rows = 0;
    Status s = t->NewQuery().Workers(1).Sum(kValueCol, &sum, &rows);
    uint64_t dur = NowNs() - s0;
    scans.Add(s, rows, dur);
    if (s.ok() && (sum != expect_sum || rows != expect_rows)) {
      rep.Wrong("after reopen the table sums to " + std::to_string(sum) +
                " over " + std::to_string(rows) + " rows, expected " +
                std::to_string(expect_sum) + " over " +
                std::to_string(expect_rows));
    }
  }
  rep.Count(scans);
  SetScanMetrics(scans, &rep);

  std::printf("durable: %.0f ops/s, %llu checkpoints, %.1f MB on disk, "
              "reopen %.3f s over %.1f MB of log, %llu rows\n",
              rep.values["ops_s"],
              static_cast<unsigned long long>(r.stats.checkpoint.count()),
              rep.values["disk.total_mb"],
              rep.values["recover.open_s"], rep.values["recover.log_mb"],
              static_cast<unsigned long long>(expect_rows));
  return rep;
}

}  // namespace perfbench
}  // namespace lstore
