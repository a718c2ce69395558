// htap: the paper's headline case. An in-memory table of 1M rows,
// preloaded and fully merged, serves two OLTP threads (half read-only
// all-column point reads, half serializable balance transfers) while
// one analytic thread runs back-to-back single-worker full-table Sum
// snapshots of the balance column, with background merges on.
//
// Checks: transfers conserve money, so every scan and a final
// post-merge Sum must equal rows x initial balance; every transfer
// rewrites the companion column, so every point read must satisfy the
// (balance, companion) pair and the formulas of the untouched columns.

#include <algorithm>
#include <cstdio>

#include "core/query.h"
#include "harness.h"

namespace lstore {
namespace perfbench {
namespace {

constexpr uint64_t kRows = 1000000;
constexpr Value kBalance = 1000;
constexpr uint32_t kOltpThreads = 2;
constexpr int kSetups = 3;
// Merges start in step (the preload leaves every range merged) and
// drift apart; the warmup lets the merge cycle desynchronize.
constexpr double kWarmupS = 5;

/// One transfer of 1..10 between two distinct uniform rows, retried on
/// OCC aborts until it commits. Returns the final status.
Status Transfer(Database* db, Table* t, Random& rng, KeyGenerator& keys,
                WorkerCtx& ctx, bool measure, std::vector<Value>* a,
                std::vector<Value>* b) {
  Value ka = keys.Next();
  Value kb = keys.Next();
  while (kb == ka) kb = keys.Next();
  const Value amount = 1 + rng.Uniform(10);
  const bool timed = ctx.traced && measure;
  ThreadStats& out = *ctx.out;
  while (true) {
    Txn txn = db->Begin(IsolationLevel::kSerializable);
    Status s = t->Read(txn, ka, kPairMask, a);
    if (s.ok()) s = t->Read(txn, kb, kPairMask, b);
    if (s.ok()) {
      Value va = (*a)[kValueCol];
      Value vb = (*b)[kValueCol];
      Value x = std::min(amount, va);
      std::vector<Value> row(kColumns, 0);
      row[kValueCol] = va - x;
      row[kCompanionCol] = Companion(ka, va - x);
      uint64_t u0 = timed ? NowNs() : 0;
      s = t->Update(txn, ka, kPairMask, row);
      if (timed) out.table_update.Record(NowNs() - u0);
      if (s.ok()) {
        row[kValueCol] = vb + x;
        row[kCompanionCol] = Companion(kb, vb + x);
        s = t->Update(txn, kb, kPairMask, row);
      }
    }
    if (s.ok()) {
      uint64_t c0 = timed ? NowNs() : 0;
      s = txn.Commit();
      if (timed) out.commit.Record(NowNs() - c0);
    }
    if (measure) ++out.commit_attempts;
    if (!s.IsAborted()) {
      if (s.ok() && measure) ++out.commits;
      return s;
    }
  }
}

void OltpWorker(Database* db, Table* t, uint64_t seed, WorkerCtx& ctx) {
  Random rng(seed * 0x9e3779b97f4a7c15ull + ctx.worker + 1);
  KeyGenerator keys(kRows, 0.0, seed * 7919 + ctx.worker + 1);
  const ColumnMask all = t->schema().AllColumns();
  std::vector<Value> row, a, b;
  ThreadStats& out = *ctx.out;
  for (int ph; (ph = ctx.State()) != kStop;) {
    const bool measure = ph == kMeasure;
    const bool read = rng.Percent(50);
    uint64_t trace_id = ctx.MaybeTrace(measure);
    TraceContext::Scope scope(trace_id);
    uint64_t t0 = NowNs();
    if (read) {
      Value key = keys.Next();
      Txn txn = db->Begin();
      uint64_t r0 = ctx.traced ? NowNs() : 0;
      Status s = t->Read(txn, key, all, &row);
      if (ctx.traced && measure) out.table_read.Record(NowNs() - r0);
      if (s.ok()) s = txn.Commit();
      out.Account(kRead, s, t0, measure);
      if (s.ok() && !RowConsistent(key, row)) {
        out.Wrong("htap read of key " + std::to_string(key) +
                  " mixes column versions");
      }
    } else {
      Status s = Transfer(db, t, rng, keys, ctx, measure, &a, &b);
      out.Account(kWrite, s, t0, measure);
    }
    if (trace_id != 0) RecordSpan(trace_id, "request", t0, NowNs() - t0);
  }
}

void AnalyticWorker(Table* t, WorkerCtx& ctx) {
  for (int ph; (ph = ctx.State()) != kStop;) {
    uint64_t t0 = NowNs();
    uint64_t sum = 0, rows = 0;
    Status s = t->NewQuery().Workers(1).Sum(kValueCol, &sum, &rows);
    if (ph == kMeasure) ctx.out->scans.Add(s, rows, NowNs() - t0);
    if (s.ok() && (sum != kRows * kBalance || rows != kRows)) {
      ctx.out->Wrong("htap scan saw sum " + std::to_string(sum) + " over " +
                     std::to_string(rows) + " rows");
    }
  }
}

}  // namespace

Report RunHtap(const Options& o) {
  Report rep;
  std::unique_ptr<Database> db;
  Table* t = nullptr;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    db.reset();
    auto t0 = Clock::now();
    db = std::make_unique<Database>();
    t = Preload(db.get(), kRows, [](Value) { return kBalance; });
    setups.push_back(SecsSince(t0));
  }
  rep.Set("setup_s", Median(setups));
  rep.Set("merge.insert_rows_at_start",
          db->Metrics().CounterValue("lstore_merge_insert_rows_total"));

  auto body = [&](WorkerCtx& ctx) {
    if (ctx.worker < kOltpThreads) {
      OltpWorker(db.get(), t, o.seed, ctx);
    } else {
      AnalyticWorker(t, ctx);
    }
  };
  WindowResult r =
      Measure(o, *db, kOltpThreads + 1, kWarmupS, body, nullptr, &rep);
  SetScanMetrics(r.stats.scans, &rep);

  // Final check: after every merge has landed, money is conserved.
  t->FlushAll();
  t->WaitForMergeQueue();
  uint64_t sum = 0, rows = 0;
  Status s = t->NewQuery().Sum(kValueCol, &sum, &rows);
  if (!s.ok() || sum != kRows * kBalance || rows != kRows) {
    rep.Wrong("htap final sum " + std::to_string(sum) + " over " +
              std::to_string(rows) + " rows: " + s.ToString());
  }
  std::printf("htap: %.0f ops/s, %.0f scanned rows/s, %llu transfers, "
              "commit ratio %.4f\n",
              rep.values["ops_s"], rep.values["query.scan_rows_s"],
              static_cast<unsigned long long>(r.stats.op[kWrite].attempted),
              r.stats.commit_attempts > 0
                  ? static_cast<double>(r.stats.commits) /
                        r.stats.commit_attempts
                  : 0.0);
  return rep;
}

}  // namespace perfbench
}  // namespace lstore
