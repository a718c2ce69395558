// cold: the one workload larger than the engine's own cache. An
// on-disk table of 1M rows whose buffer pool holds about half of the
// merged base footprint; two threads issue uniform all-column point
// reads (90%) and pair updates of their own keys (10%), so misses,
// segment-store preads and cold-slot decoding do the work. After the
// window, full-table Sum scans run through the same undersized pool.
//
// Checks: every read satisfies the (value, companion) pair and the
// formulas of the untouched columns; every scan of an untouched column
// equals its closed-form sum over 1M rows; resident base bytes never
// exceed the budget at any sample.

#include <cstdio>
#include <filesystem>

#include "core/query.h"
#include "harness.h"

namespace lstore {
namespace perfbench {
namespace {

constexpr uint64_t kRows = 1000000;
constexpr uint64_t kBudget = 24ull << 20;
constexpr uint32_t kThreads = 2;
constexpr int kSetups = 3;
constexpr int kScans = 5;
constexpr ColumnId kScanCol = 3;
// The pool evicts after a load lands and never evicts a pinned frame
// (buffer_pool.h), so while readers run it may sit above the budget by
// at most the pages they hold pinned: one page per column per reader,
// each at most a 4096-slot segment of 8-byte values plus its header.
constexpr uint64_t kPinnedSlack = (kThreads + 1) * kColumns * (33ull << 10);

void Worker(Database* db, Table* t, uint64_t seed, WorkerCtx& ctx) {
  Random rng(seed * 0x9e3779b97f4a7c15ull + ctx.worker + 1);
  KeyGenerator keys(kRows, 0.0, seed * 7919 + ctx.worker + 1);
  const ColumnMask all = t->schema().AllColumns();
  std::vector<Value> row;
  ThreadStats& out = *ctx.out;
  for (int ph; (ph = ctx.State()) != kStop;) {
    const bool measure = ph == kMeasure;
    const bool timed = ctx.traced && measure;
    const bool read = rng.Uniform(100) < 90;
    // Reads go anywhere; each thread updates only its own keys, so no
    // two concurrent updates can conflict.
    Value key = keys.Next();
    if (!read) key = key - key % kThreads + ctx.worker;
    uint64_t trace_id = ctx.MaybeTrace(measure);
    TraceContext::Scope scope(trace_id);
    uint64_t t0 = NowNs();
    Txn txn = db->Begin();
    if (read) {
      uint64_t r0 = timed ? NowNs() : 0;
      Status s = t->Read(txn, key, all, &row);
      if (timed) out.table_read.Record(NowNs() - r0);
      if (s.ok()) s = txn.Commit();
      out.Account(kRead, s, t0, measure);
      if (s.ok() && !RowConsistent(key, row)) {
        out.Wrong("cold read of key " + std::to_string(key) +
                  " does not match its formula");
      }
    } else {
      MakeRow(key, rng.Next() >> 16, &row);
      uint64_t u0 = timed ? NowNs() : 0;
      Status s = t->Update(txn, key, kPairMask, row);
      if (timed) out.table_update.Record(NowNs() - u0);
      if (s.ok()) {
        uint64_t c0 = timed ? NowNs() : 0;
        s = txn.Commit();
        if (timed) out.commit.Record(NowNs() - c0);
      }
      if (measure) {
        ++out.commit_attempts;
        if (s.ok()) ++out.commits;
      }
      out.Account(kWrite, s, t0, measure);
    }
    if (trace_id != 0) RecordSpan(trace_id, "request", t0, NowNs() - t0);
  }
}

}  // namespace

Report RunCold(const Options& o) {
  Report rep;
  const std::string dir = o.dir + "/cold";
  DurabilityOptions opts;
  opts.buffer_pool_bytes = kBudget;
  std::unique_ptr<Database> db;
  Table* t = nullptr;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    db.reset();
    std::filesystem::remove_all(dir);
    auto t0 = Clock::now();
    bench::Must(Database::Open(dir, opts, &db), "open cold database");
    t = Preload(db.get(), kRows, [](Value k) { return Formula(k, kValueCol); });
    setups.push_back(SecsSince(t0));
  }
  rep.Set("setup_s", Median(setups));
  rep.Set("merge.insert_rows_at_start",
          db->Metrics().CounterValue("lstore_merge_insert_rows_total"));

  // Under load the pool may exceed the budget by the pinned slack; at
  // rest (between scans, after the window) it must be within it.
  uint64_t resident_max = 0;
  auto sample = [&]() {
    resident_max = std::max(resident_max, db->buffer_stats().bytes_resident);
  };
  auto check_at_rest = [&](const char* when) {
    uint64_t b = db->buffer_stats().bytes_resident;
    if (b > kBudget) {
      rep.Wrong(std::string("buffer pool held ") + std::to_string(b) +
                " bytes " + when + ", over a budget of " +
                std::to_string(kBudget));
    }
  };
  auto body = [&](WorkerCtx& ctx) { Worker(db.get(), t, o.seed, ctx); };

  WindowResult r = Measure(o, *db, kThreads, 1.0, body, sample, &rep);
  if (resident_max > kBudget + kPinnedSlack) {
    rep.Wrong("buffer pool held " + std::to_string(resident_max) +
              " bytes under load, over a budget of " + std::to_string(kBudget) +
              " plus the pinned slack");
  }
  check_at_rest("after the window");

  ScanStats scans;
  const uint64_t expect = FormulaSum(kRows, kScanCol);
  for (int i = 0; i < kScans; ++i) {
    uint64_t s0 = NowNs();
    uint64_t sum = 0, rows = 0;
    Status s = t->NewQuery().Workers(1).Sum(kScanCol, &sum, &rows);
    uint64_t dur = NowNs() - s0;
    check_at_rest("after a scan");
    scans.Add(s, rows, dur);
    if (s.ok() && (sum != expect || rows != kRows)) {
      rep.Wrong("cold scan summed " + std::to_string(sum) + " over " +
                std::to_string(rows) + " rows, expected " +
                std::to_string(expect));
    }
  }
  rep.Count(scans);
  SetScanMetrics(scans, &rep);

  BufferPoolStats bs = db->buffer_stats();
  std::printf("cold: %.0f ops/s, resident max %.2f MB of %.1f MB budget, "
              "%.1f MB of base segments on disk, %llu pages, %llu misses, "
              "%llu cold point reads\n",
              rep.values["ops_s"], resident_max / kMB, kBudget / kMB,
              DirBytes(dir, [](const std::string& f) {
                return f.find(".segs") != std::string::npos;
              }) / kMB,
              static_cast<unsigned long long>(bs.pages),
              static_cast<unsigned long long>(bs.misses),
              static_cast<unsigned long long>(bs.cold_point_reads));
  return rep;
}

}  // namespace perfbench
}  // namespace lstore
