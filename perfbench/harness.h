// Shared pieces of the end-to-end benchmark (perfbench/README.md):
// the value formulas every output check recomputes apart from the
// engine, per-thread operation accounting, the timed closed-loop
// window, registry deltas over that window, and the report.

#ifndef LSTORE_PERFBENCH_HARNESS_H_
#define LSTORE_PERFBENCH_HARNESS_H_

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/types.h"
#include "core/database.h"
#include "core/table.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace lstore {
namespace perfbench {

using bench::LatencyReservoir;
using bench::NowNs;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  uint32_t seconds = 10;
  bool trace = false;
  std::string dir;  ///< scratch directory for on-disk databases
};

// --- value formulas ----------------------------------------------------------
// Every table has five columns: c0 key, c1 value, c2 = Companion(key,
// c1), c3/c4 = Formula(key, col). Writers rewrite c1 and c2 together,
// so a read that mixes column versions breaks the pair; c3/c4 are
// never written, so any read must reproduce them exactly.

constexpr uint32_t kColumns = 5;
constexpr ColumnId kValueCol = 1;
constexpr ColumnId kCompanionCol = 2;
constexpr ColumnMask kPairMask = (1ull << kValueCol) | (1ull << kCompanionCol);

/// A 48-bit value, so it can never collide with the engine's ∅.
inline Value Formula(Value key, ColumnId col) {
  return FnvHash64(key * 16 + col) >> 16;
}
inline Value Companion(Value key, Value v) {
  return FnvHash64(key ^ (v * 0x9e3779b97f4a7c15ull)) >> 16;
}
/// The full row whose value column is `v`.
inline void MakeRow(Value key, Value v, std::vector<Value>* row) {
  row->assign(kColumns, 0);
  (*row)[0] = key;
  (*row)[kValueCol] = v;
  (*row)[kCompanionCol] = Companion(key, v);
  for (ColumnId c = 3; c < kColumns; ++c) (*row)[c] = Formula(key, c);
}
/// True when `row` is a complete, self-consistent row of `key`.
inline bool RowConsistent(Value key, const std::vector<Value>& row) {
  if (row.size() != kColumns || row[0] != key) return false;
  if (row[kCompanionCol] != Companion(key, row[kValueCol])) return false;
  for (ColumnId c = 3; c < kColumns; ++c) {
    if (row[c] != Formula(key, c)) return false;
  }
  return true;
}
/// Sum of Formula(key, col) over keys [0, n): the scan oracle.
inline uint64_t FormulaSum(uint64_t n, ColumnId col) {
  uint64_t s = 0;
  for (uint64_t k = 0; k < n; ++k) s += Formula(k, col);
  return s;
}

// --- accounting --------------------------------------------------------------

enum OpClass : uint32_t { kRead = 0, kWrite, kMultiRead, kNumClasses };

/// The measured window is cut into one-second slices, and a completed
/// op lands in the slice it finished in. End-to-end throughput and
/// latencies are medians over the slices, so a host stall that hits one
/// second of a run moves one slice rather than the run's figure.
constexpr uint64_t kSliceNs = 1000000000;
constexpr size_t kSliceSamples = 8192;

struct OpStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<LatencyReservoir> slices;  ///< latencies, per slice
};

/// Full-table scans: every completed scan's latency and rate.
struct ScanStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> ms;
  std::vector<double> rows_s;

  void Add(const Status& s, uint64_t rows, uint64_t ns) {
    ++attempted;
    if (!s.ok()) {
      ++failed;
      return;
    }
    ms.push_back(ns / 1e6);
    rows_s.push_back(rows / (ns / 1e9));
  }
  void Merge(const ScanStats& o) {
    attempted += o.attempted;
    failed += o.failed;
    ms.insert(ms.end(), o.ms.begin(), o.ms.end());
    rows_s.insert(rows_s.end(), o.rows_s.begin(), o.rows_s.end());
  }
};

/// One worker's tallies over the measured window. `wrong` counts
/// operations whose result failed its output check.
struct ThreadStats {
  OpStats op[kNumClasses];
  ScanStats scans;
  // Layer timings, taken in traced runs only.
  LatencyReservoir table_read, table_update, commit, submit, checkpoint;
  uint64_t commit_attempts = 0;  ///< write txns tried, OCC retries included
  uint64_t commits = 0;
  uint64_t wrong = 0;
  std::string first_wrong;
  const std::atomic<uint64_t>* window_start_ns = nullptr;

  void Init(uint32_t slices, const std::atomic<uint64_t>* start) {
    window_start_ns = start;
    for (auto& o : op) o.slices.assign(slices, LatencyReservoir(kSliceSamples));
  }
  void Wrong(const std::string& what) {
    if (wrong++ == 0) first_wrong = what;
  }
  /// Count one measured op of class `c` started at `t0`; an OK one is
  /// timed into the slice it finished in.
  void Account(OpClass c, const Status& s, uint64_t t0, bool measure) {
    if (!measure) return;
    ++op[c].attempted;
    if (!s.ok()) {
      if (op[c].failed++ == 0) {
        std::fprintf(stderr, "perfbench: op failed: %s\n",
                     s.ToString().c_str());
      }
      return;
    }
    if (window_start_ns == nullptr) return;
    uint64_t now = NowNs();
    uint64_t slice =
        (now - window_start_ns->load(std::memory_order_relaxed)) / kSliceNs;
    if (slice < op[c].slices.size()) op[c].slices[slice].Record(now - t0);
  }
  void Merge(const ThreadStats& o) {
    for (uint32_t c = 0; c < kNumClasses; ++c) {
      op[c].attempted += o.op[c].attempted;
      op[c].failed += o.op[c].failed;
      if (op[c].slices.size() < o.op[c].slices.size()) {
        op[c].slices.resize(o.op[c].slices.size(),
                            LatencyReservoir(kSliceSamples));
      }
      for (size_t i = 0; i < o.op[c].slices.size(); ++i) {
        op[c].slices[i].Merge(o.op[c].slices[i]);
      }
    }
    scans.Merge(o.scans);
    table_read.Merge(o.table_read);
    table_update.Merge(o.table_update);
    commit.Merge(o.commit);
    submit.Merge(o.submit);
    checkpoint.Merge(o.checkpoint);
    commit_attempts += o.commit_attempts;
    commits += o.commits;
    if (wrong == 0 && o.wrong > 0) first_wrong = o.first_wrong;
    wrong += o.wrong;
  }
};

/// Trace sampling: every kTraceEvery-th measured op of a worker runs
/// under a fresh trace id in traced runs.
constexpr uint64_t kTraceEvery = 64;

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

/// What a worker body sees: its index, the shared phase, and whether
/// this window samples trace ids.
struct WorkerCtx {
  uint32_t worker;
  const std::atomic<int>* phase;
  bool traced;
  ThreadStats* out;
  uint64_t seq = 0;

  /// The current phase (kWarmup, kMeasure or kStop).
  int State() const { return phase->load(std::memory_order_acquire); }
  /// A fresh trace id for every kTraceEvery-th measured op, else 0.
  uint64_t MaybeTrace(bool measure) {
    if (!traced || !measure) return 0;
    return (seq++ % kTraceEvery) == 0 ? TraceContext::NewTraceId() : 0;
  }
};

struct WindowResult {
  ThreadStats stats;
  double secs = 0;
  uint64_t trace_lo = 0;  ///< trace ids minted in the window: [lo, hi)
  uint64_t trace_hi = 0;
};

/// A closed loop: `threads` workers run `body` through a warmup and a
/// measured window of `seconds` whole slices. Every op that starts
/// inside the window is attempted, so the window ends when the last
/// worker has returned; only ops that finish inside it are timed.
/// `at_start` runs as the window opens (registry snapshots); `tick`
/// about every 20 ms inside it (samplers).
inline WindowResult RunWindow(uint32_t threads, double warmup_s,
                              uint32_t seconds, bool traced,
                              const std::function<void(WorkerCtx&)>& body,
                              const std::function<void()>& at_start,
                              const std::function<void()>& tick = nullptr) {
  std::atomic<int> phase{kWarmup};
  std::atomic<uint64_t> start_ns{0};
  std::vector<ThreadStats> stats(threads);
  for (auto& s : stats) s.Init(seconds, &start_ns);
  std::vector<std::thread> workers;
  for (uint32_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w]() {
      WorkerCtx ctx{w, &phase, traced, &stats[w]};
      body(ctx);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  WindowResult r;
  r.trace_lo = traced ? TraceContext::NewTraceId() : 0;
  if (at_start) at_start();
  auto t0 = std::chrono::steady_clock::now();
  auto end = t0 + std::chrono::seconds(seconds);
  start_ns.store(NowNs(), std::memory_order_relaxed);
  phase.store(kMeasure, std::memory_order_release);
  while (std::chrono::steady_clock::now() < end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (tick) tick();
  }
  phase.store(kStop, std::memory_order_release);
  for (auto& t : workers) t.join();
  r.secs = bench::Secs(t0, std::chrono::steady_clock::now());
  r.trace_hi = traced ? TraceContext::NewTraceId() : 0;
  for (const auto& s : stats) r.stats.Merge(s);
  return r;
}

// --- engine registry deltas --------------------------------------------------

/// Database::Metrics() at both edges of a window; every figure is the
/// change over the window, so set-up work never leaks into it.
class RegistryDelta {
 public:
  void Begin(const Database& db) { a_ = db.Metrics(); }
  void End(const Database& db) { b_ = db.Metrics(); }

  /// Change of a counter, or of a cumulative gauge.
  double Delta(const std::string& name) const {
    return Value(b_, name) - Value(a_, name);
  }
  /// Gauge level at the end of the window.
  double Level(const std::string& name) const { return Value(b_, name); }

  /// Histogram of the recordings made inside the window.
  HistogramSnapshot Hist(const std::string& name) const {
    HistogramSnapshot d;
    const auto* hb = b_.FindHistogram(name);
    if (hb == nullptr) return d;
    const auto* ha = a_.FindHistogram(name);
    d = hb->hist;
    d.count = 0;
    for (size_t i = 0; i < d.buckets.size(); ++i) {
      if (ha != nullptr && i < ha->hist.buckets.size()) {
        d.buckets[i] -= ha->hist.buckets[i];
      }
      d.count += d.buckets[i];
    }
    return d;
  }
  /// Quantile of the window's recordings, divided by `scale` (ns ->
  /// us with 1e3); 0 when nothing was recorded.
  double HistQ(const std::string& name, double q, double scale = 1) const {
    HistogramSnapshot h = Hist(name);
    return h.count == 0 ? 0 : h.Percentile(q) / scale;
  }
  double HistCount(const std::string& name) const {
    return static_cast<double>(Hist(name).count);
  }

 private:
  static double Value(const MetricsSnapshot& s, const std::string& name) {
    if (const auto* c = s.FindCounter(name)) return c->value;
    if (const auto* g = s.FindGauge(name)) return g->value;
    return 0;
  }
  MetricsSnapshot a_, b_;
};

// --- helpers -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecsSince(Clock::time_point t0) {
  return bench::Secs(t0, Clock::now());
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

inline double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // KiB on Linux
}

constexpr double kMB = 1024.0 * 1024.0;

/// Bytes of the regular files under `dir` (recursive) whose name
/// satisfies `pred`.
inline uint64_t DirBytes(const std::string& dir,
                         const std::function<bool(const std::string&)>& pred) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file() && pred(it->path().filename().string())) {
      total += it->file_size();
    }
  }
  return total;
}

/// Load keys [0, rows) with c1 = value_of(key) in 1024-row batches,
/// then drain every insert and update merge, so the timed window
/// starts on a settled, fully merged table.
inline Table* Preload(Database* db, uint64_t rows,
                      const std::function<Value(Value)>& value_of) {
  bench::Must(db->CreateTable("t", Schema(kColumns), TableConfig{}),
              "create table");
  Table* t = db->GetTable("t");
  std::vector<std::vector<Value>> batch;
  for (uint64_t k = 0; k < rows;) {
    batch.clear();
    for (uint32_t i = 0; i < 1024 && k < rows; ++i, ++k) {
      batch.emplace_back();
      MakeRow(k, value_of(k), &batch.back());
    }
    Txn txn = db->Begin();
    bench::Must(t->InsertBatch(txn, batch), "preload insert");
    bench::Must(txn.Commit(), "preload commit");
  }
  t->FlushAll();
  t->WaitForMergeQueue();
  return t;
}

/// Metric name -> value, filled by a workload; main() prints the ones
/// the run mode asks for.
struct Report {
  std::map<std::string, double> values;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Set(const std::string& name, double v) { values[name] = v; }
  void Count(const ScanStats& scans) {
    attempted += scans.attempted;
    failed += scans.failed;
  }
  void Wrong(const std::string& what) {
    correct = false;
    std::fprintf(stderr, "perfbench: WRONG RESULT: %s\n", what.c_str());
  }
  /// Fold a window's op tallies and wrong results into the report.
  void Count(const WindowResult& r) {
    for (const auto& o : r.stats.op) {
      attempted += o.attempted;
      failed += o.failed;
    }
    Count(r.stats.scans);
    if (r.stats.wrong > 0) {
      Wrong(std::to_string(r.stats.wrong) + " op(s), first: " +
            r.stats.first_wrong);
    }
  }
};

/// Median over the window's slices of the completed point operations
/// (reads, writes, multi-reads) per second.
inline double PointOpsPerSec(const WindowResult& r) {
  std::vector<double> rates;
  const auto& slices = r.stats.op[kRead].slices;
  for (size_t i = 0; i < slices.size(); ++i) {
    uint64_t n = 0;
    for (const auto& o : r.stats.op) n += o.slices[i].count();
    rates.push_back(n * 1e9 / kSliceNs);
  }
  return Median(rates);
}

/// Median over slices of the per-slice latency quantile of class `c`.
inline double SliceQuantileUs(const WindowResult& r, OpClass c, double q) {
  std::vector<double> v;
  for (const auto& s : r.stats.op[c].slices) {
    if (s.count() > 0) v.push_back(s.PercentileUs(q));
  }
  return Median(v);
}

/// End-to-end figures every workload derives the same way from its
/// timed window: point-op throughput and latencies.
inline void SetPointMetrics(const WindowResult& r, Report* rep) {
  rep->Set("ops_s", PointOpsPerSec(r));
  rep->Set("read_p50_us", SliceQuantileUs(r, kRead, 0.50));
  rep->Set("read_p99_us", SliceQuantileUs(r, kRead, 0.99));
  rep->Set("write_p50_us", SliceQuantileUs(r, kWrite, 0.50));
  rep->Set("write_p99_us", SliceQuantileUs(r, kWrite, 0.99));
}

/// Per-layer figures from a traced window: the timed calls into the
/// engine and the registry's change over the window.
void SetLayerMetrics(const WindowResult& r, const RegistryDelta& reg,
                     Report* rep);

/// The p99_by_stage self times of this window's own traces, as
/// stage.<name>_us (other = time inside no engine span).
void SetStageMetrics(const WindowResult& r, Report* rep);

/// The measured window of a run. Under --trace an untraced window runs
/// first; the per-layer figures (registry changes, timed calls, stage
/// self times, the epoch queue's peak) come from the traced one, and
/// its throughput against the untraced one's is the cost of tracing
/// (trace.ops_s_delta_pct).
inline WindowResult Measure(const Options& o, const Database& db,
                            uint32_t threads, double warmup_s,
                            const std::function<void(WorkerCtx&)>& body,
                            const std::function<void()>& tick, Report* rep) {
  double untraced_ops_s = 0;
  if (o.trace) {
    WindowResult plain =
        RunWindow(threads, warmup_s, o.seconds, false, body, nullptr, tick);
    rep->Count(plain);
    untraced_ops_s = PointOpsPerSec(plain);
  }
  int64_t epoch_max = 0;
  auto sample = [&]() {
    if (tick) tick();
    if (!o.trace) return;
    auto g = db.Metrics().FindGauge("lstore_epoch_pending");
    if (g != nullptr) epoch_max = std::max(epoch_max, g->value);
  };
  RegistryDelta reg;
  WindowResult r = RunWindow(threads, warmup_s, o.seconds, o.trace, body,
                             [&]() { reg.Begin(db); }, sample);
  reg.End(db);
  rep->Count(r);
  SetPointMetrics(r, rep);
  if (o.trace) {
    SetLayerMetrics(r, reg, rep);
    SetStageMetrics(r, rep);
    rep->Set("epoch.pending_max", static_cast<double>(epoch_max));
    if (untraced_ops_s > 0) {
      rep->Set("trace.ops_s_delta_pct",
               100.0 * (PointOpsPerSec(r) - untraced_ops_s) / untraced_ops_s);
    }
  }
  return r;
}

/// Scan figures: the median scan's rows per second and latency.
inline void SetScanMetrics(const ScanStats& scans, Report* rep) {
  rep->Set("query.scan_rows_s", Median(scans.rows_s));
  rep->Set("query.scan_p50_ms", Median(scans.ms));
}

Report RunHtap(const Options& o);
Report RunDurable(const Options& o);
Report RunCold(const Options& o);
Report RunWire(const Options& o);

}  // namespace perfbench
}  // namespace lstore

#endif  // LSTORE_PERFBENCH_HARNESS_H_
