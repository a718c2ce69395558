// The engines of the paper's Section 6 comparisons behind one
// interface, driven by the shared workload driver (RunPoint in
// workload_driver.h): L-Store in its column and row layouts,
// In-place Update + History (IUH) and Delta + Blocking Merge (DBM).
// "For fairness, across all techniques, we have maintained columnar
// storage, a single primary index, and the embedded indirection"
// (Section 6.1), and logging is off for all of them.
//
// The micro benchmark of [18, 33] used by the figures:
//  * a table of 10 data columns plus the key;
//  * an active set of records that transactions touch: the whole
//    table (low contention), 1/100 of it (medium) or 1/1000 (high);
//  * short update transactions, by default 8 point reads and then 2
//    updates, each update writing 40% of the columns, with keys drawn
//    uniformly from the active set;
//  * long read-only transactions: snapshot SUM scans of one
//    continuously updated column.
//
// A worker body passed to RunPoint runs one of these transactions in a
// closed loop and accounts it in its WorkerStats: update transactions
// as `update`, point-read transactions as `read`, scans as `scan`, and
// write-write (OCC) failures as `aborts`.

#ifndef LSTORE_BENCH_ENGINES_H_
#define LSTORE_BENCH_ENGINES_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <type_traits>
#include <vector>

#include "baselines/dbm/dbm_table.h"
#include "baselines/iuh/iuh_table.h"
#include "common/bitutil.h"
#include "common/random.h"
#include "core/query.h"
#include "core/row_table.h"
#include "core/table.h"
#include "workload_driver.h"

namespace lstore {
namespace bench {

constexpr uint32_t kDataColumns = 10;
constexpr uint32_t kReadsPerTxn = 8;
constexpr uint32_t kWritesPerTxn = 2;
constexpr uint32_t kUpdateColumnPct = 40;

enum class EngineKind { kLStore, kLStoreRow, kIuh, kDbm };

inline const char* EngineName(EngineKind k) {
  switch (k) {
    case EngineKind::kLStore: return "L-Store";
    case EngineKind::kLStoreRow: return "L-Store (Row)";
    case EngineKind::kIuh: return "In-place Update + History";
    case EngineKind::kDbm: return "Delta + Blocking Merge";
  }
  return "?";
}

/// Short engine name for BENCH_ci.json metric names.
inline const char* EngineTag(EngineKind k) {
  switch (k) {
    case EngineKind::kLStore: return "lstore";
    case EngineKind::kLStoreRow: return "lstore_row";
    case EngineKind::kIuh: return "iuh";
    case EngineKind::kDbm: return "dbm";
  }
  return "?";
}

enum class Contention { kLow, kMedium, kHigh };

inline const char* ContentionName(Contention c) {
  switch (c) {
    case Contention::kLow: return "low";
    case Contention::kMedium: return "medium";
    case Contention::kHigh: return "high";
  }
  return "?";
}

/// The active set of a contention level: rows, rows/100 or rows/1000.
inline uint64_t ActiveSet(uint64_t rows, Contention c) {
  uint64_t n = c == Contention::kLow      ? rows
               : c == Contention::kMedium ? rows / 100
                                          : rows / 1000;
  return std::max<uint64_t>(1, n);
}

/// The figures' table geometry: 4K-record update ranges merged in
/// batches of M = 2K tail records by the engine's own merge thread.
inline TableConfig FigureTableConfig(uint32_t range_size = 1u << 12,
                                     uint32_t merge_threshold = 1u << 11) {
  TableConfig tc;
  tc.range_size = range_size;
  tc.insert_range_size = range_size;
  tc.merge_threshold = merge_threshold;
  tc.enable_merge_thread = true;
  tc.enable_logging = false;
  return tc;
}

class Engine {
 public:
  virtual ~Engine() = default;

  /// Load keys [0, n): column c of key k holds k * 7 + c.
  virtual void Load(uint64_t n) = 0;

  /// One short update transaction on keys in [0, active): `reads`
  /// point reads of two columns, then `writes` updates. Aborted on a
  /// write-write conflict.
  virtual Status UpdateTxn(Random& rng, uint64_t active, uint32_t reads,
                           uint32_t writes) = 0;

  /// One read-only transaction of `reads` point reads of `cols`.
  virtual Status PointReadTxn(Random& rng, uint64_t active, uint32_t reads,
                              ColumnMask cols) = 0;

  /// Snapshot SUM of column 1 over the whole table.
  virtual Status ScanSum(uint64_t* sum) = 0;

  /// Scan fan-out where the engine has one (L-Store's Query layer;
  /// the baselines scan serially): 0 = auto-size, 1 (default) = serial.
  virtual void SetScanWorkers(uint32_t n) = 0;
};

namespace engines_internal {

/// `count` distinct data columns (never the key) as an update mask.
inline ColumnMask PickColumns(Random& rng, uint32_t count) {
  ColumnMask mask = 0;
  for (uint32_t chosen = 0; chosen < count;) {
    ColumnMask bit = 1ull << (1 + rng.Uniform(kDataColumns));
    if ((mask & bit) == 0) {
      mask |= bit;
      ++chosen;
    }
  }
  return mask;
}

/// The adapter for all four engines: their session surfaces
/// (Begin/Insert/Read/Update/Now) are identical; only L-Store scans
/// through its Query layer and settles its merges after the load.
template <typename TableT>
class EngineOn : public Engine {
  static constexpr bool kLStore = std::is_same_v<TableT, Table>;

 public:
  explicit EngineOn(const TableConfig& tc)
      : table_(Schema(kDataColumns + 1), tc) {}

  void Load(uint64_t n) override {
    std::vector<Value> row(kDataColumns + 1);
    for (uint64_t k = 0; k < n;) {
      Txn txn = table_.Begin(IsolationLevel::kReadCommitted);
      for (uint64_t end = std::min(n, k + 10000); k < end; ++k) {
        row[0] = k;
        for (ColumnId c = 1; c <= kDataColumns; ++c) row[c] = k * 7 + c;
        Must(table_.Insert(txn, row), "load insert");
      }
      Must(txn.Commit(), "load commit");
    }
    if constexpr (kLStore) {
      table_.FlushAll();
      table_.WaitForMergeQueue();
    }
  }

  Status UpdateTxn(Random& rng, uint64_t active, uint32_t reads,
                   uint32_t writes) override {
    Txn txn = table_.Begin(IsolationLevel::kReadCommitted);
    std::vector<Value> out;
    std::vector<Value> row(kDataColumns + 1, 0);
    for (uint32_t i = 0; i < reads; ++i) {
      Status s = table_.Read(txn, rng.Uniform(active), PickColumns(rng, 2),
                             &out);
      if (s.IsAborted()) return s;
    }
    const uint32_t write_cols =
        std::max<uint32_t>(1, kDataColumns * kUpdateColumnPct / 100);
    for (uint32_t i = 0; i < writes; ++i) {
      Value key = rng.Uniform(active);
      ColumnMask mask = PickColumns(rng, write_cols);
      for (BitIter it(mask); it; ++it) row[*it] = rng.Next() % 1000000;
      LSTORE_RETURN_IF_ERROR(table_.Update(txn, key, mask, row));
    }
    return txn.Commit();
  }

  Status PointReadTxn(Random& rng, uint64_t active, uint32_t reads,
                      ColumnMask cols) override {
    Txn txn = table_.Begin(IsolationLevel::kReadCommitted);
    std::vector<Value> out;
    for (uint32_t i = 0; i < reads; ++i) {
      Status s = table_.Read(txn, rng.Uniform(active), cols, &out);
      if (s.IsAborted()) return s;
    }
    return txn.Commit();
  }

  Status ScanSum(uint64_t* sum) override {
    // Non-ticking snapshot: scans must not inflate the logical clock.
    if constexpr (kLStore) {
      return table_.NewQuery()
          .AsOf(table_.Now())
          .Workers(scan_workers_)
          .Sum(1, sum);
    } else {
      return table_.SumColumn(1, table_.Now(), sum);
    }
  }

  void SetScanWorkers(uint32_t n) override { scan_workers_ = n; }

 private:
  TableT table_;
  uint32_t scan_workers_ = 1;
};

}  // namespace engines_internal

/// Build an engine over `tc` and load `rows` keys into it.
inline std::unique_ptr<Engine> LoadedEngine(EngineKind kind,
                                            const TableConfig& tc,
                                            uint64_t rows) {
  using engines_internal::EngineOn;
  std::unique_ptr<Engine> e;
  switch (kind) {
    case EngineKind::kLStore: e = std::make_unique<EngineOn<Table>>(tc); break;
    case EngineKind::kLStoreRow:
      e = std::make_unique<EngineOn<RowTable>>(tc);
      break;
    case EngineKind::kIuh: e = std::make_unique<EngineOn<IuhTable>>(tc); break;
    case EngineKind::kDbm: e = std::make_unique<EngineOn<DbmTable>>(tc); break;
  }
  e->Load(rows);
  return e;
}

// --- worker bodies ---------------------------------------------------------

/// Closed loop of `op` (returning a Status) accounted as op class
/// `cls` until the point stops. A worker always finishes one measured
/// op, so a scan longer than the measured window still reports.
template <typename Op>
inline void ClosedLoop(uint32_t cls, const std::atomic<int>* phase,
                       WorkerStats* out, Op&& op) {
  for (bool measured = false;;) {
    int ph = phase->load(std::memory_order_acquire);
    if (ph == kStop && measured) break;
    uint64_t t0 = NowNs();
    Status s = op();
    out->Account(cls, s, t0, ph != kWarmup);
    measured = measured || ph != kWarmup;
  }
}

/// One sweep point of the Section 6 mix on `engine`: `updaters`
/// workers of short update transactions on keys in [0, active) and
/// `scanners` workers of back-to-back snapshot scans. The engine's
/// merge thread runs throughout ("at least one scan thread and one
/// merge thread", Section 6.1).
inline WorkloadResult RunMix(const BenchArgs& args, Engine& engine,
                             uint64_t active, uint32_t updaters,
                             uint32_t scanners, uint32_t reads = kReadsPerTxn,
                             uint32_t writes = kWritesPerTxn) {
  return RunPoint(
      args, updaters + scanners,
      [&](uint32_t w, const std::atomic<int>* phase, WorkerStats* out) {
        if (w >= updaters) {
          uint64_t sum = 0;
          ClosedLoop(kOpScan, phase, out, [&] { return engine.ScanSum(&sum); });
          return;
        }
        Random rng(args.seed * 1000003ull + w);
        ClosedLoop(kOpUpdate, phase, out, [&] {
          return engine.UpdateTxn(rng, active, reads, writes);
        });
      });
}

/// Measured throughput of one op class, per second.
inline double OpsPerSec(const WorkloadResult& r, uint32_t cls) {
  return r.measure_secs > 0 ? r.stats.ops[cls] / r.measure_secs : 0;
}

/// Median latency of one op class, in seconds.
inline double MedianSecs(const WorkloadResult& r, uint32_t cls) {
  return r.stats.lat[cls].PercentileNs(0.5) / 1e9;
}

}  // namespace bench
}  // namespace lstore

#endif  // LSTORE_BENCH_ENGINES_H_
