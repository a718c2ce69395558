// Figure 10: mixed OLTP + OLAP — a fixed population of concurrent
// transactions (paper: 17) split between short update transactions and
// long read-only transactions (scans over ~10% of the table), low
// (a,b) and medium (c,d) contention. Reports both update throughput
// (a,c) and read-only throughput (b,d).
//
// Paper: L-Store beats IUH/DBM by up to 5.37x/7.91x on updates and
// DBM by up to 1.97x/2.37x on long reads; its contention-free merge
// is what keeps OLAP from stalling OLTP.

#include <string>

#include "engines.h"

using namespace lstore::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::ParseOrDie(argc, argv);
  PrintHeader(args, "Figure 10: short updates vs long read-only transactions",
              "L-Store leads on both sides of the mix; DBM loses on reads "
              "(blocking merges), IUH on updates (page latches)");

  const Contention levels[] = {Contention::kLow, Contention::kMedium};
  const EngineKind kinds[] = {EngineKind::kLStore, EngineKind::kIuh,
                              EngineKind::kDbm};
  const uint32_t cap = MaxThreads(args);
  // Total concurrent txns scaled to the machine (paper used 17).
  const uint32_t total = cap >= 17 ? 17 : (cap < 2 ? 2 : cap);
  std::vector<uint32_t> scan_counts;
  for (uint32_t s : {1u, total / 4, total / 2, 3 * total / 4, total - 1}) {
    if (s >= 1 && s < total &&
        (scan_counts.empty() || s > scan_counts.back())) {
      scan_counts.push_back(s);
    }
  }

  for (Contention c : levels) {
    const uint64_t active = ActiveSet(args.rows, c);
    std::printf("\n--- Fig 10 (%s contention, %u concurrent txns) ---\n",
                ContentionName(c), total);
    std::printf("%-28s %12s %14s %14s\n", "engine", "readers",
                "upd K txns/s", "reads/s");
    for (EngineKind k : kinds) {
      auto engine = LoadedEngine(k, FigureTableConfig(), args.rows);
      for (uint32_t scans : scan_counts) {
        WorkloadResult r = RunMix(args, *engine, active, total - scans, scans);
        double ktps = OpsPerSec(r, kOpUpdate) / 1000.0;
        double reads = OpsPerSec(r, kOpScan);
        std::printf("%-28s %12u %14.1f %14.1f\n", EngineName(k), scans, ktps,
                    reads);
        std::fflush(stdout);
        std::string cell = std::string(ContentionName(c)) + "." +
                           EngineTag(k) + ".s" + std::to_string(scans);
        EmitMetric("fig10_mixed", cell + ".update", ktps, "Ktxn/s");
        EmitMetric("fig10_mixed", cell + ".scan", reads, "txn/s");
      }
    }
  }
  return 0;
}
