// Figure 8: single-threaded scan execution time vs. the number of tail
// records processed per merge (M), with 4 and 16 concurrent update
// threads and one dedicated merge thread. Range partitioning fixed.
//
// Paper: scan time drops as M grows (the merge keeps up and scans
// rarely chase tails), with slight deterioration when the merge is
// delayed too long; the sweet spot is M ~ 50% of the range size.

#include <string>

#include "engines.h"

using namespace lstore::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::ParseOrDie(argc, argv);
  PrintHeader(args, "Figure 8: scan performance vs merge batch size M",
              "scan time decreases with M, optimum near 50% of range size; "
              "merge keeps up with concurrent updaters");

  const uint32_t kRange = 1u << 12;  // 4K records per range
  std::vector<uint32_t> merge_batches = {kRange / 16, kRange / 8, kRange / 4,
                                         kRange / 2, kRange};
  const uint32_t writer_counts[] = {4, 16};
  const uint32_t cap = MaxThreads(args);

  std::printf("\n%-24s", "update threads \\ M");
  for (uint32_t m : merge_batches) std::printf(" %9u", m);
  std::printf("   (scan seconds)\n");

  for (uint32_t writers : writer_counts) {
    uint32_t w = std::min(writers, cap);
    std::printf("%-24u", w);
    for (uint32_t m : merge_batches) {
      auto engine = LoadedEngine(EngineKind::kLStore,
                                 FigureTableConfig(kRange, m), args.rows);
      WorkloadResult r = RunMix(args, *engine, args.rows, w, /*scanners=*/1);
      double secs = MedianSecs(r, kOpScan);
      std::printf(" %9.4f", secs);
      std::fflush(stdout);
      EmitMetric("fig8_merge_scan",
                 "w" + std::to_string(w) + ".m" + std::to_string(m), secs,
                 "s");
    }
    std::printf("\n");
  }

  // Parallel-scan scaling: the same snapshot scan fanned out on the
  // shared worker pool across update-range partitions (Query layer),
  // quiescent and with concurrent updaters. Expect near-linear
  // speedup while workers <= cores; identical sums by construction.
  std::printf("\nParallel Query::Sum scaling (merge M = range/2)\n");
  std::printf("%-24s %10s %12s %10s\n", "scan workers", "quiet (s)",
              "updated (s)", "speedup");
  auto engine = LoadedEngine(EngineKind::kLStore,
                             FigureTableConfig(kRange, kRange / 2), args.rows);
  double base_quiet = 0;
  for (uint32_t workers : ThreadPoints(args)) {
    engine->SetScanWorkers(workers);
    double quiet = MedianSecs(RunMix(args, *engine, args.rows, 0, 1), kOpScan);
    double updated = MedianSecs(
        RunMix(args, *engine, args.rows, std::min(4u, cap), 1), kOpScan);
    if (workers == 1) base_quiet = quiet;
    std::printf("%-24u %10.4f %12.4f %9.2fx\n", workers, quiet, updated,
                base_quiet > 0 ? base_quiet / quiet : 0.0);
    std::fflush(stdout);
    std::string cell = "parallel.w" + std::to_string(workers);
    EmitMetric("fig8_merge_scan", cell + ".quiet", quiet, "s");
    EmitMetric("fig8_merge_scan", cell + ".updated", updated, "s");
  }
  return 0;
}
