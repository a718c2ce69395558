// Table 7: single-threaded scan performance of the three engines with
// 16 concurrent update threads (low contention, 4K update ranges).
//
// Paper: L-Store 0.24 s, In-place Update + History 0.28 s,
// Delta + Blocking Merge 0.38 s (L-Store wins by 14.28% / 36.84%).

#include "engines.h"

using namespace lstore::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::ParseOrDie(argc, argv);
  PrintHeader(args, "Table 7: scan performance across engines",
              "L-Store < IUH < DBM (0.24 / 0.28 / 0.38 s on the paper's "
              "hardware; shape, not absolute values, is the target)");

  const uint32_t writers = std::min(16u, MaxThreads(args));

  std::printf("\n%-32s %16s\n", "engine", "scan time (s)");
  const EngineKind kinds[] = {EngineKind::kLStore, EngineKind::kIuh,
                              EngineKind::kDbm};
  for (EngineKind k : kinds) {
    auto engine = LoadedEngine(k, FigureTableConfig(), args.rows);
    WorkloadResult r = RunMix(args, *engine, args.rows, writers, 1);
    double secs = MedianSecs(r, kOpScan);
    std::printf("%-32s %16.4f\n", EngineName(k), secs);
    std::fflush(stdout);
    EmitMetric("table7_scan", EngineTag(k), secs, "s");
  }
  return 0;
}
