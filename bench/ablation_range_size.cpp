// Ablation (Section 4.4): update-range size trade-offs. The paper
// argues 2^12 .. 2^16 records per range is the sweet spot: smaller
// ranges waste half-filled tail pages; larger ranges hurt tail-page
// locality during scans. We sweep range sizes at a fixed workload and
// report update throughput and scan latency.

#include <string>

#include "engines.h"

using namespace lstore::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::ParseOrDie(argc, argv);
  PrintHeader(args, "Ablation: update range size (Section 4.4)",
              "ranges of 2^12..2^16 balance locality vs fragmentation; "
              "extremes lose on scan locality or space");

  const uint32_t range_sizes[] = {1u << 8, 1u << 10, 1u << 12, 1u << 14};
  const uint32_t writers = std::min(4u, MaxThreads(args));

  std::printf("\n%-14s %16s %16s\n", "range size", "upd K txns/s",
              "scan secs");
  for (uint32_t rs : range_sizes) {
    auto engine = LoadedEngine(EngineKind::kLStore,
                               FigureTableConfig(rs, rs / 2), args.rows);
    WorkloadResult r = RunMix(args, *engine, args.rows, writers, 1);
    double ktps = OpsPerSec(r, kOpUpdate) / 1000.0;
    double scan = MedianSecs(r, kOpScan);
    std::printf("%-14u %16.1f %16.4f\n", rs, ktps, scan);
    std::fflush(stdout);
    std::string cell = "r" + std::to_string(rs);
    EmitMetric("ablation_range_size", cell + ".update", ktps, "Ktxn/s");
    EmitMetric("ablation_range_size", cell + ".scan", scan, "s");
  }
  return 0;
}
