// Table 8: scan performance of L-Store (Column) vs L-Store (Row),
// with no updates and with 16 concurrent update threads.
//
// Paper: columnar wins 4.56x without updates and 2.75x with updates
// (and would win more with column compression enabled).

#include <string>

#include "engines.h"

using namespace lstore::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::ParseOrDie(argc, argv);
  PrintHeader(args, "Table 8: scan performance, row vs columnar layout",
              "L-Store (Column) beats L-Store (Row) ~4.56x without updates "
              "and ~2.75x with 16 update threads");

  const uint32_t writers = std::min(16u, MaxThreads(args));

  std::printf("\n%-24s %22s %22s\n", "layout", "scan, no updates (s)",
              "scan, with updates (s)");
  const EngineKind kinds[] = {EngineKind::kLStore, EngineKind::kLStoreRow};
  for (EngineKind k : kinds) {
    auto engine = LoadedEngine(k, FigureTableConfig(), args.rows);
    double idle = MedianSecs(RunMix(args, *engine, args.rows, 0, 1), kOpScan);
    double busy =
        MedianSecs(RunMix(args, *engine, args.rows, writers, 1), kOpScan);
    std::printf("%-24s %22.4f %22.4f\n",
                k == EngineKind::kLStore ? "L-Store (Column)" : "L-Store (Row)",
                idle, busy);
    std::fflush(stdout);
    EmitMetric("table8_layout", std::string(EngineTag(k)) + ".idle", idle,
               "s");
    EmitMetric("table8_layout", std::string(EngineTag(k)) + ".updated", busy,
               "s");
  }
  return 0;
}
