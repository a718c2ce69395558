// Table 9: point-query throughput vs. the percentage of columns each
// read fetches (10% .. 100%), L-Store (Column) vs L-Store (Row).
// Transactions of 10 point reads on a 10-column table.
//
// Paper: columnar matches row at 10-20% of columns, degrades as more
// columns are fetched, worst case -33% when all columns are read;
// row stays flat (~1.45 M txns/s on their hardware).

#include <string>

#include "engines.h"

using namespace lstore::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::ParseOrDie(argc, argv);
  PrintHeader(args, "Table 9: point queries vs % of columns read",
              "columnar ~ row at 10-20% of columns; columnar drops ~33% in "
              "the all-columns worst case; row flat");

  const uint32_t threads = std::min(4u, MaxThreads(args));

  const uint32_t col_counts[] = {1, 2, 4, 8, 10};  // of 10 data columns
  std::printf("\n%-20s", "layout \\ %cols");
  for (uint32_t c : col_counts) std::printf(" %9u%%", c * 10);
  std::printf("   (K txns/s, %u threads, 10 reads/txn)\n", threads);

  const EngineKind kinds[] = {EngineKind::kLStore, EngineKind::kLStoreRow};
  for (EngineKind k : kinds) {
    auto engine = LoadedEngine(k, FigureTableConfig(), args.rows);
    std::printf("%-20s", k == EngineKind::kLStore ? "L-Store (Column)"
                                                  : "L-Store (Row)");
    for (uint32_t ncols : col_counts) {
      // Fetch the first `ncols` data columns (columns 1..ncols).
      lstore::ColumnMask mask = 0;
      for (uint32_t c = 1; c <= ncols; ++c) mask |= 1ull << c;
      WorkloadResult r = RunPoint(
          args, threads,
          [&](uint32_t w, const std::atomic<int>* phase, WorkerStats* out) {
            lstore::Random rng(args.seed * 1000003ull + w);
            ClosedLoop(kOpRead, phase, out, [&] {
              return engine->PointReadTxn(rng, args.rows, /*reads=*/10, mask);
            });
          });
      double ktps = OpsPerSec(r, kOpRead) / 1000.0;
      std::printf(" %10.1f", ktps);
      std::fflush(stdout);
      EmitMetric("table9_point_query",
                 std::string(EngineTag(k)) + ".c" + std::to_string(ncols * 10),
                 ktps, "Ktxn/s");
    }
    std::printf("\n");
  }
  return 0;
}
