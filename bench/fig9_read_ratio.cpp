// Figure 9: transaction throughput vs. percentage of reads in short
// update transactions (0% .. 100%), 16 update threads, low (a) and
// medium (b) contention.
//
// Paper: all engines improve as reads grow (contention is a function
// of writes); L-Store leads by up to 1.45x/5.78x (low) and
// 4.19x/6.34x (medium) over IUH/DBM; the gap is smallest at 100%
// reads.

#include <string>

#include "engines.h"

using namespace lstore::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::ParseOrDie(argc, argv);
  PrintHeader(args, "Figure 9: impact of the read/write ratio",
              "throughput rises with read share; L-Store leads, gap narrows "
              "at 100% reads");

  const Contention levels[] = {Contention::kLow, Contention::kMedium};
  const EngineKind kinds[] = {EngineKind::kLStore, EngineKind::kIuh,
                              EngineKind::kDbm};
  const uint32_t read_pcts[] = {0, 20, 40, 60, 80, 100};
  const uint32_t threads = std::min(16u, MaxThreads(args));

  for (Contention c : levels) {
    const uint64_t active = ActiveSet(args.rows, c);
    std::printf("\n--- Fig 9(%c): %s contention, %u update threads ---\n",
                c == Contention::kLow ? 'a' : 'b', ContentionName(c),
                threads);
    std::printf("%-28s", "engine \\ read %");
    for (uint32_t p : read_pcts) std::printf(" %9u", p);
    std::printf("   (K txns/s)\n");

    for (EngineKind k : kinds) {
      auto engine = LoadedEngine(k, FigureTableConfig(), args.rows);
      std::printf("%-28s", EngineName(k));
      for (uint32_t pct : read_pcts) {
        // 10 statements per txn, `pct` percent of them reads.
        const uint32_t reads = pct / 10;
        WorkloadResult r = RunMix(args, *engine, active, threads,
                                  /*scanners=*/1, reads, 10 - reads);
        double ktps = OpsPerSec(r, kOpUpdate) / 1000.0;
        std::printf(" %9.1f", ktps);
        std::fflush(stdout);
        EmitMetric("fig9_read_ratio",
                   std::string(ContentionName(c)) + "." + EngineTag(k) +
                       ".r" + std::to_string(pct),
                   ktps, "Ktxn/s");
      }
      std::printf("\n");
    }
  }
  return 0;
}
