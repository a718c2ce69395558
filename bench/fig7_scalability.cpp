// Figure 7: transaction throughput vs. number of parallel short update
// transactions, under low (a), medium (b), and high (c) contention.
// Engines: L-Store, In-place Update + History, Delta + Blocking Merge.
// One scan thread and the engines' merge threads run throughout
// (Section 6.1).

#include <string>

#include "engines.h"

using namespace lstore::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::ParseOrDie(argc, argv);
  PrintHeader(
      args, "Figure 7: scalability under varying contention",
      "low: L-Store ~ IUH scale, DBM flat; medium: L-Store up to 5.09x IUH, "
      "8.54x DBM; high: up to 40.56x IUH, 14.51x DBM");

  const Contention levels[] = {Contention::kLow, Contention::kMedium,
                               Contention::kHigh};
  const EngineKind kinds[] = {EngineKind::kLStore, EngineKind::kIuh,
                              EngineKind::kDbm};
  auto threads = ThreadPoints(args);

  for (Contention c : levels) {
    const uint64_t active = ActiveSet(args.rows, c);
    std::printf("\n--- Fig 7(%c): %s contention (active set %llu of %llu "
                "rows) ---\n",
                c == Contention::kLow ? 'a'
                : c == Contention::kMedium ? 'b' : 'c',
                ContentionName(c), static_cast<unsigned long long>(active),
                static_cast<unsigned long long>(args.rows));
    std::printf("%-28s", "engine \\ update threads");
    for (uint32_t t : threads) std::printf(" %10u", t);
    std::printf("   (K txns/s)\n");

    for (EngineKind k : kinds) {
      auto engine = LoadedEngine(k, FigureTableConfig(), args.rows);
      std::printf("%-28s", EngineName(k));
      for (uint32_t t : threads) {
        WorkloadResult r = RunMix(args, *engine, active, t, /*scanners=*/1);
        double ktps = OpsPerSec(r, kOpUpdate) / 1000.0;
        std::printf(" %10.1f", ktps);
        std::fflush(stdout);
        EmitMetric("fig7_scalability",
                   std::string(ContentionName(c)) + "." + EngineTag(k) +
                       ".t" + std::to_string(t),
                   ktps, "Ktxn/s");
      }
      std::printf("\n");
    }
  }
  return 0;
}
