// Ablation: workload skew. The paper's contention regimes come from
// shrinking a uniform active set; an alternative knob is Zipfian skew
// over the full table. Both concentrate writes; this bench shows that
// L-Store's advantage over the baselines persists (and grows) as skew
// rises, for the same reason as Figure 7(c): the baselines serialize
// on hot pages / frequent drains, while L-Store appends.

#include <cstdio>
#include <string>

#include "engines.h"

using namespace lstore::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::ParseOrDie(argc, argv);
  PrintHeader(args, "Ablation: Zipfian write skew",
              "L-Store's lead over IUH/DBM persists or grows with skew "
              "(append-only updates vs page latches / drains)");

  const uint64_t active = ActiveSet(args.rows, Contention::kMedium);
  const uint32_t threads = std::min(4u, MaxThreads(args));
  const double thetas[] = {0.5, 0.9, 0.99};

  std::printf("\n%-28s", "engine \\ zipf theta");
  for (double th : thetas) std::printf(" %9.2f", th);
  std::printf("   (K txns/s)\n");
  const EngineKind kinds[] = {EngineKind::kLStore, EngineKind::kIuh,
                              EngineKind::kDbm};
  for (EngineKind k : kinds) {
    auto engine = LoadedEngine(k, FigureTableConfig(), args.rows);
    std::printf("%-28s", EngineName(k));
    for (double th : thetas) {
      // Every other transaction is uniform over the medium-contention
      // active set; the rest draw keys from [0, z] for a Zipf draw z,
      // skewing writes toward the head of the key space.
      WorkloadResult r = RunPoint(
          args, threads,
          [&](uint32_t w, const std::atomic<int>* phase, WorkerStats* out) {
            lstore::Random rng(args.seed * 1000003ull + w);
            lstore::ZipfianGenerator zipf(active, th, 101 + w);
            bool hot = false;
            ClosedLoop(kOpUpdate, phase, out, [&] {
              hot = !hot;
              return engine->UpdateTxn(rng, hot ? zipf.Next() + 1 : active,
                                       kReadsPerTxn, kWritesPerTxn);
            });
          });
      double ktps = OpsPerSec(r, kOpUpdate) / 1000.0;
      std::printf(" %9.1f", ktps);
      std::fflush(stdout);
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%s.theta%.2f", EngineTag(k), th);
      EmitMetric("ablation_skew", cell, ktps, "Ktxn/s");
    }
    std::printf("\n");
  }
  return 0;
}
