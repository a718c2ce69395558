// Ablation (Section 3.1): cumulative vs non-cumulative updates.
// "Cumulative update is an optimization that is intended to improve
// the read performance" at the cost of copying carried columns on
// writes. We update two columns of hot records repeatedly, then
// measure point reads of both columns (which must walk further in the
// non-cumulative chain) and the update throughput.

#include "bench_common.h"
#include "core/table.h"

using namespace lstore::bench;
using namespace lstore;

namespace {

double MeasureReads(Table& table, uint64_t rows, int iters) {
  std::vector<Value> out;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    Txn txn = table.Begin();
    (void)table.Read(txn, i % rows, 0b0110, &out);
    (void)txn.Commit();
  }
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / iters;
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed sizes: only the shared flags' reporting applies here.
  BenchArgs args = BenchArgs::ParseOrDie(argc, argv);
  PrintHeader(args,
              "Ablation: cumulative vs non-cumulative updates (Section 3.1)",
              "cumulation trades write-side copying for shorter read chains; "
              "reads win, writes pay slightly");

  constexpr uint64_t kRows = 512;
  constexpr int kUpdateRounds = 40;

  std::printf("\n%-18s %18s %20s %14s\n", "mode", "read latency (us)",
              "updates/s (1 thread)", "chain hops");
  for (bool cumulative : {true, false}) {
    TableConfig tc;
    tc.range_size = 1u << 12;
    tc.merge_threshold = 1u << 30;  // no merges: isolate chain effects
    tc.enable_merge_thread = false;
    tc.cumulative_updates = cumulative;
    Table table("abl", Schema(11), tc);
    {
      Txn txn = table.Begin();
      std::vector<Value> row(11, 1);
      for (Value k = 0; k < kRows; ++k) {
        row[0] = k;
        (void)table.Insert(txn, row);
      }
      (void)txn.Commit();
    }
    // Alternate updates of columns 1 and 2 so the latest version of
    // each column lands in different tail records without cumulation.
    auto t0 = std::chrono::steady_clock::now();
    uint64_t updates = 0;
    for (int round = 0; round < kUpdateRounds; ++round) {
      for (Value k = 0; k < kRows; ++k) {
        Txn txn = table.Begin();
        std::vector<Value> row(11, 0);
        ColumnMask mask = (round % 2 == 0) ? 0b0010 : 0b0100;
        row[1] = row[2] = round;
        if (table.Update(txn, k, mask, row).ok()) {
          (void)txn.Commit();
          ++updates;
        } else {
          txn.Abort();
        }
      }
    }
    auto t1 = std::chrono::steady_clock::now();
    double upd_per_s =
        updates / std::chrono::duration<double>(t1 - t0).count();

    auto tail_hops = [&table] {
      return table.metrics()->Snapshot().CounterValue(
          "lstore_read_tail_hops_total");
    };
    uint64_t hops_before = tail_hops();
    double read_us = MeasureReads(table, kRows, 2000);
    uint64_t hops = tail_hops() - hops_before;

    const char* mode = cumulative ? "cumulative" : "non-cumulative";
    std::printf("%-18s %18.2f %20.0f %14.2f\n", mode, read_us, upd_per_s,
                hops / 2000.0);
    std::fflush(stdout);
    std::string cell = mode;
    EmitMetric("ablation_cumulation", cell + ".read", read_us, "us");
    EmitMetric("ablation_cumulation", cell + ".update", upd_per_s, "ops/s");
    EmitMetric("ablation_cumulation", cell + ".hops", hops / 2000.0, "hops");
  }
  return 0;
}
