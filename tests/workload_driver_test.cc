// Unit tests for the shared bench-driver API (bench/bench_common.h)
// and its key generators (src/common/random.h): scrambled-zipfian
// shape and determinism, latency-reservoir percentiles validated
// against the engine's log-scale obs Histogram, and the OpMix /
// SloSpec / BenchArgs parsers the whole bench suite shares. The
// figures' engine adapters (bench/engines.h) are driven through one
// short sweep point each.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engines.h"
#include "common/random.h"
#include "obs/metrics.h"

namespace lstore {
namespace {

using bench::BenchArgs;
using bench::LatencyReservoir;
using bench::OpMix;
using bench::SloSpec;

// --- scrambled zipfian -----------------------------------------------------

TEST(ScrambledZipfian, SameSeedSameSequence) {
  ScrambledZipfianGenerator a(10000, 0.99, 7);
  ScrambledZipfianGenerator b(10000, 0.99, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(ScrambledZipfian, DifferentSeedsDiverge) {
  ScrambledZipfianGenerator a(10000, 0.99, 7);
  ScrambledZipfianGenerator b(10000, 0.99, 8);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 50);
}

TEST(ScrambledZipfian, StaysInRange) {
  const uint64_t n = 1000;
  ScrambledZipfianGenerator gen(n, 0.99, 3);
  for (int i = 0; i < 100000; ++i) EXPECT_LT(gen.Next(), n);
}

// The scramble scatters the zipfian *ranks* across the keyspace, but
// must preserve the frequency distribution: a handful of (arbitrary)
// keys soaks up a large share of the draws, far beyond anything a
// uniform draw produces.
TEST(ScrambledZipfian, SkewedShapeSurvivesScramble) {
  const uint64_t n = 1000;
  const int kDraws = 100000;
  auto top_share = [&](auto& gen) {
    std::map<uint64_t, uint64_t> freq;
    for (int i = 0; i < kDraws; ++i) ++freq[gen.Next()];
    std::vector<uint64_t> counts;
    for (const auto& [k, c] : freq) counts.push_back(c);
    std::sort(counts.rbegin(), counts.rend());
    uint64_t top10 = 0;
    for (size_t i = 0; i < 10 && i < counts.size(); ++i) top10 += counts[i];
    return static_cast<double>(top10) / kDraws;
  };

  ScrambledZipfianGenerator zipf(n, 0.99, 11);
  double zipf_top = top_share(zipf);

  KeyGenerator uniform(n, 0.0, 11);  // theta 0 = uniform
  double uniform_top = top_share(uniform);

  // Zipf(0.99, n=1000): the 10 hottest keys draw ~30% of the mass;
  // uniform gives each key 0.1%, so its top 10 sit near 1%.
  EXPECT_GT(zipf_top, 0.20);
  EXPECT_LT(uniform_top, 0.05);
  EXPECT_GT(zipf_top, uniform_top * 4);
}

TEST(KeyGenerator, UniformCoversKeyspace) {
  const uint64_t n = 100;
  KeyGenerator gen(n, 0.0, 5);
  std::vector<bool> seen(n, false);
  for (int i = 0; i < 10000; ++i) seen[gen.Next()] = true;
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

// --- latency reservoir -----------------------------------------------------

TEST(LatencyReservoir, ExactPercentilesUnderCap) {
  LatencyReservoir r;
  for (uint64_t v = 1; v <= 1000; ++v) r.Record(v);
  EXPECT_EQ(r.count(), 1000u);
  EXPECT_NEAR(static_cast<double>(r.PercentileNs(0.50)), 500, 2);
  EXPECT_NEAR(static_cast<double>(r.PercentileNs(0.99)), 990, 2);
  EXPECT_EQ(r.PercentileNs(0.0), 1u);
  EXPECT_EQ(r.PercentileNs(1.0), 1000u);
}

TEST(LatencyReservoir, MergePoolsSamples) {
  LatencyReservoir a, b;
  for (uint64_t v = 1; v <= 500; ++v) a.Record(v);
  for (uint64_t v = 501; v <= 1000; ++v) b.Record(v);
  a.Merge(b);
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_NEAR(static_cast<double>(a.PercentileNs(0.50)), 500, 2);
}

// The engine's obs Histogram has <= 25% relative bucket width and its
// Percentile() is a bounded overestimate (the bucket's upper bound).
// The reservoir's exact-sample percentile must land within that band:
// at or below the histogram's answer, and no more than 25% below it.
TEST(LatencyReservoir, AgreesWithObsHistogramWithinBucketError) {
  LatencyReservoir r(1u << 16);
  Histogram h;
  Random rng(99);
  // A long-tailed latency-like distribution: mix of a tight body and
  // a sparse tail, like a real op-latency profile.
  for (int i = 0; i < 50000; ++i) {
    uint64_t v = 1000 + rng.Uniform(2000);        // body: 1-3us
    if (rng.Uniform(100) < 2) v += rng.Uniform(200000);  // 2% tail
    r.Record(v);
    h.Record(v);
  }
  HistogramSnapshot snap = h.Snapshot();
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    double exact = static_cast<double>(r.PercentileNs(q));
    double bucketed = static_cast<double>(snap.Percentile(q));
    EXPECT_LE(exact, bucketed * 1.001)
        << "q=" << q << " exact=" << exact << " hist=" << bucketed;
    EXPECT_GE(exact, bucketed * 0.75 - 1.0)
        << "q=" << q << " exact=" << exact << " hist=" << bucketed;
  }
}

TEST(LatencyReservoir, SamplesPastCapStayRepresentative) {
  LatencyReservoir r(1024, 3);
  // 100k uniform values through a 1k-slot reservoir: percentile
  // estimates stay near the true quantiles (generous tolerance — the
  // reservoir is for tail *reporting*, not statistics).
  for (uint64_t i = 0; i < 100000; ++i) r.Record(i % 10000);
  EXPECT_EQ(r.count(), 100000u);
  EXPECT_NEAR(static_cast<double>(r.PercentileNs(0.5)), 5000, 1500);
  EXPECT_GT(r.PercentileNs(0.99), r.PercentileNs(0.5));
}

// --- OpMix -----------------------------------------------------------------

TEST(OpMix, ParsesFullSpec) {
  OpMix m;
  std::string err;
  ASSERT_TRUE(
      m.Parse("read=70,update=20,insert=5,delete=1,scan=2,multiread=2", &err))
      << err;
  EXPECT_EQ(m.read, 70u);
  EXPECT_EQ(m.update, 20u);
  EXPECT_EQ(m.insert, 5u);
  EXPECT_EQ(m.del, 1u);
  EXPECT_EQ(m.scan, 2u);
  EXPECT_EQ(m.multiread, 2u);
}

TEST(OpMix, OmittedClassesZero) {
  OpMix m;  // defaults read=95, update=5
  std::string err;
  ASSERT_TRUE(m.Parse("read=100", &err)) << err;
  EXPECT_EQ(m.read, 100u);
  EXPECT_EQ(m.update, 0u);
}

TEST(OpMix, RejectsBadSpecs) {
  OpMix m;
  std::string err;
  EXPECT_FALSE(m.Parse("read=50", &err));          // doesn't total 100
  EXPECT_FALSE(m.Parse("read=99,write=1", &err));  // unknown class
  EXPECT_FALSE(m.Parse("read", &err));             // no '='
}

// --- SloSpec ---------------------------------------------------------------

TEST(SloSpec, UpperAndLowerBounds) {
  SloSpec slo;
  std::string err;
  ASSERT_TRUE(slo.Parse("p99_read_us=500,min_total_ops_s=1000", &err)) << err;
  ASSERT_EQ(slo.bounds.size(), 2u);
  EXPECT_FALSE(slo.bounds[0].lower);
  EXPECT_EQ(slo.bounds[0].stat, "p99_read_us");
  EXPECT_TRUE(slo.bounds[1].lower);
  EXPECT_EQ(slo.bounds[1].stat, "total_ops_s");

  std::map<std::string, double> ok_stats{{"p99_read_us", 499.0},
                                         {"total_ops_s", 1001.0}};
  std::vector<std::string> v;
  EXPECT_EQ(slo.Check(ok_stats, &v), 0u);
  EXPECT_TRUE(v.empty());

  std::map<std::string, double> bad_stats{{"p99_read_us", 501.0},
                                          {"total_ops_s", 999.0}};
  EXPECT_EQ(slo.Check(bad_stats, &v), 2u);
  EXPECT_EQ(v.size(), 2u);
}

TEST(SloSpec, MissingStatIsViolation) {
  SloSpec slo;
  std::string err;
  ASSERT_TRUE(slo.Parse("p99_scan_us=100", &err)) << err;
  std::vector<std::string> v;
  EXPECT_EQ(slo.Check({}, &v), 1u);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("not measured"), std::string::npos);
}

TEST(SloSpec, RejectsBadSpecs) {
  SloSpec slo;
  std::string err;
  EXPECT_FALSE(slo.Parse("p99_read_us", &err));  // no '='
  EXPECT_FALSE(slo.Parse("min_=5", &err));       // empty stat after prefix
}

// --- BenchArgs -------------------------------------------------------------

TEST(BenchArgs, ParsesSharedVocabulary) {
  const char* argv[] = {"bench",        "--rows",   "5000",  "--threads",
                        "1,2,4",        "--theta",  "0.5",   "--mix",
                        "read=100",     "--mode",   "wire",  "--port",
                        "7411",         "--slo",    "p99_read_us=500"};
  BenchArgs args;
  std::string err;
  ASSERT_TRUE(args.Parse(15, const_cast<char**>(argv), &err)) << err;
  EXPECT_EQ(args.rows, 5000u);
  EXPECT_EQ(args.threads, (std::vector<uint32_t>{1, 2, 4}));
  EXPECT_DOUBLE_EQ(args.theta, 0.5);
  EXPECT_EQ(args.mix.read, 100u);
  EXPECT_EQ(args.mode, "wire");
  EXPECT_EQ(args.port, 7411);
  EXPECT_EQ(args.slo.bounds.size(), 1u);
}

TEST(BenchArgs, RejectsUnknownAndTruncatedFlags) {
  std::string err;
  {
    const char* argv[] = {"bench", "--frobnicate", "1"};
    BenchArgs args;
    EXPECT_FALSE(args.Parse(3, const_cast<char**>(argv), &err));
  }
  {
    const char* argv[] = {"bench", "--rows"};
    BenchArgs args;
    EXPECT_FALSE(args.Parse(2, const_cast<char**>(argv), &err));
    EXPECT_NE(err.find("missing value"), std::string::npos);
  }
}

TEST(BenchArgs, DistUniformZeroesTheta) {
  const char* argv[] = {"bench", "--dist", "uniform"};
  BenchArgs args;
  std::string err;
  ASSERT_TRUE(args.Parse(3, const_cast<char**>(argv), &err)) << err;
  EXPECT_DOUBLE_EQ(args.theta, 0.0);
}

TEST(BenchArgs, ThreadPointsTakeAListOrACap) {
  BenchArgs args;
  args.threads = {4};
  EXPECT_EQ(bench::ThreadPoints(args), (std::vector<uint32_t>{1, 2, 4}));
  args.threads = {3, 1};
  EXPECT_EQ(bench::ThreadPoints(args), (std::vector<uint32_t>{3, 1}));
  EXPECT_EQ(bench::MaxThreads(args), 3u);
  args.threads = {0};
  EXPECT_EQ(bench::ThreadPoints(args), (std::vector<uint32_t>{1}));
}

// --- figure engines --------------------------------------------------------

TEST(FigureEngines, ContentionSplitsTheRows) {
  using bench::Contention;
  EXPECT_EQ(bench::ActiveSet(20000, Contention::kLow), 20000u);
  EXPECT_EQ(bench::ActiveSet(20000, Contention::kMedium), 200u);
  EXPECT_EQ(bench::ActiveSet(20000, Contention::kHigh), 20u);
  EXPECT_EQ(bench::ActiveSet(50, Contention::kHigh), 1u);
}

// Every engine loads, scans the loaded values, and runs one contended
// sweep point of the Section 6 mix without errors: updates and scans
// both complete, and write-write conflicts land in `aborts`.
TEST(FigureEngines, EveryEngineRunsTheMix) {
  using bench::EngineKind;
  BenchArgs args;
  args.warmup_ms = 20;
  args.duration_ms = 100;
  constexpr uint64_t kRows = 2000;
  uint64_t expect = 0;
  for (uint64_t k = 0; k < kRows; ++k) expect += k * 7 + 1;
  for (EngineKind kind : {EngineKind::kLStore, EngineKind::kLStoreRow,
                          EngineKind::kIuh, EngineKind::kDbm}) {
    SCOPED_TRACE(bench::EngineName(kind));
    auto engine =
        bench::LoadedEngine(kind, bench::FigureTableConfig(256, 128), kRows);
    uint64_t sum = 0;
    ASSERT_TRUE(engine->ScanSum(&sum).ok());
    EXPECT_EQ(sum, expect);
    bench::WorkloadResult r =
        bench::RunMix(args, *engine, /*active=*/20, /*updaters=*/3,
                      /*scanners=*/1);
    EXPECT_GT(r.stats.ops[bench::kOpUpdate], 0u);
    EXPECT_GT(r.stats.ops[bench::kOpScan], 0u);
    EXPECT_EQ(r.stats.errors, 0u);
  }
}

}  // namespace
}  // namespace lstore
