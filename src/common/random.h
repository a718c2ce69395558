// Pseudo-random generators for the benchmark harness and tests.
//
// The micro benchmark of [18, 33] draws keys uniformly from a
// configurable *active set*; we additionally provide a Zipfian
// generator for skewed-workload ablations.

#ifndef LSTORE_COMMON_RANDOM_H_
#define LSTORE_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace lstore {

/// xorshift128+ generator: fast, decent quality, reproducible.
class Random {
 public:
  explicit Random(uint64_t seed = 0x9e3779b97f4a7c15ull) {
    s0_ = seed ^ 0x2545f4914f6cdd1dull;
    s1_ = seed * 0xbf58476d1ce4e5b9ull + 1;
    for (int i = 0; i < 8; ++i) Next();
  }

  uint64_t Next() {
    uint64_t x = s0_;
    const uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return n == 0 ? 0 : Next() % n; }

  /// True with probability pct/100.
  bool Percent(uint32_t pct) { return Uniform(100) < pct; }

  double NextDouble() {  // [0, 1)
    return static_cast<double>(Next() >> 11) * (1.0 / (1ull << 53));
  }

 private:
  uint64_t s0_, s1_;
};

/// Zipfian distribution over [0, n) using the Gray et al. method
/// (as popularized by YCSB). theta in (0, 1); higher = more skew.
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta, uint64_t seed = 1);

  uint64_t Next();

  uint64_t n() const { return n_; }

 private:
  double Zeta(uint64_t n, double theta) const;

  uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
  double zeta2theta_;
  Random rng_;
};

/// FNV-1a over the 8 bytes of `v` (the YCSB key-scrambling hash).
inline uint64_t FnvHash64(uint64_t v) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Zipfian-distributed *popularity ranks* hashed across the key space
/// (YCSB's ScrambledZipfian): item popularity follows a Zipfian law,
/// but the hot items are scattered uniformly over [0, n) instead of
/// clustering at the low keys — so skewed workloads still spread
/// across index shards and update ranges the way production hotspots
/// do. Deterministic per (n, theta, seed).
class ScrambledZipfianGenerator {
 public:
  ScrambledZipfianGenerator(uint64_t n, double theta, uint64_t seed = 1)
      : n_(n), zipf_(n, theta, seed) {}

  uint64_t Next() { return FnvHash64(zipf_.Next()) % n_; }

  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  ZipfianGenerator zipf_;
};

/// Workload key source: uniform or scrambled-zipfian over [0, n).
class KeyGenerator {
 public:
  /// theta <= 0 selects uniform; otherwise scrambled-zipfian(theta).
  KeyGenerator(uint64_t n, double theta, uint64_t seed)
      : uniform_(theta <= 0.0),
        n_(n),
        rng_(seed),
        zipf_(n, theta > 0.0 ? theta : 0.5, seed) {}

  uint64_t Next() { return uniform_ ? rng_.Uniform(n_) : zipf_.Next(); }

  uint64_t n() const { return n_; }

 private:
  bool uniform_;
  uint64_t n_;
  Random rng_;
  ScrambledZipfianGenerator zipf_;
};

}  // namespace lstore

#endif  // LSTORE_COMMON_RANDOM_H_
