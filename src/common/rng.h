// Deterministic pseudo-random number generation.
//
// Everything stochastic in this repository (Monte Carlo analysis, the discrete-event simulator,
// telemetry synthesis) draws from `Rng`, a xoshiro256** generator seeded via SplitMix64. Runs
// are reproducible: the same seed yields the same stream on every platform.
//
// `Rng` satisfies the UniformRandomBitGenerator concept, so it also works with <random>
// distributions, but the built-in helpers below are preferred because their output is
// platform-stable (libstdc++/libc++ distributions are not).

#ifndef PROBCON_SRC_COMMON_RNG_H_
#define PROBCON_SRC_COMMON_RNG_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/check.h"

namespace probcon {

// SplitMix64 step; used for seeding and as a cheap stateless mixer.
inline uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Derives the seed of logical stream `stream_id` under root `seed`.
//
// THE CHUNK SEEDING SCHEME (used by every parallelized sampler in the toolkit —
// ReliabilityAnalyzer::EstimateEventProbability and any exec::ParallelReduce loop that
// draws randomness): a run with a caller-provided seed `s`
// splits its trials into fixed-size chunks and gives chunk c its own generator,
//
//   Rng rng(DeriveStreamSeed(s, c));
//
// Because the stream depends only on (s, c) — never on which thread runs the chunk or how
// many threads exist — estimates are reproducible bit-for-bit across PROBCON_THREADS
// settings, and distinct chunks get decorrelated xoshiro initializations (two SplitMix64
// outputs of the pair are XOR-folded, so nearby (seed, stream) pairs map to distant
// states). The fixed chunk size is part of the result's definition: changing it changes
// which trial draws which variate, exactly like reordering a sequential stream.
inline uint64_t DeriveStreamSeed(uint64_t seed, uint64_t stream_id) {
  uint64_t state = seed + 0x9E3779B97F4A7C15ULL * (stream_id + 1);
  const uint64_t first = SplitMix64(state);
  return first ^ SplitMix64(state);
}

// xoshiro256** 1.0 (Blackman & Vigna), a fast, high-quality 64-bit PRNG.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x853C49E6748FEA9BULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) {
      word = SplitMix64(sm);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<uint64_t>::max(); }

  uint64_t operator()() { return Next(); }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Uniform integer in [0, bound) without modulo bias (Lemire's method with rejection).
  uint64_t NextBelow(uint64_t bound) {
    DCHECK(bound > 0);
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    DCHECK(lo <= hi);
    return lo + static_cast<int64_t>(NextBelow(static_cast<uint64_t>(hi - lo) + 1));
  }

  // Bernoulli trial with success probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  // Exponential with rate lambda (mean 1/lambda).
  double NextExponential(double lambda) {
    DCHECK(lambda > 0.0);
    // 1 - NextDouble() is in (0, 1], so the log is finite.
    return -std::log1p(-NextDouble()) / lambda;
  }

  // Standard normal via Box-Muller (platform-stable, unlike std::normal_distribution).
  double NextNormal() {
    if (have_cached_normal_) {
      have_cached_normal_ = false;
      return cached_normal_;
    }
    double u1 = NextDouble();
    while (u1 <= 0.0) {
      u1 = NextDouble();
    }
    const double u2 = NextDouble();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * 3.14159265358979323846 * u2;
    cached_normal_ = radius * std::sin(angle);
    have_cached_normal_ = true;
    return radius * std::cos(angle);
  }

  double NextNormal(double mean, double stddev) { return mean + stddev * NextNormal(); }

  // Weibull with shape k and scale lambda (inverse-CDF method).
  double NextWeibull(double shape, double scale) {
    DCHECK(shape > 0.0);
    DCHECK(scale > 0.0);
    double u = NextDouble();
    while (u <= 0.0) {
      u = NextDouble();
    }
    return scale * std::pow(-std::log(u), 1.0 / shape);
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      const size_t j = NextBelow(i);
      std::swap(items[i - 1], items[j]);
    }
  }

  // Samples `k` distinct indices from [0, n) in uniformly random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  // Derives an independent generator; stream `i` is stable for a given parent seed.
  Rng Fork(uint64_t stream_id) {
    uint64_t sm = Next() ^ (0xD1342543DE82EF95ULL * (stream_id + 1));
    return Rng(SplitMix64(sm));
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool have_cached_normal_ = false;
};

}  // namespace probcon

#endif  // PROBCON_SRC_COMMON_RNG_H_
