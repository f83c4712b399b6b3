#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cpdb {

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// All randomised workloads in CPDB use this generator so that experiments
/// and property tests are exactly reproducible from a seed. Not suitable for
/// cryptographic use.
class Rng {
 public:
  /// Seeds the generator; the same seed always yields the same sequence.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, n). Precondition: n > 0.
  uint64_t NextBelow(uint64_t n);

  /// Uniform in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0,1]).
  bool NextBool(double p = 0.5);

  /// Picks a uniformly random element index of a non-empty container size.
  size_t NextIndex(size_t size) { return static_cast<size_t>(NextBelow(size)); }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBelow(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace cpdb
