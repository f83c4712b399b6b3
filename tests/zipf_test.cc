// The rejection-free Zipfian sampler (src/workload/zipf.h): determinism
// from a seed, the analytic mass function, and — the property the load
// rig's skew depends on — sampled frequencies pinned against Probability.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "workload/zipf.h"

namespace cpdb::workload {
namespace {

TEST(ZipfTest, DeterministicFromSeed) {
  ZipfGenerator a(1000, 0.99, 7);
  ZipfGenerator b(1000, 0.99, 7);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.Next(), b.Next());
  ZipfGenerator c(1000, 0.99, 7);
  ZipfGenerator d(1000, 0.99, 7);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(c.NextScrambled(), d.NextScrambled());
}

TEST(ZipfTest, RanksStayInRange) {
  ZipfGenerator gen(37, 0.9, 11);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_LT(gen.Next(), 37u);
    ASSERT_LT(gen.NextScrambled(), 37u);
  }
}

TEST(ZipfTest, ProbabilityIsANormalizedDecreasingMass) {
  ZipfGenerator gen(500, 0.99, 1);
  double sum = 0;
  for (uint64_t r = 0; r < gen.n(); ++r) {
    sum += gen.Probability(r);
    if (r > 0) {
      EXPECT_LT(gen.Probability(r), gen.Probability(r - 1));
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

/// The skew pin: with theta=0.99 over 1000 keys, the sampled frequency
/// of the hottest ranks and the total mass on the top decile must match
/// the analytic distribution. This is what makes the load rig's
/// "zipf 0.99" knob mean the same thing on every machine.
TEST(ZipfTest, SampledFrequenciesMatchAnalyticMass) {
  constexpr uint64_t kN = 1000;
  constexpr size_t kSamples = 400000;
  ZipfGenerator gen(kN, 0.99, 12345);
  std::vector<size_t> hist(kN, 0);
  for (size_t i = 0; i < kSamples; ++i) hist[gen.Next()]++;

  // Ranks 0 and 1 are exact in the Gray inverse-CDF construction (they
  // get dedicated branches), so pin them tightly; deeper ranks come from
  // the continuous approximation, which runs up to ~20% hot at small
  // ranks, so give them proportionate slack.
  for (uint64_t r : {0ull, 1ull}) {
    double expected = gen.Probability(r) * kSamples;
    EXPECT_NEAR(hist[r], expected, expected * 0.05 + 30) << "rank " << r;
  }
  for (uint64_t r : {2ull, 10ull}) {
    double expected = gen.Probability(r) * kSamples;
    EXPECT_NEAR(hist[r], expected, expected * 0.25 + 50) << "rank " << r;
  }
  // Top decile mass: the signature of heavy skew (~0.69 analytic for
  // theta=0.99 over 1000 keys; the sampled mass lands close because the
  // approximation's per-rank error largely cancels over the decile).
  double analytic_top = 0;
  size_t sampled_top = 0;
  for (uint64_t r = 0; r < kN / 10; ++r) {
    analytic_top += gen.Probability(r);
    sampled_top += hist[r];
  }
  EXPECT_GT(analytic_top, 0.65);
  EXPECT_NEAR(static_cast<double>(sampled_top) / kSamples, analytic_top,
              0.04);
}

TEST(ZipfTest, ThetaZeroDegeneratesToUniform) {
  constexpr uint64_t kN = 16;
  constexpr size_t kSamples = 160000;
  ZipfGenerator gen(kN, 0.0, 99);
  std::vector<size_t> hist(kN, 0);
  for (size_t i = 0; i < kSamples; ++i) hist[gen.Next()]++;
  for (uint64_t r = 0; r < kN; ++r) {
    EXPECT_NEAR(hist[r], kSamples / kN, kSamples / kN * 0.06) << "rank " << r;
  }
}

/// Scrambling reassigns which key is hot but must not change how hot the
/// hot key is: the largest scrambled frequency matches Probability(0)
/// (up to FNV collisions merging two ranks, which can only add mass).
TEST(ZipfTest, ScramblingPreservesTheFrequencyProfile) {
  constexpr uint64_t kN = 1000;
  constexpr size_t kSamples = 400000;
  ZipfGenerator gen(kN, 0.99, 777);
  std::vector<size_t> hist(kN, 0);
  for (size_t i = 0; i < kSamples; ++i) hist[gen.NextScrambled()]++;
  size_t hottest = *std::max_element(hist.begin(), hist.end());
  double expected = gen.Probability(0) * kSamples;
  EXPECT_GT(hottest, expected * 0.9);
  EXPECT_LT(hottest, expected * 1.5);  // headroom for a collision merge
}

}  // namespace
}  // namespace cpdb::workload
