// Foundation tests: SHA-1 vectors, hashing, PRNG, distributions, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.hpp"
#include "common/flat_map.hpp"
#include "common/hashing.hpp"
#include "common/random.hpp"
#include "common/sha1.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace lorm {
namespace {

// ---- SHA-1 ---------------------------------------------------------------

TEST(Sha1, Fips180Vectors) {
  EXPECT_EQ(Sha1::ToHex(Sha1::Hash("abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(Sha1::ToHex(Sha1::Hash("")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(Sha1::ToHex(Sha1::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(Sha1::ToHex(h.Finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  Sha1 h;
  h.Update("hello ");
  h.Update("world, ");
  h.Update("this crosses a block boundary when repeated enough times to "
           "exceed sixty-four bytes of input data in total");
  const auto inc = h.Finish();
  const auto once = Sha1::Hash(
      "hello world, this crosses a block boundary when repeated enough times "
      "to exceed sixty-four bytes of input data in total");
  EXPECT_EQ(Sha1::ToHex(inc), Sha1::ToHex(once));
}

TEST(Sha1, Hash64IsDigestPrefix) {
  const auto d = Sha1::Hash("abc");
  std::uint64_t expect = 0;
  for (int i = 0; i < 8; ++i) expect = (expect << 8) | d[i];
  EXPECT_EQ(Sha1::Hash64("abc"), expect);
}

TEST(Sha1, ReuseAfterFinishThrows) {
  Sha1 h;
  h.Update("x");
  (void)h.Finish();
  EXPECT_THROW(h.Update("y"), InvariantError);
  EXPECT_THROW((void)h.Finish(), InvariantError);
}

// ---- Consistent hashing ----------------------------------------------------

TEST(ConsistentHash, StaysInSpace) {
  const ConsistentHash ch(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(ch("key" + std::to_string(i)), 2048u);
  }
}

TEST(ConsistentHash, DeterministicAndSpread) {
  const ConsistentHash ch(16);
  EXPECT_EQ(ch("cpu_mhz"), ch("cpu_mhz"));
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(ch("attr" + std::to_string(i)));
  EXPECT_GE(seen.size(), 295u);  // near-collision-free in a 65536 space
}

TEST(ConsistentHash, RejectsBadBits) {
  EXPECT_THROW(ConsistentHash ch(0), ConfigError);
  EXPECT_THROW(ConsistentHash ch(65), ConfigError);
}

TEST(ConsistentHash, UniformOccupancy) {
  const ConsistentHash ch(4);  // 16 buckets
  std::vector<int> bucket(16, 0);
  for (int i = 0; i < 16000; ++i) {
    ++bucket[ch("uniformity" + std::to_string(i))];
  }
  for (int c : bucket) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

// ---- Locality-preserving hashing -------------------------------------------

TEST(LocalityPreservingHash, MonotoneAndBoundary) {
  const LocalityPreservingHash lph(11, 1.0, 1000.0);
  EXPECT_EQ(lph(1.0), 0u);
  EXPECT_EQ(lph(1000.0), 2047u);
  EXPECT_EQ(lph(0.5), 0u);      // clamped below
  EXPECT_EQ(lph(2000.0), 2047u);  // clamped above
  std::uint64_t prev = 0;
  for (double v = 1.0; v <= 1000.0; v += 7.3) {
    const std::uint64_t h = lph(v);
    EXPECT_GE(h, prev);
    prev = h;
  }
}

TEST(LocalityPreservingHash, CdfEqualizedIsMonotoneAndUniform) {
  const BoundedPareto pareto(1.5, 1.0, 1000.0);
  const LocalityPreservingHash lph(
      10, 1.0, 1000.0, [&](double v) { return pareto.Cdf(v); });
  Rng rng(42);
  std::vector<int> bucket(16, 0);
  std::uint64_t prev = 0;
  std::vector<double> values;
  for (int i = 0; i < 16000; ++i) values.push_back(pareto.Sample(rng));
  std::sort(values.begin(), values.end());
  for (double v : values) {
    const std::uint64_t h = lph(v);
    EXPECT_GE(h, prev);  // monotone
    prev = h;
    ++bucket[h / 64];    // 1024-space into 16 buckets
  }
  // CDF equalization makes Pareto-distributed values near-uniform.
  for (int c : bucket) {
    EXPECT_GT(c, 650);
    EXPECT_LT(c, 1350);
  }
}

TEST(LocalityPreservingHash, LinearSkewsUnderPareto) {
  // The effect the paper observes in Fig. 3: without equalization, Pareto
  // mass piles near the low end of the ID space.
  const BoundedPareto pareto(1.5, 1.0, 1000.0);
  const LocalityPreservingHash lph(10, 1.0, 1000.0);
  Rng rng(42);
  int low_half = 0;
  for (int i = 0; i < 4000; ++i) {
    if (lph(pareto.Sample(rng)) < 512) ++low_half;
  }
  EXPECT_GT(low_half, 3500);
}

TEST(LocalityPreservingHash, RejectsBadDomain) {
  EXPECT_THROW(LocalityPreservingHash lph(8, 5.0, 5.0), ConfigError);
  EXPECT_THROW(LocalityPreservingHash lph(0, 0.0, 1.0), ConfigError);
}

TEST(MixHashes, OrderSensitiveAndDeterministic) {
  EXPECT_EQ(MixHashes(1, 2), MixHashes(1, 2));
  EXPECT_NE(MixHashes(1, 2), MixHashes(2, 1));
  EXPECT_NE(MixHashes(0, 0), 0u);
}

// ---- RNG -------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.NextU64();
    EXPECT_EQ(va, b.NextU64());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) differs |= (a2.NextU64() != c.NextU64());
  EXPECT_TRUE(differs);
}

TEST(Rng, NextBelowIsUnbiasedAcrossRange) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.NextBelow(10)];
  for (int c : counts) {
    EXPECT_GT(c, 9500);
    EXPECT_LT(c, 10500);
  }
  EXPECT_THROW(rng.NextBelow(0), InvariantError);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(11);
  for (std::size_t count : {1u, 5u, 50u, 200u}) {
    const auto s = rng.SampleWithoutReplacement(200, count);
    EXPECT_EQ(s.size(), count);
    std::set<std::uint64_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), count);
    for (auto v : s) EXPECT_LT(v, 200u);
  }
  EXPECT_THROW(rng.SampleWithoutReplacement(3, 4), InvariantError);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  // The child must not replay the parent's stream.
  Rng b(5);
  (void)b.NextU64();  // advance like the fork did
  EXPECT_NE(child.NextU64(), b.NextU64());
}

// ---- Distributions ---------------------------------------------------------

TEST(BoundedParetoTest, SamplesStayInBounds) {
  const BoundedPareto p(1.5, 1.0, 1000.0);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = p.Sample(rng);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 1000.0);
  }
}

TEST(BoundedParetoTest, CdfQuantileRoundTrip) {
  const BoundedPareto p(2.0, 1.0, 100.0);
  for (double u = 0.01; u < 1.0; u += 0.07) {
    EXPECT_NEAR(p.Cdf(p.Quantile(u)), u, 1e-9);
  }
  EXPECT_DOUBLE_EQ(p.Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.Cdf(100.0), 1.0);
  EXPECT_DOUBLE_EQ(p.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.Quantile(1.0), 100.0);
}

TEST(BoundedParetoTest, HeavyTailShape) {
  const BoundedPareto p(1.5, 1.0, 1000.0);
  Rng rng(4);
  int below10 = 0;
  for (int i = 0; i < 10000; ++i) {
    if (p.Sample(rng) < 10.0) ++below10;
  }
  // F(10) = (1 - 10^-1.5)/(1 - 1000^-1.5) ~ 0.968.
  EXPECT_NEAR(below10 / 10000.0, 0.968, 0.01);
}

TEST(BoundedParetoTest, RejectsBadParameters) {
  EXPECT_THROW(BoundedPareto(0.0, 1.0, 2.0), ConfigError);
  EXPECT_THROW(BoundedPareto(1.0, 0.0, 2.0), ConfigError);
  EXPECT_THROW(BoundedPareto(1.0, 2.0, 2.0), ConfigError);
}

TEST(ExponentialTest, MeanMatchesRate) {
  Rng rng(6);
  OnlineStats s;
  for (int i = 0; i < 50000; ++i) s.Add(SampleExponential(rng, 0.4));
  EXPECT_NEAR(s.mean(), 2.5, 0.1);  // paper: R=0.4 -> one event per 2.5 s
  EXPECT_THROW(SampleExponential(rng, 0.0), InvariantError);
}

TEST(ZipfTest, RankOneIsMostFrequent) {
  const Zipf z(10, 1.0);
  Rng rng(8);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 20000; ++i) ++counts[z.Sample(rng)];
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
  EXPECT_EQ(counts[0], 0);
  EXPECT_THROW(Zipf(0, 1.0), ConfigError);
}

// ---- Statistics -------------------------------------------------------------

TEST(Stats, SummarizeBasics) {
  const Summary s = Summarize({4, 1, 3, 2, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.total, 15.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SummarizeEmptyAndSingle) {
  const Summary e = Summarize({});
  EXPECT_EQ(e.count, 0u);
  const Summary one = Summarize({7});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.p01, 7.0);
  EXPECT_DOUBLE_EQ(one.p99, 7.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 100), 10.0);
  std::vector<double> w{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_NEAR(PercentileSorted(w, 99), 9.91, 1e-9);
  EXPECT_NEAR(PercentileSorted(w, 1), 1.09, 1e-9);
}

TEST(Stats, OnlineMatchesBatch) {
  Rng rng(10);
  std::vector<double> xs;
  OnlineStats os;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble(-5, 20);
    xs.push_back(x);
    os.Add(x);
  }
  const Summary s = Summarize(xs);
  EXPECT_NEAR(os.mean(), s.mean, 1e-9);
  EXPECT_NEAR(os.stddev(), s.stddev, 1e-9);
  EXPECT_DOUBLE_EQ(os.min(), s.min);
  EXPECT_DOUBLE_EQ(os.max(), s.max);
}

TEST(Stats, OnlineMergeEqualsCombined) {
  Rng rng(12);
  OnlineStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.NextDouble(0, 1);
    (i % 2 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, HistogramBinsAndClamps) {
  Histogram h(0, 10, 5);
  h.Add(-1);   // clamps into bin 0
  h.Add(0.5);
  h.Add(9.9);
  h.Add(25);   // clamps into last bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
  EXPECT_FALSE(h.Render().empty());
  EXPECT_THROW(Histogram(1, 1, 4), ConfigError);
}

TEST(Stats, JainFairness) {
  EXPECT_DOUBLE_EQ(JainFairness({5, 5, 5, 5}), 1.0);
  EXPECT_NEAR(JainFairness({1, 0, 0, 0}), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(JainFairness({}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairness({0, 0}), 1.0);
}

TEST(Stats, GiniUniformAndSpike) {
  // Perfect equality -> 0; one node holding everything -> (n-1)/n.
  EXPECT_NEAR(Gini({5, 5, 5, 5}), 0.0, 1e-12);
  EXPECT_NEAR(Gini({0, 0, 0, 8}), 3.0 / 4.0, 1e-12);
  EXPECT_NEAR(Gini({0, 0, 0, 0, 0, 0, 0, 0, 0, 1}), 9.0 / 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(Gini({}), 0.0);
  EXPECT_DOUBLE_EQ(Gini({0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(Gini({7}), 0.0);
  // Order-invariant: Gini sorts internally.
  EXPECT_NEAR(Gini({1, 2, 3, 4}), Gini({4, 1, 3, 2}), 1e-12);
}

TEST(Stats, LorenzCurve) {
  // Uniform loads lie on the diagonal: cum-load share == population share.
  const auto uniform = LorenzPoints({3, 3, 3, 3});
  ASSERT_EQ(uniform.size(), 5u);
  for (const auto& pt : uniform) {
    EXPECT_NEAR(pt.cum_load, pt.cum_population, 1e-12);
  }
  // A single spike: the curve hugs zero until the last node.
  const auto spike = LorenzPoints({0, 0, 0, 10});
  ASSERT_EQ(spike.size(), 5u);
  EXPECT_NEAR(spike[3].cum_load, 0.0, 1e-12);
  EXPECT_NEAR(spike[4].cum_load, 1.0, 1e-12);
  EXPECT_NEAR(LorenzShareAt(spike, 0.75), 0.0, 1e-12);
  EXPECT_NEAR(LorenzShareAt(spike, 1.0), 1.0, 1e-12);
  // Interpolation halfway into the last quartile.
  EXPECT_NEAR(LorenzShareAt(spike, 0.875), 0.5, 1e-12);
  EXPECT_NEAR(LorenzShareAt(uniform, 0.5), 0.5, 1e-12);
}

TEST(AddrIndexMap, EmptyBucketKeyIsNeverFound) {
  // kNoNode marks empty buckets; looking it up must not return an empty
  // bucket's index (the rings would route a lookup from slot 0).
  AddrIndexMap map;
  EXPECT_FALSE(map.Contains(kNoNode));
  map.Put(7, 3);
  map.Put(11, 0);
  EXPECT_EQ(map.Find(7), 3u);
  EXPECT_EQ(map.Find(11), 0u);
  EXPECT_EQ(map.Find(kNoNode), AddrIndexMap::kAbsent);
  map.Erase(11);
  EXPECT_FALSE(map.Contains(11));
  EXPECT_FALSE(map.Contains(kNoNode));
}

TEST(Types, FormatNodeAddr) {
  EXPECT_EQ(FormatNodeAddr(kNoNode), "<none>");
  EXPECT_EQ(FormatNodeAddr(0), "10.0.0.0");
  EXPECT_EQ(FormatNodeAddr(0x010203), "10.1.2.3");
}

}  // namespace
}  // namespace lorm
