/**
 * @file
 * Unit tests for src/common: RNG, math utilities, bisection, hashing.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "common/bisect.h"
#include "common/bytes.h"
#include "common/math_util.h"
#include "common/rng.h"

namespace ditto {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a.nextU64() == b.nextU64())
            ++equal;
    EXPECT_EQ(equal, 0);
}

TEST(Rng, FromKeysIndependentStreams)
{
    Rng a = Rng::fromKeys(7, 1, 2, 3);
    Rng b = Rng::fromKeys(7, 1, 2, 4);
    Rng a2 = Rng::fromKeys(7, 1, 2, 3);
    EXPECT_NE(a.nextU64(), b.nextU64());
    Rng a3 = Rng::fromKeys(7, 1, 2, 3);
    EXPECT_EQ(a3.nextU64(), a2.nextU64());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.5, 7.5);
        EXPECT_GE(u, -2.5);
        EXPECT_LT(u, 7.5);
    }
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, NormalMomentsApproximatelyStandard)
{
    Rng rng(6);
    double sum = 0.0;
    double sum_sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal();
        sum += v;
        sum_sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, NormalScaledMoments)
{
    Rng rng(7);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(5.0, 2.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(8);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(MathUtil, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(1, 5), 1);
    EXPECT_EQ(ceilDiv(int64_t{1} << 40, int64_t{2}), int64_t{1} << 39);
}

TEST(MathUtil, RoundUp)
{
    EXPECT_EQ(roundUp(10, 4), 12);
    EXPECT_EQ(roundUp(12, 4), 12);
    EXPECT_EQ(roundUp(1, 512), 512);
}

TEST(MathUtil, NearlyEqual)
{
    EXPECT_TRUE(nearlyEqual(1.0, 1.0 + 1e-12));
    EXPECT_FALSE(nearlyEqual(1.0, 1.1));
}

TEST(MathUtil, WithinRelative)
{
    EXPECT_TRUE(withinRelative(102.0, 100.0, 0.05));
    EXPECT_FALSE(withinRelative(110.0, 100.0, 0.05));
}

TEST(MathUtil, ClampValue)
{
    EXPECT_EQ(clampValue(5, 0, 10), 5);
    EXPECT_EQ(clampValue(-5, 0, 10), 0);
    EXPECT_EQ(clampValue(15, 0, 10), 10);
}

TEST(MathUtil, SignedBitWidthBoundaries)
{
    EXPECT_EQ(signedBitWidth(0), 0);
    EXPECT_EQ(signedBitWidth(1), 2);
    EXPECT_EQ(signedBitWidth(-1), 1);
    EXPECT_EQ(signedBitWidth(7), 4);
    EXPECT_EQ(signedBitWidth(8), 5);
    EXPECT_EQ(signedBitWidth(-8), 4);
    EXPECT_EQ(signedBitWidth(-9), 5);
    EXPECT_EQ(signedBitWidth(127), 8);
    EXPECT_EQ(signedBitWidth(-128), 8);
    EXPECT_EQ(signedBitWidth(128), 9);
}

TEST(MathUtil, NormalCdfKnownValues)
{
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-9);
    EXPECT_NEAR(normalCdf(1.959964), 0.975, 1e-4);
    EXPECT_NEAR(normalCdf(-1.959964), 0.025, 1e-4);
}

TEST(MathUtil, NormalAbsCdfKnownValues)
{
    EXPECT_NEAR(normalAbsCdf(0.0), 0.0, 1e-12);
    EXPECT_NEAR(normalAbsCdf(1.0), 0.682689, 1e-5);
    EXPECT_NEAR(normalAbsCdf(1.959964), 0.95, 1e-4);
}

TEST(Bisect, IncreasingFunction)
{
    const double x = bisectMonotone(
        [](double v) { return v * v; }, 9.0, 0.0, 10.0);
    EXPECT_NEAR(x, 3.0, 1e-9);
}

TEST(Bisect, DecreasingFunction)
{
    const double x = bisectMonotone(
        [](double v) { return 10.0 - v; }, 4.0, 0.0, 10.0);
    EXPECT_NEAR(x, 6.0, 1e-9);
}

TEST(Bisect, TargetBelowRangeClampsToEndpoint)
{
    const double x = bisectMonotone(
        [](double v) { return v; }, -5.0, 0.0, 10.0);
    EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(Bisect, TargetAboveRangeClampsToEndpoint)
{
    const double x = bisectMonotone(
        [](double v) { return v; }, 50.0, 0.0, 10.0);
    EXPECT_DOUBLE_EQ(x, 10.0);
}

TEST(Bisect, NonlinearTarget)
{
    const double x = bisectMonotone(
        [](double v) { return std::exp(v); }, 5.0, 0.0, 3.0);
    EXPECT_NEAR(x, std::log(5.0), 1e-9);
}

TEST(Bytes, HashMixSeparatesConfigs)
{
    const uint64_t base = hashMix(0xD1770ACC, 1);
    EXPECT_NE(hashMix(base, 8), hashMix(base, 16));
    EXPECT_NE(hashMix(hashMix(base, 8), 16),
              hashMix(hashMix(base, 16), 8));
}

} // namespace
} // namespace ditto
