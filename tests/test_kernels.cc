/**
 * @file
 * Parity tests: blocked/parallel kernels vs the scalar naive::
 * references.
 *
 * Integer kernels must match bitwise at any thread count (their
 * accumulation order is fixed by the serial K-block loop); float
 * kernels must match the references within a tight epsilon and must be
 * run-to-run deterministic at any thread count.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/diff_linear.h"
#include "quant/encoder.h"
#include "tensor/diff_gemm.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"
#include "tensor/tensor.h"

namespace ditto {
namespace {

FloatTensor
randomFloat(const Shape &shape, uint64_t seed)
{
    Rng rng(seed);
    FloatTensor t(shape);
    t.fillNormal(rng, 0.0, 1.0);
    return t;
}

Int8Tensor
randomInt8(const Shape &shape, uint64_t seed)
{
    Rng rng(seed);
    Int8Tensor t(shape);
    t.fillUniformInt(rng, -127, 127);
    return t;
}

Int16Tensor
randomInt16Diff(const Shape &shape, uint64_t seed)
{
    Rng rng(seed);
    Int16Tensor t(shape);
    t.fillUniformInt(rng, -254, 254);
    return t;
}

void
expectNear(const FloatTensor &got, const FloatTensor &want, float tol)
{
    ASSERT_EQ(got.shape(), want.shape());
    for (int64_t i = 0; i < got.numel(); ++i)
        ASSERT_NEAR(got.at(i), want.at(i), tol) << "at flat index " << i;
}

/** Odd, fringe-heavy shapes: not multiples of the 4x16 micro-tile. */
struct MatShape
{
    int64_t m, k, n;
};

const MatShape kMatShapes[] = {
    {1, 1, 1},   {3, 5, 7},    {4, 16, 16},  {5, 17, 33},
    {17, 3, 19}, {16, 64, 16}, {33, 129, 65}, {2, 300, 9},
};

TEST(KernelsParity, MatmulFloat)
{
    for (const auto &s : kMatShapes) {
        const FloatTensor a = randomFloat(Shape{s.m, s.k}, 1);
        const FloatTensor b = randomFloat(Shape{s.k, s.n}, 2);
        expectNear(matmul(a, b), naive::matmul(a, b),
                   1e-4f * static_cast<float>(std::sqrt(s.k)));
    }
}

TEST(KernelsParity, MatmulTransposedFloat)
{
    for (const auto &s : kMatShapes) {
        const FloatTensor a = randomFloat(Shape{s.m, s.k}, 3);
        const FloatTensor b = randomFloat(Shape{s.n, s.k}, 4);
        expectNear(matmulTransposed(a, b), naive::matmulTransposed(a, b),
                   1e-4f * static_cast<float>(std::sqrt(s.k)));
    }
}

TEST(KernelsParity, MatmulInt8Bitwise)
{
    for (const auto &s : kMatShapes) {
        const Int8Tensor a = randomInt8(Shape{s.m, s.k}, 5);
        const Int8Tensor b = randomInt8(Shape{s.k, s.n}, 6);
        EXPECT_TRUE(matmulInt8(a, b) == naive::matmulInt8(a, b));
        const Int8Tensor bt = randomInt8(Shape{s.n, s.k}, 7);
        EXPECT_TRUE(matmulTransposedInt8(a, bt) ==
                    naive::matmulTransposedInt8(a, bt));
    }
}

TEST(KernelsParity, MatmulDiffInt16Bitwise)
{
    for (const auto &s : kMatShapes) {
        const Int16Tensor a = randomInt16Diff(Shape{s.m, s.k}, 8);
        const Int8Tensor b = randomInt8(Shape{s.k, s.n}, 9);
        EXPECT_TRUE(matmulDiffInt16(a, b) == naive::matmulDiffInt16(a, b));
        const Int8Tensor bt = randomInt8(Shape{s.n, s.k}, 10);
        EXPECT_TRUE(matmulTransposedDiffInt16(a, bt) ==
                    naive::matmulTransposedDiffInt16(a, bt));
    }
}

TEST(KernelsParity, FullyConnectedWithBias)
{
    const FloatTensor x = randomFloat(Shape{7, 23}, 11);
    const FloatTensor w = randomFloat(Shape{19, 23}, 12);
    const FloatTensor bias = randomFloat(Shape{19}, 13);
    expectNear(fullyConnected(x, w, &bias),
               naive::fullyConnected(x, w, &bias), 1e-3f);
    EXPECT_TRUE(fullyConnectedInt8(randomInt8(Shape{7, 23}, 14),
                                   randomInt8(Shape{19, 23}, 15)) ==
                naive::fullyConnectedInt8(randomInt8(Shape{7, 23}, 14),
                                          randomInt8(Shape{19, 23}, 15)));
}

/** Stride/padding/kernel combinations, including non-square inputs. */
struct ConvCase
{
    int64_t cin, cout, h, w, kernel, stride, padding;
};

const ConvCase kConvCases[] = {
    {1, 1, 5, 5, 1, 1, 0},   {2, 3, 7, 9, 3, 1, 1},
    {3, 5, 8, 6, 3, 2, 1},   {4, 4, 9, 9, 5, 1, 2},
    {5, 2, 11, 7, 3, 3, 0},  {8, 16, 6, 6, 1, 1, 0},
    {2, 7, 10, 4, 5, 2, 3},  {6, 3, 12, 12, 7, 2, 3},
};

TEST(KernelsParity, Conv2dFloatStridePadding)
{
    for (const auto &cc : kConvCases) {
        const Conv2dParams p{cc.cin, cc.cout, cc.kernel, cc.stride,
                             cc.padding};
        const FloatTensor x =
            randomFloat(Shape{2, cc.cin, cc.h, cc.w}, 16);
        const FloatTensor wgt = randomFloat(
            Shape{cc.cout, cc.cin, cc.kernel, cc.kernel}, 17);
        const FloatTensor bias = randomFloat(Shape{cc.cout}, 18);
        expectNear(conv2d(x, wgt, &bias, p),
                   naive::conv2d(x, wgt, &bias, p), 1e-3f);
    }
}

TEST(KernelsParity, Conv2dIntBitwiseStridePadding)
{
    for (const auto &cc : kConvCases) {
        const Conv2dParams p{cc.cin, cc.cout, cc.kernel, cc.stride,
                             cc.padding};
        const Int8Tensor x8 = randomInt8(Shape{2, cc.cin, cc.h, cc.w}, 19);
        const Int8Tensor wgt = randomInt8(
            Shape{cc.cout, cc.cin, cc.kernel, cc.kernel}, 20);
        EXPECT_TRUE(conv2dInt8(x8, wgt, p) ==
                    naive::conv2dInt8(x8, wgt, p));
        const Int16Tensor x16 =
            randomInt16Diff(Shape{2, cc.cin, cc.h, cc.w}, 21);
        EXPECT_TRUE(conv2dDiffInt16(x16, wgt, p) ==
                    naive::conv2dDiffInt16(x16, wgt, p));
    }
}

TEST(KernelsParity, NormsAndActivations)
{
    const FloatTensor x4 = randomFloat(Shape{2, 6, 5, 7}, 28);
    expectNear(groupNorm(x4, 3, 1e-5f), naive::groupNorm(x4, 3, 1e-5f),
               1e-3f);
    const FloatTensor x2 = randomFloat(Shape{9, 37}, 29);
    expectNear(layerNorm(x2, 1e-5f), naive::layerNorm(x2, 1e-5f), 1e-3f);
    expectNear(softmaxRows(x2), naive::softmaxRows(x2), 1e-5f);
    expectNear(silu(x2), naive::silu(x2), 1e-6f);
    expectNear(gelu(x2), naive::gelu(x2), 1e-6f);
}

/** Run `fn` at 1 thread and at N threads; results must agree. */
template <typename Fn>
void
checkThreadInvariance(Fn fn, bool bitwise)
{
    setThreadCount(1);
    const auto r1 = fn();
    setThreadCount(4);
    const auto rn = fn();
    setThreadCount(1);
    const auto r1b = fn();
    EXPECT_TRUE(r1 == r1b) << "kernel not run-to-run deterministic";
    if (bitwise)
        EXPECT_TRUE(r1 == rn) << "thread count changed integer result";
    else
        EXPECT_TRUE(r1 == rn)
            << "thread count changed float result (accumulation order "
               "must not depend on the partition)";
}

TEST(KernelsDeterminism, ThreadCountInvariance)
{
    const Int8Tensor a8 = randomInt8(Shape{37, 129}, 30);
    const Int8Tensor b8 = randomInt8(Shape{129, 53}, 31);
    checkThreadInvariance([&] { return matmulInt8(a8, b8); }, true);

    const Int16Tensor a16 = randomInt16Diff(Shape{37, 129}, 32);
    checkThreadInvariance([&] { return matmulDiffInt16(a16, b8); }, true);

    const Conv2dParams p{3, 7, 3, 2, 1};
    const Int8Tensor cx = randomInt8(Shape{2, 3, 13, 11}, 33);
    const Int8Tensor cw = randomInt8(Shape{7, 3, 3, 3}, 34);
    checkThreadInvariance([&] { return conv2dInt8(cx, cw, p); }, true);

    // Float kernels: the K-block loop is serial, so even float results
    // are identical across thread counts.
    const FloatTensor af = randomFloat(Shape{37, 129}, 35);
    const FloatTensor bf = randomFloat(Shape{129, 53}, 36);
    checkThreadInvariance([&] { return matmul(af, bf); }, false);
    const FloatTensor x4 = randomFloat(Shape{2, 6, 9, 9}, 37);
    checkThreadInvariance([&] { return groupNorm(x4, 2, 1e-5f); }, false);
    setThreadCount(1);
}

TEST(KernelsParallel, NestedParallelForFromCallerIsSafe)
{
    setThreadCount(4);
    // Outer job whose body issues another parallelFor (as a batching
    // layer calling public kernels would). The inner calls must run
    // inline instead of clobbering the live outer job.
    std::vector<int> hits(256, 0);
    parallelFor(0, 4, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t o = lo; o < hi; ++o) {
            parallelFor(0, 64, 8, [&](int64_t ilo, int64_t ihi) {
                for (int64_t i = ilo; i < ihi; ++i)
                    ++hits[static_cast<size_t>(o * 64 + i)];
            });
        }
    });
    for (int h : hits)
        EXPECT_EQ(h, 1);
    setThreadCount(1);
}

TEST(KernelsParity, ConvBatchParallelPathMatchesNaive)
{
    // More batches than threads exercises the batch-parallel branch of
    // convBlocked (inner GEMMs run inline on the workers).
    setThreadCount(2);
    const Conv2dParams p{3, 5, 3, 1, 1};
    const Int8Tensor x = randomInt8(Shape{4, 3, 9, 9}, 40);
    const Int8Tensor w = randomInt8(Shape{5, 3, 3, 3}, 41);
    EXPECT_TRUE(conv2dInt8(x, w, p) == naive::conv2dInt8(x, w, p));
    const FloatTensor xf = randomFloat(Shape{4, 3, 9, 9}, 42);
    const FloatTensor wf = randomFloat(Shape{5, 3, 3, 3}, 43);
    expectNear(conv2d(xf, wf, nullptr, p),
               naive::conv2d(xf, wf, nullptr, p), 1e-3f);
    setThreadCount(1);
}

TEST(KernelsParallel, ParallelForCoversRangeExactlyOnce)
{
    setThreadCount(4);
    std::vector<int> hits(1000, 0);
    parallelFor(0, 1000, 37, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            ++hits[static_cast<size_t>(i)];
    });
    for (int h : hits)
        EXPECT_EQ(h, 1);
    // Empty and single-element ranges.
    parallelFor(5, 5, 1, [&](int64_t, int64_t) { FAIL(); });
    int calls = 0;
    parallelFor(0, 1, 1, [&](int64_t lo, int64_t hi) {
        EXPECT_EQ(lo, 0);
        EXPECT_EQ(hi, 1);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
    setThreadCount(1);
}

// ---- Runtime SIMD dispatch parity --------------------------------------
//
// Every hand-written variant (avx2 / avx512 / neon, whichever this
// host can execute) must produce bitwise-identical integer results to
// the generic level — the dispatched primitives are pure integer
// arithmetic, so there is no tolerance, only equality. Each check runs
// the same workload pinned to each level via simd::setLevel and
// compares against the generic baseline.

/** Difference matrix with a zero / low4 / full8 mix (percentages). */
Int16Tensor
mixDiff(const Shape &shape, int zero_pct, int low4_pct, uint64_t seed)
{
    Rng rng(seed);
    Int16Tensor t(shape);
    for (auto &v : t.data()) {
        const int u = static_cast<int>(rng.uniformInt(100));
        if (u < zero_pct) {
            v = 0;
        } else if (u < zero_pct + low4_pct) {
            const int64_t m = 1 + static_cast<int64_t>(rng.uniformInt(7));
            v = static_cast<int16_t>(rng.bernoulli(0.5) ? m : -m);
        } else {
            const int64_t m = 8 + static_cast<int64_t>(rng.uniformInt(247));
            v = static_cast<int16_t>(rng.bernoulli(0.5) ? m : -m);
        }
    }
    return t;
}

/**
 * Run `fn` once per level this host can execute and compare each
 * result bitwise against the generic level's. Restores the dispatch
 * afterwards.
 */
template <typename Fn>
void
expectBitwiseAcrossLevels(Fn fn)
{
    simd::setLevel(simd::Level::kGeneric);
    const auto want = fn();
    for (simd::Level level : simd::availableLevels()) {
        if (level == simd::Level::kGeneric)
            continue;
        simd::setLevel(level);
        EXPECT_TRUE(fn() == want)
            << "SIMD level '" << simd::levelName(level)
            << "' diverges from generic";
    }
    simd::resetLevel();
}

TEST(SimdDispatch, GenericAlwaysAvailableAndComplete)
{
    const std::vector<simd::Level> levels = simd::availableLevels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), simd::Level::kGeneric);
    for (simd::Level level : levels) {
        const simd::KernelTable &t = simd::tableFor(level);
        EXPECT_EQ(t.level, level);
        // Every level implements the axpy primitives; only hand-written
        // levels provide the pair micro-kernel (generic keeps the
        // driver's historic widened path).
        EXPECT_NE(t.low4GroupAxpy, nullptr);
        EXPECT_NE(t.diffAxpy, nullptr);
        if (level == simd::Level::kGeneric)
            EXPECT_EQ(t.gemmMicroPairs, nullptr);
        else
            EXPECT_NE(t.gemmMicroPairs, nullptr);
        EXPECT_STRNE(simd::levelName(level), "unknown");
    }
    // Pinning and resetting round-trips.
    simd::setLevel(levels.back());
    EXPECT_EQ(simd::activeLevel(), levels.back());
    simd::resetLevel();
}

TEST(SimdDispatch, IntegerGemmBitwiseAcrossLevels)
{
    // kMatShapes' odd sizes plus K extents straddling the kKc = 256
    // panel boundary and odd K (the pair packing pads a zero pair).
    const MatShape shapes[] = {
        {1, 1, 1},   {3, 5, 7},     {5, 17, 33},  {2, 300, 9},
        {4, 255, 7}, {4, 256, 17},  {4, 257, 16}, {3, 511, 9},
        {5, 512, 33}, {2, 513, 1},
    };
    int64_t seed = 100;
    for (const auto &s : shapes) {
        const Int8Tensor a8 = randomInt8(Shape{s.m, s.k}, seed++);
        const Int8Tensor b8 = randomInt8(Shape{s.k, s.n}, seed++);
        const Int8Tensor b8t = randomInt8(Shape{s.n, s.k}, seed++);
        const Int16Tensor a16 = randomInt16Diff(Shape{s.m, s.k}, seed++);
        expectBitwiseAcrossLevels([&] { return matmulInt8(a8, b8); });
        expectBitwiseAcrossLevels(
            [&] { return matmulTransposedInt8(a8, b8t); });
        expectBitwiseAcrossLevels([&] { return matmulDiffInt16(a16, b8); });
        expectBitwiseAcrossLevels(
            [&] { return matmulTransposedDiffInt16(a16, b8t); });
    }
}

TEST(SimdDispatch, ConvIntBitwiseAcrossLevels)
{
    int64_t seed = 200;
    for (const auto &cc : kConvCases) {
        const Conv2dParams p{cc.cin, cc.cout, cc.kernel, cc.stride,
                             cc.padding};
        const Int8Tensor x8 =
            randomInt8(Shape{2, cc.cin, cc.h, cc.w}, seed++);
        const Int8Tensor wgt = randomInt8(
            Shape{cc.cout, cc.cin, cc.kernel, cc.kernel}, seed++);
        const Int16Tensor x16 =
            randomInt16Diff(Shape{2, cc.cin, cc.h, cc.w}, seed++);
        expectBitwiseAcrossLevels([&] { return conv2dInt8(x8, wgt, p); });
        expectBitwiseAcrossLevels(
            [&] { return conv2dDiffInt16(x16, wgt, p); });
    }
}

TEST(SimdDispatch, DiffGemmPlanBitwiseAcrossLevels)
{
    // Mixes cover zero-panel plans (all-zero rows leave prev rows
    // untouched), all-low4 (group axpy + tails), all-full8 (wide
    // axpy), and blends; K extents straddle the kDiffPanelK = 64
    // panel edge and N hits the vector-tail sizes.
    const struct
    {
        int zero, low4;
        int64_t k, n;
    } cases[] = {
        {100, 0, 64, 16},  {0, 100, 63, 19}, {0, 0, 65, 33},
        {70, 25, 128, 1},  {40, 40, 150, 40}, {90, 9, 257, 31},
    };
    int64_t seed = 300;
    for (const auto &c : cases) {
        const Int16Tensor diff =
            mixDiff(Shape{9, c.k}, c.zero, c.low4, seed++);
        const DiffGemmPlan plan = encodeDiff(diff);
        const Int8Tensor b = randomInt8(Shape{c.k, c.n}, seed++);
        Int32Tensor prev(Shape{9, c.n});
        {
            Rng rng(static_cast<uint64_t>(seed++));
            prev.fillUniformInt(rng, -1000, 1000);
        }
        expectBitwiseAcrossLevels(
            [&] { return matmulDiffPlan(plan, b, &prev); });
    }
}

TEST(SimdDispatch, ConvScatterBitwiseAcrossLevels)
{
    // ForceDiff drives the scatter engine: 3x3/stride-1 exercises the
    // interior fast path (reversed-weight row axpy), 1x1 the pointwise
    // scatter, 5x5/stride-2 the windowed scatterEntry path.
    const ConvCase cases[] = {
        {3, 5, 9, 9, 3, 1, 1},
        {4, 6, 8, 8, 1, 1, 0},
        {2, 7, 11, 9, 5, 2, 2},
    };
    int64_t seed = 400;
    for (const auto &cc : cases) {
        const Conv2dParams p{cc.cin, cc.cout, cc.kernel, cc.stride,
                             cc.padding};
        const DiffConvEngine engine(
            randomInt8(Shape{cc.cout, cc.cin, cc.kernel, cc.kernel},
                       seed++),
            p);
        const Int8Tensor prev_x =
            randomInt8(Shape{1, cc.cin, cc.h, cc.w}, seed++);
        Int8Tensor x = prev_x;
        {
            // Sparse perturbation so the difference has all classes.
            Rng rng(static_cast<uint64_t>(seed++));
            for (auto &v : x.data())
                if (rng.bernoulli(0.2))
                    v = static_cast<int8_t>(
                        std::clamp<int64_t>(
                            v + rng.uniformInt(31) - 15, -127, 127));
        }
        const Int32Tensor prev_out = engine.runDirect(prev_x);
        expectBitwiseAcrossLevels([&] {
            return engine.runDiff(x, prev_x, prev_out, nullptr,
                                  DiffPolicy::ForceDiff);
        });
    }
}

TEST(SimdDispatch, ThreadInvarianceAtEveryLevel)
{
    const Int8Tensor a8 = randomInt8(Shape{37, 129}, 500);
    const Int8Tensor b8 = randomInt8(Shape{129, 53}, 501);
    const Int16Tensor diff = mixDiff(Shape{21, 129}, 60, 25, 502);
    const DiffGemmPlan plan = encodeDiff(diff);
    const Int8Tensor pb = randomInt8(Shape{129, 53}, 503);
    for (simd::Level level : simd::availableLevels()) {
        simd::setLevel(level);
        checkThreadInvariance([&] { return matmulInt8(a8, b8); }, true);
        checkThreadInvariance([&] { return matmulDiffPlan(plan, pb); },
                              true);
    }
    simd::resetLevel();
    setThreadCount(1);
}

} // namespace
} // namespace ditto
