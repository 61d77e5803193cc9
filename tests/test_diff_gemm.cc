/**
 * @file
 * Tests for the software Encoding Unit (quant/encoder.h) and the
 * plan-driven sparse diff GEMM (tensor/diff_gemm.h + the ops.h entry
 * points): plan well-formedness, exact element tallies, bitwise parity
 * against the dense int16 diff kernels and the retained naive:: dense
 * engines, extreme all-zero / all-wide populations, odd shapes, and
 * thread-count invariance.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/attention_diff.h"
#include "core/diff_linear.h"
#include "quant/bitwidth.h"
#include "quant/encoder.h"
#include "tensor/diff_gemm.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace ditto {
namespace {

Int8Tensor
randomInt8(const Shape &shape, uint64_t seed, int lo = -127, int hi = 127)
{
    Rng rng(seed);
    Int8Tensor t(shape);
    t.fillUniformInt(rng, lo, hi);
    return t;
}

Int32Tensor
randomInt32(const Shape &shape, uint64_t seed)
{
    Rng rng(seed);
    Int32Tensor t(shape);
    t.fillUniformInt(rng, -100000, 100000);
    return t;
}

/**
 * Difference matrix with a controlled zero / low4 / full8 element mix
 * (percentages; the remainder is full8).
 */
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
            // Nonzero signed 4-bit value in [-8, 7].
            const int64_t m = 1 + static_cast<int64_t>(rng.uniformInt(8));
            v = static_cast<int16_t>(rng.bernoulli(0.5) ? m : -m);
            if (v == 8)
                v = 7;
        } else {
            // Wide value in +/-[8, 254].
            const int64_t m = 8 + static_cast<int64_t>(rng.uniformInt(247));
            v = static_cast<int16_t>(rng.bernoulli(0.5) ? m : -m);
        }
    }
    return t;
}

/** Reconstruct the dense difference matrix a plan describes. */
Int16Tensor
decodePlan(const DiffGemmPlan &plan)
{
    Int16Tensor out(Shape{plan.rows, plan.cols});
    for (int64_t r = 0; r < plan.rows; ++r) {
        for (int64_t pi = 0; pi < plan.panelsPerRow; ++pi) {
            const PanelRef &p =
                plan.panels[static_cast<size_t>(r * plan.panelsPerRow + pi)];
            const int64_t k0 = pi * kDiffPanelK;
            for (int64_t e = p.low4Begin; e < p.low4Begin + p.low4Count;
                 ++e) {
                out.at(r, k0 + plan.low4Offsets[static_cast<size_t>(e)]) =
                    static_cast<int16_t>(plan.low4Value(e));
            }
            for (int64_t e = p.full8Begin; e < p.full8Begin + p.full8Count;
                 ++e) {
                out.at(r, k0 + plan.full8Offsets[static_cast<size_t>(e)]) =
                    plan.full8Values[static_cast<size_t>(e)];
            }
        }
    }
    return out;
}

// ---- Encoder ------------------------------------------------------------

TEST(Encoder, PlanRoundTripsAndTalliesExactly)
{
    const struct
    {
        int zero, low4;
    } mixes[] = {{90, 9}, {70, 25}, {0, 0}, {100, 0}, {0, 100}, {40, 40}};
    int64_t seed = 1;
    for (const auto &mix : mixes) {
        const Int16Tensor diff =
            mixDiff(Shape{13, 150}, mix.zero, mix.low4, seed++);
        const DiffGemmPlan plan = encodeDiff(diff);
        // Lossless: the plan describes exactly the source matrix.
        EXPECT_TRUE(decodePlan(plan) == diff);
        // Element tallies equal the scalar classifier's.
        int64_t zero = 0, low4 = 0, full8 = 0;
        for (int16_t v : diff.data()) {
            switch (classifyValue(v)) {
              case BitClass::Zero: ++zero; break;
              case BitClass::Low4: ++low4; break;
              case BitClass::Full8: ++full8; break;
            }
        }
        EXPECT_EQ(plan.zeroElems, zero);
        EXPECT_EQ(plan.low4Elems, low4);
        EXPECT_EQ(plan.full8Elems, full8);
        EXPECT_EQ(plan.totalElems(), diff.numel());
    }
}

TEST(Encoder, PanelLaneCountsAreConsistent)
{
    const Int16Tensor diff = mixDiff(Shape{7, 260}, 80, 15, 42);
    const DiffGemmPlan plan = encodeDiff(diff);
    for (int64_t r = 0; r < plan.rows; ++r) {
        for (int64_t pi = 0; pi < plan.panelsPerRow; ++pi) {
            const PanelRef &p =
                plan.panels[static_cast<size_t>(r * plan.panelsPerRow + pi)];
            const int64_t k0 = pi * kDiffPanelK;
            const int64_t kw =
                std::min<int64_t>(kDiffPanelK, plan.cols - k0);
            int64_t lane = 0;
            int64_t wide = 0;
            for (int64_t kk = 0; kk < kw; ++kk) {
                const int16_t v = diff.at(r, k0 + kk);
                lane += v != 0 && v >= -8 && v <= 7;
                wide += v < -8 || v > 7;
            }
            EXPECT_EQ(static_cast<int64_t>(p.low4Count), lane);
            EXPECT_EQ(static_cast<int64_t>(p.full8Count), wide);
            const PanelClass want =
                lane == 0 && wide == 0
                    ? PanelClass::Zero
                    : (wide == 0 ? PanelClass::Low4
                                 : (lane == 0 ? PanelClass::Full8
                                              : PanelClass::Mixed));
            EXPECT_EQ(p.cls(), want);
        }
    }
}

TEST(Encoder, FusedTemporalSubtractMatchesExplicitDiff)
{
    const Int8Tensor prev = randomInt8(Shape{9, 77}, 2);
    const Int8Tensor cur = randomInt8(Shape{9, 77}, 3);
    const DiffGemmPlan fused = encodeTemporalDiff(cur, prev);
    const DiffGemmPlan explicit_ =
        encodeDiff(subtractInt8(cur, prev));
    EXPECT_TRUE(decodePlan(fused) == decodePlan(explicit_));
    EXPECT_EQ(fused.zeroElems, explicit_.zeroElems);
    EXPECT_EQ(fused.low4Elems, explicit_.low4Elems);
    EXPECT_EQ(fused.full8Elems, explicit_.full8Elems);
}

TEST(Encoder, TransposedEncodeMatchesManualTranspose)
{
    const Int8Tensor prev = randomInt8(Shape{11, 5}, 4);
    const Int8Tensor cur = randomInt8(Shape{11, 5}, 5);
    const DiffGemmPlan plan = encodeTemporalDiffTransposed(cur, prev);
    const Int16Tensor diff = subtractInt8(cur, prev);
    Int16Tensor diff_t(Shape{5, 11});
    for (int64_t r = 0; r < 11; ++r)
        for (int64_t c = 0; c < 5; ++c)
            diff_t.at(c, r) = diff.at(r, c);
    EXPECT_TRUE(decodePlan(plan) == diff_t);
}

TEST(Encoder, PlanOpCountsMatchTallyOps)
{
    const Int16Tensor diff = mixDiff(Shape{6, 90}, 60, 30, 7);
    const DiffGemmPlan plan = encodeDiff(diff);
    const OpCounts via_plan = planOpCounts(plan, 17);
    const OpCounts via_tally = tallyOps(diff, 17);
    EXPECT_EQ(via_plan.zeroSkipped, via_tally.zeroSkipped);
    EXPECT_EQ(via_plan.low4, via_tally.low4);
    EXPECT_EQ(via_plan.full8, via_tally.full8);
}

// ---- Sparse diff GEMM ---------------------------------------------------

/** Odd, fringe-heavy shapes (m, k, n). */
struct MatShape
{
    int64_t m, k, n;
};

const MatShape kMatShapes[] = {
    {1, 1, 1},   {3, 5, 7},     {5, 17, 33}, {17, 64, 19},
    {2, 300, 9}, {33, 129, 65}, {8, 65, 32},
};

TEST(DiffGemm, MatchesDenseDiffKernelBitwise)
{
    int64_t seed = 100;
    for (const auto &s : kMatShapes) {
        for (int zero_pct : {0, 50, 95}) {
            const Int16Tensor diff =
                mixDiff(Shape{s.m, s.k}, zero_pct, (100 - zero_pct) / 2,
                        seed++);
            const DiffGemmPlan plan = encodeDiff(diff);
            const Int32Tensor prev =
                randomInt32(Shape{s.m, s.n}, seed++);
            // Non-transposed B.
            const Int8Tensor b = randomInt8(Shape{s.k, s.n}, seed++);
            const Int32Tensor want =
                addInt32(prev, naive::matmulDiffInt16(diff, b));
            EXPECT_TRUE(matmulDiffPlan(plan, b, &prev) == want)
                << "m=" << s.m << " k=" << s.k << " n=" << s.n;
            // Transposed B (weight-stationary convention).
            const Int8Tensor bt = randomInt8(Shape{s.n, s.k}, seed++);
            const Int32Tensor want_t = addInt32(
                prev, naive::matmulTransposedDiffInt16(diff, bt));
            EXPECT_TRUE(matmulTransposedDiffPlan(plan, bt, &prev) ==
                        want_t);
        }
    }
}

TEST(DiffGemm, NullPrevYieldsBareDelta)
{
    const Int16Tensor diff = mixDiff(Shape{5, 40}, 70, 20, 200);
    const Int8Tensor b = randomInt8(Shape{9, 40}, 201);
    const DiffGemmPlan plan = encodeDiff(diff);
    EXPECT_TRUE(matmulTransposedDiffPlan(plan, b) ==
                naive::matmulTransposedDiffInt16(diff, b));
}

TEST(DiffGemm, AllZeroDiffReturnsPrevUntouched)
{
    const Int16Tensor diff(Shape{6, 130});
    const DiffGemmPlan plan = encodeDiff(diff);
    EXPECT_EQ(plan.zeroElems, diff.numel());
    EXPECT_EQ(plan.nonzeroElems(), 0);
    for (const PanelRef &p : plan.panels)
        EXPECT_TRUE(p.empty());
    const Int8Tensor b = randomInt8(Shape{130, 21}, 202);
    const Int32Tensor prev = randomInt32(Shape{6, 21}, 203);
    EXPECT_TRUE(matmulDiffPlan(plan, b, &prev) == prev);
}

TEST(DiffGemm, AllFull8DiffStaysExact)
{
    Int16Tensor diff(Shape{4, 70});
    Rng rng(204);
    diff.fillUniformInt(rng, -254, 254);
    for (auto &v : diff.data())
        if (v >= -8 && v <= 7)
            v = 200; // force every element onto the wide path
    const DiffGemmPlan plan = encodeDiff(diff);
    EXPECT_EQ(plan.full8Elems, diff.numel());
    const Int8Tensor b = randomInt8(Shape{70, 13}, 205);
    EXPECT_TRUE(matmulDiffPlan(plan, b) == naive::matmulDiffInt16(diff, b));
}

TEST(DiffGemm, ThreadCountInvariance)
{
    const Int16Tensor diff = mixDiff(Shape{37, 129}, 75, 20, 206);
    const Int8Tensor b = randomInt8(Shape{53, 129}, 207);
    const Int32Tensor prev = randomInt32(Shape{37, 53}, 208);
    setThreadCount(1);
    const DiffGemmPlan plan1 = encodeTemporalDiff(
        randomInt8(Shape{37, 129}, 209), randomInt8(Shape{37, 129}, 210));
    const Int32Tensor r1 = matmulTransposedDiffPlan(plan1, b, &prev);
    setThreadCount(4);
    const DiffGemmPlan plan4 = encodeTemporalDiff(
        randomInt8(Shape{37, 129}, 209), randomInt8(Shape{37, 129}, 210));
    const Int32Tensor r4 = matmulTransposedDiffPlan(plan4, b, &prev);
    setThreadCount(1);
    EXPECT_TRUE(decodePlan(plan1) == decodePlan(plan4))
        << "encoder output depends on thread count";
    EXPECT_TRUE(r1 == r4) << "diff GEMM depends on thread count";
}

// ---- Engine-level parity ------------------------------------------------

/** Perturb codes slightly, like an adjacent time step would. */
Int8Tensor
perturb(const Int8Tensor &base, uint64_t seed)
{
    Rng rng(seed);
    Int8Tensor out = base;
    for (auto &v : out.data()) {
        if (rng.bernoulli(0.4)) {
            const int delta =
                static_cast<int>(rng.uniformInt(10)) - 5;
            v = static_cast<int8_t>(
                std::clamp(static_cast<int>(v) + delta, -127, 127));
        }
    }
    return out;
}

TEST(DiffEngines, FcSparseMatchesNaiveDense)
{
    // A plain fc layer, and cross attention's Q' K'^T with the constant
    // context projection K' [7, 29] as the weight.
    const struct
    {
        Shape weight, x;
        uint64_t seed;
    } cases[] = {
        {Shape{19, 33}, Shape{7, 33}, 300},
        {Shape{7, 29}, Shape{12, 29}, 508},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.weight.toString());
        const Int8Tensor w = randomInt8(c.weight, c.seed);
        DiffFcEngine engine(w);
        const Int8Tensor x_prev = randomInt8(c.x, c.seed + 1);
        const Int8Tensor x_cur = perturb(x_prev, c.seed + 2);
        const Int32Tensor out_prev = engine.runDirect(x_prev);
        OpCounts sparse_counts, dense_counts;
        const Int32Tensor sparse =
            engine.runDiff(x_cur, x_prev, out_prev, &sparse_counts,
                           DiffPolicy::ForceDiff);
        const Int32Tensor dense =
            naive::fcRunDiff(x_cur, x_prev, out_prev, w, &dense_counts);
        EXPECT_TRUE(sparse == dense);
        EXPECT_TRUE(sparse == engine.runDirect(x_cur));
        EXPECT_EQ(sparse_counts.zeroSkipped, dense_counts.zeroSkipped);
        EXPECT_EQ(sparse_counts.low4, dense_counts.low4);
        EXPECT_EQ(sparse_counts.full8, dense_counts.full8);
    }
}

TEST(DiffEngines, ConvSparseMatchesNaiveDense)
{
    const struct
    {
        int64_t cin, cout, h, w, kernel, stride, padding;
    } cases[] = {
        {3, 5, 6, 6, 3, 1, 1},  {2, 4, 8, 8, 3, 2, 1},
        {1, 1, 5, 5, 1, 1, 0},  {2, 7, 9, 5, 5, 2, 3},
        {4, 3, 7, 7, 3, 3, 0},
    };
    uint64_t seed = 400;
    for (const auto &cc : cases) {
        const Conv2dParams p{cc.cin, cc.cout, cc.kernel, cc.stride,
                             cc.padding};
        const Int8Tensor w = randomInt8(
            Shape{cc.cout, cc.cin, cc.kernel, cc.kernel}, seed++);
        DiffConvEngine engine(w, p);
        const Int8Tensor x_prev =
            randomInt8(Shape{2, cc.cin, cc.h, cc.w}, seed++);
        const Int8Tensor x_cur = perturb(x_prev, seed++);
        const Int32Tensor out_prev = engine.runDirect(x_prev);
        OpCounts sparse_counts, dense_counts;
        const Int32Tensor sparse =
            engine.runDiff(x_cur, x_prev, out_prev, &sparse_counts,
                       DiffPolicy::ForceDiff);
        EXPECT_TRUE(sparse == naive::convRunDiff(x_cur, x_prev, out_prev,
                                                 w, p, &dense_counts));
        EXPECT_TRUE(sparse == engine.runDirect(x_cur));
        // Same per-input-element tally convention as the dense path.
        EXPECT_EQ(sparse_counts.zeroSkipped, dense_counts.zeroSkipped);
        EXPECT_EQ(sparse_counts.low4, dense_counts.low4);
        EXPECT_EQ(sparse_counts.full8, dense_counts.full8);
    }
}

TEST(DiffEngines, AttentionScoresSparseMatchesNaive)
{
    const Int8Tensor q_prev = randomInt8(Shape{21, 18}, 500);
    const Int8Tensor k_prev = randomInt8(Shape{13, 18}, 501);
    const Int8Tensor q_cur = perturb(q_prev, 502);
    const Int8Tensor k_cur = perturb(k_prev, 503);
    const Int32Tensor s_prev = attentionScoresDirect(q_prev, k_prev);
    OpCounts sparse_counts, dense_counts;
    const Int32Tensor sparse = attentionScoresDiff(
        q_cur, q_prev, k_cur, k_prev, s_prev, &sparse_counts,
        DiffPolicy::ForceDiff);
    const Int32Tensor dense = naive::attentionScoresDiff(
        q_cur, q_prev, k_cur, k_prev, s_prev, &dense_counts);
    EXPECT_TRUE(sparse == dense);
    EXPECT_TRUE(sparse == attentionScoresDirect(q_cur, k_cur));
    EXPECT_EQ(sparse_counts.total(), dense_counts.total());
    EXPECT_EQ(sparse_counts.zeroSkipped, dense_counts.zeroSkipped);
}

TEST(DiffEngines, AttentionOutputSparseMatchesNaive)
{
    const Int8Tensor p_prev = randomInt8(Shape{15, 11}, 504, 0, 127);
    const Int8Tensor v_prev = randomInt8(Shape{11, 23}, 505);
    const Int8Tensor p_cur = perturb(p_prev, 506);
    const Int8Tensor v_cur = perturb(v_prev, 507);
    const Int32Tensor o_prev = attentionOutputDirect(p_prev, v_prev);
    OpCounts sparse_counts, dense_counts;
    const Int32Tensor sparse = attentionOutputDiff(
        p_cur, p_prev, v_cur, v_prev, o_prev, &sparse_counts,
        DiffPolicy::ForceDiff);
    const Int32Tensor dense = naive::attentionOutputDiff(
        p_cur, p_prev, v_cur, v_prev, o_prev, &dense_counts);
    EXPECT_TRUE(sparse == dense);
    EXPECT_TRUE(sparse == attentionOutputDirect(p_cur, v_cur));
    EXPECT_EQ(sparse_counts.total(), dense_counts.total());
    EXPECT_EQ(sparse_counts.low4, dense_counts.low4);
}

TEST(DiffEngines, EngineThreadCountInvariance)
{
    const Conv2dParams p{3, 6, 3, 1, 1};
    const Int8Tensor w = randomInt8(Shape{6, 3, 3, 3}, 600);
    DiffConvEngine engine(w, p);
    const Int8Tensor x_prev = randomInt8(Shape{1, 3, 9, 9}, 601);
    const Int8Tensor x_cur = perturb(x_prev, 602);
    const Int32Tensor out_prev = engine.runDirect(x_prev);
    setThreadCount(1);
    const Int32Tensor r1 = engine.runDiff(x_cur, x_prev, out_prev,
                                          nullptr, DiffPolicy::ForceDiff);
    setThreadCount(4);
    const Int32Tensor r4 = engine.runDiff(x_cur, x_prev, out_prev,
                                          nullptr, DiffPolicy::ForceDiff);
    setThreadCount(1);
    EXPECT_TRUE(r1 == r4);
}

TEST(DiffEngines, SingleRequestEntryPointsRejectMismatchedShapes)
{
    // The wrappers hand raw pointers to the batched bodies, so every
    // caller shape must be checked up front: a mismatch panics with a
    // reason instead of reading out of range.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const DiffFcEngine fc(randomInt8(Shape{6, 8}, 800));
    const Int8Tensor x = randomInt8(Shape{5, 8}, 801);
    const Int32Tensor fc_out = fc.runDirect(x);
    EXPECT_DEATH(fc.runDiff(x, randomInt8(Shape{4, 8}, 802), fc_out),
                 "fc diff input shape mismatch");
    EXPECT_DEATH(fc.runDiff(x, x, randomInt32(Shape{5, 7}, 803)),
                 "previous output shape mismatch");
    const Int8Tensor wide = randomInt8(Shape{5, 9}, 804);
    EXPECT_DEATH(fc.runDiff(wide, wide, fc_out), "in_features");

    const Conv2dParams p{3, 4, 3, 1, 1};
    const DiffConvEngine conv(randomInt8(Shape{4, 3, 3, 3}, 805), p);
    const Int8Tensor img = randomInt8(Shape{1, 3, 6, 6}, 806);
    const Int32Tensor conv_out = conv.runDirect(img);
    const Int8Tensor img2 = randomInt8(Shape{1, 2, 6, 6}, 807);
    EXPECT_DEATH(conv.runDiff(img2, img2, conv_out), "engine's channels");
    EXPECT_DEATH(conv.runDiff(img, img, randomInt32(Shape{1, 4, 5, 6}, 808)),
                 "previous output shape mismatch");

    // Cross attention's Q' K'^T: K' [7, 8] as the weight.
    const DiffFcEngine cross_qk(randomInt8(Shape{7, 8}, 809));
    EXPECT_DEATH(cross_qk.runDiff(x, x, randomInt32(Shape{5, 6}, 810)),
                 "previous output shape mismatch");

    const Int8Tensor q = randomInt8(Shape{6, 8}, 811);
    const Int8Tensor k = randomInt8(Shape{4, 8}, 812);
    const Int8Tensor k9 = randomInt8(Shape{4, 9}, 813);
    const Int32Tensor s = attentionScoresDirect(q, k);
    EXPECT_DEATH(attentionScoresDiff(q, q, k9, k9, s), "head dimension");
    EXPECT_DEATH(attentionScoresDiff(q, q, k, k, randomInt32(Shape{4, 6}, 814)),
                 "previous output shape mismatch");

    const Int8Tensor pm = randomInt8(Shape{6, 4}, 815, 0, 127);
    const Int8Tensor v = randomInt8(Shape{4, 5}, 816);
    const Int8Tensor v3 = randomInt8(Shape{3, 5}, 817);
    const Int32Tensor o = attentionOutputDirect(pm, v);
    EXPECT_DEATH(attentionOutputDiff(pm, pm, v3, v3, o),
                 "P/V inner dimension mismatch");
    EXPECT_DEATH(attentionOutputDiff(pm, pm, v, v, randomInt32(Shape{6, 4}, 818)),
                 "previous output shape mismatch");
}

// ---- Fold-back helpers --------------------------------------------------

TEST(DiffGemmHelpers, AddTransposedInt32)
{
    const Int32Tensor prev = randomInt32(Shape{5, 9}, 700);
    const Int32Tensor delta = randomInt32(Shape{9, 5}, 701);
    const Int32Tensor out = addTransposedInt32(prev, delta);
    for (int64_t r = 0; r < 5; ++r)
        for (int64_t c = 0; c < 9; ++c)
            EXPECT_EQ(out.at(r, c), prev.at(r, c) + delta.at(c, r));
}

} // namespace
} // namespace ditto
