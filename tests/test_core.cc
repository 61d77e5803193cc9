/**
 * @file
 * Tests for src/core: exactness of difference processing (the heart of
 * the Ditto algorithm), BOPs accounting, the Defo controller and the
 * functional MiniUnet pipeline.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "common/env.h"
#include "common/rng.h"
#include "core/attention_diff.h"
#include "core/bops.h"
#include "core/defo.h"
#include "core/diff_linear.h"
#include "runtime/compiled.h"
#include "runtime/presets.h"
#include "stats/similarity.h"

namespace ditto {
namespace {

Int8Tensor
randomCodes(const Shape &shape, uint64_t seed, int lo = -127,
            int hi = 127)
{
    Rng rng(seed);
    Int8Tensor t(shape);
    t.fillUniformInt(rng, lo, hi);
    return t;
}

/** Perturb codes slightly, like an adjacent time step would. */
Int8Tensor
perturb(const Int8Tensor &base, uint64_t seed, double flip_prob = 0.4,
        int max_delta = 5)
{
    Rng rng(seed);
    Int8Tensor out = base;
    auto span = out.data();
    for (auto &v : span) {
        if (rng.bernoulli(flip_prob)) {
            const int delta = static_cast<int>(
                rng.uniformInt(static_cast<uint64_t>(2 * max_delta))) -
                max_delta;
            const int nv = std::clamp(static_cast<int>(v) + delta, -127,
                                      127);
            v = static_cast<int8_t>(nv);
        }
    }
    return out;
}

// ---- Weight-stationary difference processing --------------------------

TEST(DiffFc, BitExactAgainstDirect)
{
    // A plain fc layer, and cross attention's Q' K'^T with the constant
    // context projection K' [7, 8] as the weight.
    const struct
    {
        Shape weight, x;
        uint64_t seed;
    } cases[] = {
        {Shape{16, 32}, Shape{4, 32}, 1},
        {Shape{7, 8}, Shape{5, 8}, 37},
    };
    for (const auto &c : cases) {
        DiffFcEngine engine(randomCodes(c.weight, c.seed));
        const Int8Tensor x_prev = randomCodes(c.x, c.seed + 1);
        const Int8Tensor x_cur = perturb(x_prev, c.seed + 2);
        const Int32Tensor out_prev = engine.runDirect(x_prev);
        const Int32Tensor via_diff = engine.runDiff(x_cur, x_prev, out_prev);
        const Int32Tensor direct = engine.runDirect(x_cur);
        EXPECT_TRUE(via_diff == direct) << c.weight.toString();
    }
}

TEST(DiffFc, ExactEvenForExtremeDifferences)
{
    // Differences of int8 codes can span [-254, 254]; exactness must
    // not depend on similarity.
    DiffFcEngine engine(randomCodes(Shape{8, 8}, 4));
    Int8Tensor x_prev(Shape{1, 8}, static_cast<int8_t>(-127));
    Int8Tensor x_cur(Shape{1, 8}, static_cast<int8_t>(127));
    const Int32Tensor out_prev = engine.runDirect(x_prev);
    EXPECT_TRUE(engine.runDiff(x_cur, x_prev, out_prev) ==
                engine.runDirect(x_cur));
}

TEST(DiffFc, OpCountsMatchClassifier)
{
    DiffFcEngine engine(randomCodes(Shape{10, 16}, 5));
    const Int8Tensor x_prev = randomCodes(Shape{2, 16}, 6);
    const Int8Tensor x_cur = perturb(x_prev, 7);
    const Int32Tensor out_prev = engine.runDirect(x_prev);
    OpCounts counts;
    engine.runDiff(x_cur, x_prev, out_prev, &counts);
    const BitClassHistogram h = classifyTemporalDiff(x_cur, x_prev);
    // Each input element drives out_features (=10) multiplies.
    EXPECT_EQ(counts.total(), 2 * 16 * 10);
    EXPECT_EQ(counts.zeroSkipped,
              static_cast<int64_t>(h.zeroFrac * 32 + 0.5) * 10);
}

TEST(DiffConv, BitExactAgainstDirect)
{
    const Conv2dParams p{3, 5, 3, 1, 1};
    DiffConvEngine engine(randomCodes(Shape{5, 3, 3, 3}, 8), p);
    const Int8Tensor x_prev = randomCodes(Shape{1, 3, 6, 6}, 9);
    const Int8Tensor x_cur = perturb(x_prev, 10);
    const Int32Tensor out_prev = engine.runDirect(x_prev);
    EXPECT_TRUE(engine.runDiff(x_cur, x_prev, out_prev) ==
                engine.runDirect(x_cur));
}

TEST(DiffConv, BitExactWithStride)
{
    const Conv2dParams p{2, 4, 3, 2, 1};
    DiffConvEngine engine(randomCodes(Shape{4, 2, 3, 3}, 11), p);
    const Int8Tensor x_prev = randomCodes(Shape{1, 2, 8, 8}, 12);
    const Int8Tensor x_cur = perturb(x_prev, 13);
    const Int32Tensor out_prev = engine.runDirect(x_prev);
    EXPECT_TRUE(engine.runDiff(x_cur, x_prev, out_prev) ==
                engine.runDirect(x_cur));
}

/** Property sweep over shapes and seeds: exactness is unconditional. */
class DiffExactness
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(DiffExactness, FcChainStaysExactAcrossSteps)
{
    const auto [rows, features, seed] = GetParam();
    DiffFcEngine engine(
        randomCodes(Shape{features, features},
                    static_cast<uint64_t>(seed)));
    Int8Tensor x = randomCodes(Shape{rows, features},
                               static_cast<uint64_t>(seed) + 1);
    Int32Tensor out = engine.runDirect(x);
    // Five chained steps: state threads exactly.
    for (int t = 0; t < 5; ++t) {
        const Int8Tensor next =
            perturb(x, static_cast<uint64_t>(seed) + 10 + t);
        out = engine.runDiff(next, x, out);
        EXPECT_TRUE(out == engine.runDirect(next))
            << "step " << t << " diverged";
        x = next;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSeeds, DiffExactness,
    ::testing::Combine(::testing::Values(1, 3, 8),
                       ::testing::Values(4, 16, 33),
                       ::testing::Values(100, 200)));

// ---- Attention difference processing -----------------------------------

TEST(AttnDiff, ScoresBitExact)
{
    const Int8Tensor q_prev = randomCodes(Shape{6, 8}, 20);
    const Int8Tensor k_prev = randomCodes(Shape{6, 8}, 21);
    const Int8Tensor q_cur = perturb(q_prev, 22);
    const Int8Tensor k_cur = perturb(k_prev, 23);
    const Int32Tensor s_prev = attentionScoresDirect(q_prev, k_prev);
    const Int32Tensor via_diff =
        attentionScoresDiff(q_cur, q_prev, k_cur, k_prev, s_prev);
    EXPECT_TRUE(via_diff == attentionScoresDirect(q_cur, k_cur));
}

TEST(AttnDiff, ScoresExactWhenOnlyOneOperandChanges)
{
    const Int8Tensor q_prev = randomCodes(Shape{4, 8}, 24);
    const Int8Tensor k = randomCodes(Shape{4, 8}, 25);
    const Int8Tensor q_cur = perturb(q_prev, 26);
    const Int32Tensor s_prev = attentionScoresDirect(q_prev, k);
    EXPECT_TRUE(attentionScoresDiff(q_cur, q_prev, k, k, s_prev) ==
                attentionScoresDirect(q_cur, k));
}

TEST(AttnDiff, OutputBitExact)
{
    const Int8Tensor p_prev = randomCodes(Shape{5, 5}, 27, 0, 127);
    const Int8Tensor v_prev = randomCodes(Shape{5, 8}, 28);
    const Int8Tensor p_cur = perturb(p_prev, 29);
    const Int8Tensor v_cur = perturb(v_prev, 30);
    const Int32Tensor o_prev = attentionOutputDirect(p_prev, v_prev);
    EXPECT_TRUE(attentionOutputDiff(p_cur, p_prev, v_cur, v_prev,
                                    o_prev) ==
                attentionOutputDirect(p_cur, v_cur));
}

TEST(AttnDiff, MultiStepChainExact)
{
    Int8Tensor q = randomCodes(Shape{4, 6}, 31);
    Int8Tensor k = randomCodes(Shape{4, 6}, 32);
    Int32Tensor s = attentionScoresDirect(q, k);
    for (int t = 0; t < 4; ++t) {
        const Int8Tensor qn = perturb(q, 40 + t);
        const Int8Tensor kn = perturb(k, 50 + t);
        s = attentionScoresDiff(qn, q, kn, k, s);
        EXPECT_TRUE(s == attentionScoresDirect(qn, kn));
        q = qn;
        k = kn;
    }
}

TEST(AttnDiff, OpCountsCoverBothSubOperations)
{
    const Int8Tensor q_prev = randomCodes(Shape{6, 8}, 33);
    const Int8Tensor k_prev = randomCodes(Shape{6, 8}, 34);
    const Int8Tensor q_cur = perturb(q_prev, 35);
    const Int8Tensor k_cur = perturb(k_prev, 36);
    const Int32Tensor s_prev = attentionScoresDirect(q_prev, k_prev);
    OpCounts counts;
    attentionScoresDiff(q_cur, q_prev, k_cur, k_prev, s_prev, &counts);
    // Two sub-operations, each tokens x tokens x d multiplies.
    EXPECT_EQ(counts.total(), 2 * 6 * 6 * 8);
}

// ---- BOPs accounting ----------------------------------------------------

TEST(Bops, ActModeCosts64PerMac)
{
    Layer l;
    l.kind = OpKind::Fc;
    l.macs = 100;
    BitFractions f;
    EXPECT_DOUBLE_EQ(layerBops(l, ExecMode::Act, f), 6400.0);
}

TEST(Bops, DiffModeWeightsByBitClass)
{
    Layer l;
    l.kind = OpKind::Conv2d;
    l.macs = 100;
    BitFractions f;
    f.zero = 0.5;
    f.low4 = 0.4;
    f.full8 = 0.1;
    // 0.4*32 + 0.1*64 per MAC.
    EXPECT_DOUBLE_EQ(layerBops(l, ExecMode::TemporalDiff, f), 1920.0);
}

TEST(Bops, DynamicAttentionDoublesForTwoSubOps)
{
    Layer fc;
    fc.kind = OpKind::Fc;
    fc.macs = 100;
    Layer qk = fc;
    qk.kind = OpKind::AttnQK;
    BitFractions f;
    f.low4 = 1.0;
    EXPECT_DOUBLE_EQ(layerBops(qk, ExecMode::TemporalDiff, f),
                     2.0 * layerBops(fc, ExecMode::TemporalDiff, f));
}

TEST(Bops, LaneSlotsZeroSkippedAndDoubleFor8Bit)
{
    Layer l;
    l.kind = OpKind::Fc;
    l.macs = 10;
    BitFractions f;
    f.zero = 0.5;
    f.low4 = 0.3;
    f.full8 = 0.2;
    EXPECT_DOUBLE_EQ(layerLaneSlots(l, ExecMode::TemporalDiff, f),
                     10.0 * (0.3 + 0.4));
    EXPECT_DOUBLE_EQ(layerLaneSlots(l, ExecMode::Act, f), 20.0);
}

// ---- Defo controller -----------------------------------------------------

TEST(Defo, AlwaysActNeverChoosesDiff)
{
    DefoController c(FlowPolicy::AlwaysAct, 4);
    for (int t = 0; t < 5; ++t)
        EXPECT_EQ(c.chooseMode(0, t), ExecMode::Act);
}

TEST(Defo, AlwaysDiffPrimesWithActFirstStep)
{
    DefoController c(FlowPolicy::AlwaysDiff, 4);
    EXPECT_EQ(c.chooseMode(1, 0), ExecMode::Act);
    EXPECT_EQ(c.chooseMode(1, 1), ExecMode::TemporalDiff);
    EXPECT_EQ(c.chooseMode(1, 7), ExecMode::TemporalDiff);
}

TEST(Defo, LocksCheaperModeAtSecondStep)
{
    DefoController c(FlowPolicy::Defo, 2);
    // Layer 0: act cheap (10) vs diff expensive (20) -> revert.
    c.observe(0, 0, ExecMode::Act, 10.0);
    c.observe(0, 1, ExecMode::TemporalDiff, 20.0);
    // Layer 1: diff cheap -> keep diff.
    c.observe(1, 0, ExecMode::Act, 10.0);
    c.observe(1, 1, ExecMode::TemporalDiff, 5.0);
    EXPECT_EQ(c.chooseMode(0, 2), ExecMode::Act);
    EXPECT_EQ(c.chooseMode(1, 2), ExecMode::TemporalDiff);
    EXPECT_TRUE(c.revertedToAct(0));
    EXPECT_FALSE(c.revertedToAct(1));
}

TEST(Defo, DefoPlusUsesSpatialAsActStyle)
{
    DefoController c(FlowPolicy::DefoPlus, 1);
    EXPECT_EQ(c.chooseMode(0, 0), ExecMode::SpatialDiff);
    c.observe(0, 0, ExecMode::SpatialDiff, 10.0);
    c.observe(0, 1, ExecMode::TemporalDiff, 20.0);
    EXPECT_EQ(c.chooseMode(0, 2), ExecMode::SpatialDiff);
}

TEST(Defo, DynamicDemotesOnSustainedRegression)
{
    DefoController c(FlowPolicy::DynamicDefo, 1);
    c.observe(0, 0, ExecMode::Act, 10.0);
    c.observe(0, 1, ExecMode::TemporalDiff, 5.0);
    EXPECT_EQ(c.chooseMode(0, 2), ExecMode::TemporalDiff);
    // A single expensive step does not demote...
    c.observe(0, 2, ExecMode::TemporalDiff, 30.0);
    EXPECT_EQ(c.chooseMode(0, 3), ExecMode::TemporalDiff);
    // ...but a sustained regression does.
    for (int t = 3; t < 7; ++t)
        c.observe(0, t, ExecMode::TemporalDiff, 30.0);
    EXPECT_EQ(c.chooseMode(0, 7), ExecMode::Act);
    EXPECT_TRUE(c.revertedToAct(0));
}

TEST(Defo, IdealFollowsOracle)
{
    DefoController c(FlowPolicy::Ideal, 1);
    c.observeOracle(0, 1, 10.0, 20.0, 15.0);
    EXPECT_EQ(c.chooseMode(0, 1), ExecMode::Act);
    c.observeOracle(0, 2, 10.0, 5.0, 15.0);
    EXPECT_EQ(c.chooseMode(0, 2), ExecMode::TemporalDiff);
}

TEST(Defo, PolicyNamesStable)
{
    EXPECT_STREQ(flowPolicyName(FlowPolicy::Defo), "Defo");
    EXPECT_STREQ(flowPolicyName(FlowPolicy::DefoPlus), "Defo+");
    EXPECT_STREQ(flowPolicyName(FlowPolicy::Ideal), "Ideal");
}

// ---- Software Defo cost model ---------------------------------------------

TEST(SoftwareDefo, PenaltiesAreFixedUnlessOverridden)
{
    // Constants, not a timing probe: every process makes the same
    // reversion decisions unless DITTO_DIFF_MAC_PENALTY overrides them.
    if (!env::readString("DITTO_DIFF_MAC_PENALTY", "").empty())
        GTEST_SKIP() << "DITTO_DIFF_MAC_PENALTY is set";
    EXPECT_DOUBLE_EQ(diffMacPenalty(128), 2.2);
    EXPECT_DOUBLE_EQ(diffMacPenalty(64), 2.2);
    EXPECT_DOUBLE_EQ(diffMacPenalty(16), 8.0);
}

// ---- Functional pipeline (Table II proxy) -------------------------------

TEST(MiniUnet, DittoBitExactAgainstQuantizedDirect)
{
    MiniUnetConfig cfg;
    cfg.steps = 4;
    const CompiledModel net = compile(miniUnetSpec(cfg));
    const RolloutResult direct = net.rollout(RunMode::QuantDirect);
    const RolloutResult ditto = net.rollout(RunMode::QuantDitto);
    EXPECT_TRUE(direct.finalImage == ditto.finalImage);
}

TEST(MiniUnet, QuantizationPreservesSignal)
{
    MiniUnetConfig cfg;
    cfg.steps = 4;
    const CompiledModel net = compile(miniUnetSpec(cfg));
    const RolloutResult fp = net.rollout(RunMode::Fp32);
    const RolloutResult q = net.rollout(RunMode::QuantDirect);
    EXPECT_GT(sqnrDb(fp.finalImage, q.finalImage), 25.0);
}

TEST(MiniUnet, DittoOpsShowSparsityAndNarrowness)
{
    MiniUnetConfig cfg;
    cfg.steps = 5;
    const CompiledModel net = compile(miniUnetSpec(cfg));
    const RolloutResult r = net.rollout(RunMode::QuantDitto);
    EXPECT_GT(r.dittoOps.total(), 0);
    // The toy trajectory converges, so most diff multiplies should be
    // skippable or narrow — the premise of the whole paper.
    const double zero_frac =
        static_cast<double>(r.dittoOps.zeroSkipped) / r.dittoOps.total();
    const double full_frac =
        static_cast<double>(r.dittoOps.full8) / r.dittoOps.total();
    EXPECT_GT(zero_frac, 0.05);
    EXPECT_LT(full_frac, 0.30);
}

TEST(MiniUnet, DifferentSeedsDifferentImages)
{
    MiniUnetConfig a;
    a.steps = 3;
    MiniUnetConfig b = a;
    b.seed = 77;
    const CompiledModel na = compile(miniUnetSpec(a));
    const CompiledModel nb = compile(miniUnetSpec(b));
    EXPECT_FALSE(na.rollout(RunMode::Fp32).finalImage ==
                 nb.rollout(RunMode::Fp32).finalImage);
}

TEST(MiniUnet, BitExactAcrossConfigSweep)
{
    for (int64_t channels : {4, 8}) {
        for (int64_t res : {4, 8}) {
            MiniUnetConfig cfg;
            cfg.channels = channels;
            cfg.resolution = res;
            cfg.steps = 3;
            const CompiledModel net = compile(miniUnetSpec(cfg));
            EXPECT_TRUE(net.rollout(RunMode::QuantDirect).finalImage ==
                        net.rollout(RunMode::QuantDitto).finalImage)
                << "channels=" << channels << " res=" << res;
        }
    }
}

} // namespace
} // namespace ditto
