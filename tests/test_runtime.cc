/**
 * @file
 * Graph runtime tests: the golden parity suite (compiled MiniUnet ==
 * hand-wired MiniUnet, bitwise, across modes / batch sizes / thread
 * counts / mixed-mode serving), the dependency-analysis skip proof,
 * the two new executable specs end to end (standalone and through
 * DenoiseServer), API shape validation, and the env-knob registry.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/parallel.h"
#include "core/legacy_unet.h"
#include "runtime/compiled.h"
#include "runtime/presets.h"
#include "serve/server.h"
#include "tensor/slab.h"

namespace ditto {
namespace {

MiniUnetConfig
parityConfig()
{
    MiniUnetConfig cfg;
    cfg.channels = 8;
    cfg.resolution = 8;
    cfg.steps = 5;
    return cfg;
}

/** Both implementations of the same model, built once. */
struct ParityPair
{
    HandWiredMiniUnet legacy;
    CompiledModel compiled;
    explicit ParityPair(const MiniUnetConfig &cfg)
        : legacy(cfg), compiled(compile(miniUnetSpec(cfg)))
    {}
};

const ParityPair &
parityPair()
{
    static const ParityPair *pair = new ParityPair(parityConfig());
    return *pair;
}

void
expectRolloutParity(const RolloutResult &want, const RolloutResult &got)
{
    EXPECT_TRUE(want.finalImage == got.finalImage);
    EXPECT_EQ(want.totalMacsPerStep, got.totalMacsPerStep);
    // The multiplier-lane tallies fall out of the same probes either
    // way; only the new diff-calc/summation bookkeeping may differ
    // (the compiled path skips work the hand-wired path performs).
    EXPECT_EQ(want.dittoOps.zeroSkipped, got.dittoOps.zeroSkipped);
    EXPECT_EQ(want.dittoOps.low4, got.dittoOps.low4);
    EXPECT_EQ(want.dittoOps.full8, got.dittoOps.full8);
}

TEST(GoldenParity, RolloutAllModes)
{
    const ParityPair &p = parityPair();
    for (RunMode mode :
         {RunMode::Fp32, RunMode::QuantDirect, RunMode::QuantDitto}) {
        expectRolloutParity(p.legacy.rollout(mode),
                            p.compiled.rollout(mode));
    }
}

TEST(GoldenParity, RequestNoiseAndCustomSteps)
{
    const ParityPair &p = parityPair();
    for (uint64_t seed : {7ull, 1234ull}) {
        const FloatTensor noise = p.legacy.requestNoise(seed);
        EXPECT_TRUE(noise == p.compiled.requestNoise(seed));
        for (int steps : {1, 3, 7}) {
            for (RunMode mode :
                 {RunMode::QuantDirect, RunMode::QuantDitto}) {
                expectRolloutParity(
                    p.legacy.rollout(mode, noise, steps),
                    p.compiled.rollout(mode, noise, steps));
            }
        }
    }
}

TEST(GoldenParity, BatchedRollouts)
{
    const ParityPair &p = parityPair();
    for (int64_t batch : {1, 3, 4}) {
        std::vector<FloatTensor> noises;
        for (int64_t b = 0; b < batch; ++b)
            noises.push_back(
                p.legacy.requestNoise(static_cast<uint64_t>(50 + b)));
        for (RunMode mode :
             {RunMode::QuantDirect, RunMode::QuantDitto}) {
            const std::vector<RolloutResult> got =
                p.compiled.rolloutBatch(mode, noises);
            ASSERT_EQ(got.size(), noises.size());
            for (size_t i = 0; i < got.size(); ++i)
                expectRolloutParity(p.legacy.rollout(mode, noises[i]),
                                    got[i]);
        }
    }
}

TEST(GoldenParity, ThreadCountInvariance)
{
    const ParityPair &p = parityPair();
    setThreadCount(1);
    const RolloutResult one = p.compiled.rollout(RunMode::QuantDitto);
    setThreadCount(3);
    const RolloutResult three = p.compiled.rollout(RunMode::QuantDitto);
    const RolloutResult legacy = p.legacy.rollout(RunMode::QuantDitto);
    setThreadCount(1);
    EXPECT_TRUE(one.finalImage == three.finalImage);
    EXPECT_TRUE(one.finalImage == legacy.finalImage);
}

TEST(GoldenParity, MixedModeServingMatchesHandWired)
{
    const ParityPair &p = parityPair();
    ServerConfig cfg;
    cfg.maxBatch = 3;
    cfg.maxWaitMicros = 1000;
    cfg.workers = 1;
    DenoiseServer server(p.compiled, cfg);
    std::vector<DenoiseRequest> reqs;
    for (int i = 0; i < 8; ++i) {
        DenoiseRequest req;
        req.seed = 900 + static_cast<uint64_t>(i);
        req.steps = 3 + i % 3;
        req.mode =
            i % 3 == 2 ? RunMode::QuantDirect : RunMode::QuantDitto;
        reqs.push_back(req);
    }
    std::vector<uint64_t> ids;
    for (const DenoiseRequest &req : reqs)
        ids.push_back(server.submit(req));
    for (size_t i = 0; i < ids.size(); ++i) {
        const DenoiseResult res = server.wait(ids[i]);
        const RolloutResult want = p.legacy.rollout(
            reqs[i].mode, p.legacy.requestNoise(reqs[i].seed),
            reqs[i].steps);
        EXPECT_TRUE(want.finalImage == res.image)
            << "request " << i << " diverged from the hand-wired path";
    }
}

TEST(GoldenParity, MiniUnetSpecUsesTheDependencyAnalysis)
{
    const ParityPair &p = parityPair();
    // Weight-stationary hand-overs: PV -> proj, crossQ -> crossQK,
    // crossPV -> crossOut. Dynamic-attention operand hand-overs: the
    // q/k/v convolutions feed the QK/PV operands their requantized
    // code diffs directly (and skip their float materialization).
    EXPECT_EQ(p.compiled.numDiffBypassNodes(), 6);
    EXPECT_EQ(p.compiled.numSumSkipNodes(), 6);
}

/** input -> tokens -> fc1 -> fc2 -> fc3 -> nchw: a diff-transparent
 *  chain whose interior boundaries the dependency analysis elides. */
ModelSpec
fcChainSpec()
{
    const int64_t res = 4;
    const int64_t c = 6;
    const int64_t f = 12;
    GraphBuilder b("fc_chain");
    b.setSeed(11);
    b.setSteps(4);
    const int x = b.input(c, res);
    const int tok = b.nchwToTokens("tok", x);
    const int fc1 = b.fc("fc1", tok, f, b.newScale());
    const int fc2 = b.fc("fc2", fc1, f, b.newScale());
    const int fc3 = b.fc("fc3", fc2, c, b.newScale());
    b.tokensToNchw("out", fc3, res, res);
    return b.build();
}

TEST(DependencySkip, VerdictsOnTransparentChain)
{
    const ModelSpec spec = fcChainSpec();
    const ModelGraph graph = spec.toGraph();
    const std::vector<LayerDependency> deps =
        graph.analyzeDependencies();
    const int fc1 = graph.findLayer("fc1");
    const int fc2 = graph.findLayer("fc2");
    const int fc3 = graph.findLayer("fc3");
    ASSERT_TRUE(fc1 >= 0 && fc2 >= 0 && fc3 >= 0);
    // fc1 reads the graph input: difference calculation required; its
    // consumer is fc2, so no summation. Interior fc2 needs neither.
    // fc3 feeds the graph output: summation required.
    EXPECT_TRUE(deps[fc1].diffCalcNeeded);
    EXPECT_FALSE(deps[fc1].summationNeeded);
    EXPECT_FALSE(deps[fc2].diffCalcNeeded);
    EXPECT_FALSE(deps[fc2].summationNeeded);
    EXPECT_FALSE(deps[fc3].diffCalcNeeded);
    EXPECT_TRUE(deps[fc3].summationNeeded);
}

TEST(DependencySkip, ProvablySkipsEncodeAndSummationWork)
{
    const ModelSpec spec = fcChainSpec();
    CompileOptions with;
    with.policy = DiffPolicy::ForceDiff;
    CompileOptions without = with;
    without.useDependencyAnalysis = false;
    const CompiledModel analyzed = compile(spec, with);
    const CompiledModel naive = compile(spec, without);

    EXPECT_EQ(analyzed.numDiffBypassNodes(), 2); // fc2, fc3
    EXPECT_EQ(analyzed.numSumSkipNodes(), 2);    // fc1, fc2
    EXPECT_EQ(naive.numDiffBypassNodes(), 0);

    const RolloutResult a = analyzed.rollout(RunMode::QuantDitto);
    const RolloutResult n = naive.rollout(RunMode::QuantDitto);
    const RolloutResult d = analyzed.rollout(RunMode::QuantDirect);

    // The rewiring is bitwise neutral...
    EXPECT_TRUE(a.finalImage == n.finalImage);
    EXPECT_TRUE(a.finalImage == d.finalImage);
    EXPECT_EQ(a.dittoOps.zeroSkipped, n.dittoOps.zeroSkipped);
    EXPECT_EQ(a.dittoOps.low4, n.dittoOps.low4);
    EXPECT_EQ(a.dittoOps.full8, n.dittoOps.full8);

    // ...but provably skips the work: with the analysis only fc1
    // subtracts against stored input codes and only fc3 materializes
    // full values; without it every layer does both, every primed
    // step.
    const int64_t primed = spec.steps - 1;
    const int64_t tokens = 4 * 4;
    const int64_t c = 6, f = 12;
    EXPECT_EQ(a.dittoOps.diffCalcElems, primed * tokens * c);
    EXPECT_EQ(a.dittoOps.summationElems, primed * tokens * c);
    EXPECT_EQ(n.dittoOps.diffCalcElems,
              primed * tokens * (c + f + f));
    EXPECT_EQ(n.dittoOps.summationElems,
              primed * tokens * (f + f + c));
}

TEST(DependencySkip, BatchedChainMatchesSequential)
{
    CompileOptions opts;
    opts.policy = DiffPolicy::ForceDiff;
    const CompiledModel model = compile(fcChainSpec(), opts);
    std::vector<FloatTensor> noises;
    for (uint64_t s = 0; s < 3; ++s)
        noises.push_back(model.requestNoise(70 + s));
    const std::vector<RolloutResult> batched =
        model.rolloutBatch(RunMode::QuantDitto, noises);
    for (size_t i = 0; i < noises.size(); ++i) {
        const RolloutResult solo =
            model.rollout(RunMode::QuantDitto, noises[i]);
        EXPECT_TRUE(solo.finalImage == batched[i].finalImage);
        EXPECT_EQ(solo.dittoOps.diffCalcElems,
                  batched[i].dittoOps.diffCalcElems);
        EXPECT_EQ(solo.dittoOps.summationElems,
                  batched[i].dittoOps.summationElems);
    }
}

// ---- Junction requant-delta algebra ----------------------------------

/** Find a node report by name; fails the test when absent. */
CompiledModel::NodeReport
reportOf(const CompiledModel &m, const std::string &name)
{
    for (const CompiledModel::NodeReport &r : m.nodeReports())
        if (r.name == name)
            return r;
    ADD_FAILURE() << "no node named " << name;
    return {};
}

/**
 * Compile with and without the analysis (ForceDiff so Defo reversion
 * never hides a broken plan) and assert bitwise identity in every
 * mode, batched and single, plus identical multiplier-lane tallies.
 * Returns {analyzed, naive} rollout results for count assertions.
 */
std::pair<RolloutResult, RolloutResult>
expectJunctionBitwise(const ModelSpec &spec)
{
    CompileOptions with;
    with.policy = DiffPolicy::ForceDiff;
    CompileOptions without = with;
    without.useDependencyAnalysis = false;
    const CompiledModel analyzed = compile(spec, with);
    const CompiledModel naive = compile(spec, without);

    for (RunMode mode :
         {RunMode::Fp32, RunMode::QuantDirect, RunMode::QuantDitto}) {
        const RolloutResult a = analyzed.rollout(mode);
        const RolloutResult n = naive.rollout(mode);
        EXPECT_TRUE(a.finalImage == n.finalImage)
            << spec.name << " diverged in mode "
            << static_cast<int>(mode);
        EXPECT_EQ(a.dittoOps.zeroSkipped, n.dittoOps.zeroSkipped);
        EXPECT_EQ(a.dittoOps.low4, n.dittoOps.low4);
        EXPECT_EQ(a.dittoOps.full8, n.dittoOps.full8);
    }
    for (int64_t batch : {1, 3, 4}) {
        std::vector<FloatTensor> noises;
        for (int64_t b = 0; b < batch; ++b)
            noises.push_back(
                analyzed.requestNoise(static_cast<uint64_t>(7 + b)));
        for (RunMode mode :
             {RunMode::QuantDirect, RunMode::QuantDitto}) {
            const std::vector<RolloutResult> a =
                analyzed.rolloutBatch(mode, noises);
            const std::vector<RolloutResult> n =
                naive.rolloutBatch(mode, noises);
            for (size_t i = 0; i < a.size(); ++i)
                EXPECT_TRUE(a[i].finalImage == n[i].finalImage)
                    << spec.name << " batched slab " << i
                    << " diverged";
        }
    }
    return {analyzed.rollout(RunMode::QuantDitto),
            naive.rollout(RunMode::QuantDitto)};
}

/**
 * Two convolutions with *different* quantization scales (distinct
 * activation points, distinct weight draws) feeding an Add junction
 * consumed by a third convolution — the minimal mismatched-scale
 * requant-delta fold. A GroupNorm head keeps the consumer
 * summation-live.
 */
ModelSpec
addJunctionSpec()
{
    GraphBuilder b("add_junction");
    b.setSeed(5);
    b.setSteps(5);
    const int x = b.input(4, 6);
    const int a = b.conv2d("convA", x, 6, 3, 1, 1, b.newScale());
    const int c = b.conv2d("convB", x, 6, 1, 1, 0, b.newScale());
    const int j = b.add("junction", a, c);
    const int f = b.conv2d("convC", j, 6, 3, 1, 1, b.newScale());
    const int g = b.groupNorm("gn", f, 2);
    const int s = b.silu("silu", g);
    b.conv2d("conv_out", s, 4, 3, 1, 1, b.newScale());
    return b.build();
}

TEST(JunctionAlgebra, MismatchedProducerScalesOnAdd)
{
    const ModelSpec spec = addJunctionSpec();
    auto [a, n] = expectJunctionBitwise(spec);

    const CompiledModel m = compile(spec);
    const CompiledModel::NodeReport convC = reportOf(m, "convC");
    EXPECT_TRUE(convC.junction);
    EXPECT_TRUE(convC.diffBypass);
    EXPECT_TRUE(reportOf(m, "convA").sumSkip);
    EXPECT_TRUE(reportOf(m, "convB").sumSkip);
    EXPECT_TRUE(reportOf(m, "junction").deadStructural);

    // Exact work deltas: convC's diff-calc (6ch x 6x6 input) is folded
    // away; convA/convB (6ch x 6x6 outputs) never materialize floats.
    const int64_t primed = spec.steps - 1;
    const int64_t plane = 6 * 6;
    EXPECT_EQ(n.dittoOps.diffCalcElems - a.dittoOps.diffCalcElems,
              primed * 6 * plane);
    EXPECT_EQ(n.dittoOps.summationElems - a.dittoOps.summationElems,
              primed * 2 * 6 * plane);
}

/** Concat junction whose 5 + 3 channel split lands the region seams
 *  off every panel boundary (kDiffPanelK = 64; regions are 180 and
 *  108 elements per slab). */
ModelSpec
concatJunctionSpec()
{
    GraphBuilder b("concat_junction");
    b.setSeed(6);
    b.setSteps(5);
    const int x = b.input(4, 6);
    const int a = b.conv2d("convA", x, 5, 3, 1, 1, b.newScale());
    const int c = b.conv2d("convB", x, 3, 1, 1, 0, b.newScale());
    const int j = b.concat("junction", a, c);
    const int f = b.conv2d("convC", j, 6, 3, 1, 1, b.newScale());
    const int g = b.groupNorm("gn", f, 2);
    const int s = b.silu("silu", g);
    b.conv2d("conv_out", s, 4, 3, 1, 1, b.newScale());
    return b.build();
}

TEST(JunctionAlgebra, ConcatWithOddPanelBoundarySplit)
{
    const ModelSpec spec = concatJunctionSpec();
    expectJunctionBitwise(spec);
    const CompiledModel m = compile(spec);
    EXPECT_TRUE(reportOf(m, "convC").junction);
    EXPECT_TRUE(reportOf(m, "convA").sumSkip);
    EXPECT_TRUE(reportOf(m, "convB").sumSkip);
}

/** Junction feeding a consumer whose own summation is skippable: the
 *  fold target convC hands its output straight on to convD. */
ModelSpec
chainedJunctionSpec()
{
    GraphBuilder b("chained_junction");
    b.setSeed(7);
    b.setSteps(5);
    const int x = b.input(4, 6);
    const int a = b.conv2d("convA", x, 6, 3, 1, 1, b.newScale());
    const int c = b.conv2d("convB", x, 6, 1, 1, 0, b.newScale());
    const int j = b.add("junction", a, c);
    const int f = b.conv2d("convC", j, 6, 1, 1, 0, b.newScale());
    const int f2 = b.conv2d("convD", f, 6, 1, 1, 0, b.newScale());
    const int g = b.groupNorm("gn", f2, 2);
    const int s = b.silu("silu", g);
    b.conv2d("conv_out", s, 4, 3, 1, 1, b.newScale());
    return b.build();
}

TEST(JunctionAlgebra, JunctionFeedsSummationSkippableConsumer)
{
    const ModelSpec spec = chainedJunctionSpec();
    expectJunctionBitwise(spec);
    const CompiledModel m = compile(spec);
    const CompiledModel::NodeReport convC = reportOf(m, "convC");
    // convC folds the junction AND hands its own output to convD
    // without ever materializing floats.
    EXPECT_TRUE(convC.junction);
    EXPECT_TRUE(convC.sumSkip);
    EXPECT_TRUE(convC.emitsPayload);
    EXPECT_TRUE(reportOf(m, "convD").diffBypass);
}

TEST(JunctionAlgebra, ThreadCountInvariance)
{
    CompileOptions opts;
    opts.policy = DiffPolicy::ForceDiff;
    const CompiledModel m = compile(concatJunctionSpec(), opts);
    setThreadCount(1);
    const RolloutResult one = m.rollout(RunMode::QuantDitto);
    setThreadCount(3);
    const RolloutResult three = m.rollout(RunMode::QuantDitto);
    setThreadCount(1);
    EXPECT_TRUE(one.finalImage == three.finalImage);
}

/** A left-leaning Add chain over 17 convolution leaves, each with its
 *  own scale, folded into one junction region feeding convC: the fold
 *  has no cap on its source count. */
ModelSpec
longAddChainSpec()
{
    GraphBuilder b("long_add_chain");
    b.setSeed(8);
    b.setSteps(5);
    const int x = b.input(4, 6);
    int sum = b.conv2d("leaf0", x, 6, 1, 1, 0, b.newScale());
    for (int i = 1; i < 17; ++i) {
        const std::string n = std::to_string(i);
        const int leaf = b.conv2d("leaf" + n, x, 6, 1, 1, 0, b.newScale());
        sum = b.add("sum" + n, sum, leaf);
    }
    const int f = b.conv2d("convC", sum, 6, 3, 1, 1, b.newScale());
    const int g = b.groupNorm("gn", f, 2);
    const int s = b.silu("silu", g);
    b.conv2d("conv_out", s, 4, 3, 1, 1, b.newScale());
    return b.build();
}

TEST(JunctionAlgebra, LongAddChainFoldsEverySource)
{
    const ModelSpec spec = longAddChainSpec();
    expectJunctionBitwise(spec);
    CompileOptions opts;
    opts.policy = DiffPolicy::ForceDiff;
    const CompiledModel m = compile(spec, opts);
    EXPECT_TRUE(reportOf(m, "convC").junction);
    EXPECT_TRUE(reportOf(m, "leaf16").sumSkip);
    const RolloutResult direct = m.rollout(RunMode::QuantDirect);
    const RolloutResult ditto = m.rollout(RunMode::QuantDitto);
    EXPECT_TRUE(direct.finalImage == ditto.finalImage);
}

/** The two new executable presets, compiled once for the suite. */
const CompiledModel &
deepUnet()
{
    static const CompiledModel *m = [] {
        DeepUnetConfig cfg;
        cfg.resolution = 8;
        cfg.baseChannels = 8;
        cfg.steps = 5;
        return new CompiledModel(compile(deepUnetSpec(cfg)));
    }();
    return *m;
}

const CompiledModel &
ditBlock()
{
    static const CompiledModel *m = [] {
        DitBlockConfig cfg;
        cfg.resolution = 8;
        cfg.embedDim = 16;
        cfg.steps = 5;
        return new CompiledModel(compile(ditBlockSpec(cfg)));
    }();
    return *m;
}

void
expectSpecRunsEndToEnd(const CompiledModel &model)
{
    // Table II's "accuracy preserved" stand-in: Ditto bit-exact
    // against direct quantized execution on arbitrary graphs.
    const RolloutResult ditto = model.rollout(RunMode::QuantDitto);
    const RolloutResult direct = model.rollout(RunMode::QuantDirect);
    EXPECT_TRUE(ditto.finalImage == direct.finalImage);
    EXPECT_GT(ditto.dittoOps.total(), 0);
    EXPECT_GT(ditto.dittoOps.zeroSkipped + ditto.dittoOps.low4, 0);

    // Batched == sequential, mixed batch sizes.
    std::vector<FloatTensor> noises;
    for (uint64_t s = 0; s < 3; ++s)
        noises.push_back(model.requestNoise(20 + s));
    const std::vector<RolloutResult> batched =
        model.rolloutBatch(RunMode::QuantDitto, noises);
    for (size_t i = 0; i < noises.size(); ++i)
        EXPECT_TRUE(model.rollout(RunMode::QuantDitto, noises[i])
                        .finalImage == batched[i].finalImage);
}

TEST(NewSpecs, DeepUnetRunsEndToEnd)
{
    expectSpecRunsEndToEnd(deepUnet());
    // The decoder's fuse -> mix pair is a compute-to-compute edge the
    // analysis bypasses.
    EXPECT_GE(deepUnet().numDiffBypassNodes(), 1);
}

TEST(JunctionFlow, DeepUnetFoldsSkipConcatAndPoolJunctions)
{
    DeepUnetConfig cfg;
    cfg.resolution = 8;
    cfg.baseChannels = 8;
    cfg.steps = 5;
    const ModelSpec spec = deepUnetSpec(cfg);
    auto [a, n] = expectJunctionBitwise(spec);

    // Nonzero junction savings on the bypass-edge and skip-concat
    // layers: folding down_conv's pooled-Add operand and dec_fuse's
    // upsample+skip Concat operand removes their diff-calc, and the
    // encoder-side skip conv + attention operand producers stop
    // materializing floats.
    EXPECT_LT(a.dittoOps.diffCalcElems, n.dittoOps.diffCalcElems);
    EXPECT_LT(a.dittoOps.summationElems, n.dittoOps.summationElems);

    const CompiledModel &m = deepUnet();
    EXPECT_TRUE(reportOf(m, "down_conv").junction);
    EXPECT_TRUE(reportOf(m, "dec_fuse").junction);
    EXPECT_TRUE(reportOf(m, "enc_conv2").sumSkip);
    EXPECT_TRUE(reportOf(m, "mid_proj").sumSkip);
    EXPECT_TRUE(reportOf(m, "dec_concat").deadStructural);
    EXPECT_TRUE(reportOf(m, "dec_up").deadStructural);
    EXPECT_TRUE(reportOf(m, "down_pool").deadStructural);
    // Dynamic-attention operand hand-over: the q/k/v convolutions emit
    // payloads; both score operands and the PV value operand arrive as
    // code diffs.
    EXPECT_TRUE(reportOf(m, "mid_attn_q").emitsPayload);
    EXPECT_TRUE(reportOf(m, "mid_attn_q").sumSkip);
    const CompiledModel::NodeReport qk = reportOf(m, "mid_qk");
    EXPECT_TRUE(qk.diffBypass && qk.diffBypass2);
    EXPECT_TRUE(reportOf(m, "mid_pv").diffBypass2);
}

TEST(JunctionFlow, BatchMixedPrimedSlabsMatchPerRequestHistories)
{
    // Continuous-batching shape: three requests advance together, one
    // is replaced mid-flight (resetSlab), so a single forwardBatch
    // mixes primed slabs (difference path through junction folds and
    // hand-overs) with an unprimed slab (direct path). Every slab must
    // reproduce its own single-request history bitwise.
    const CompiledModel &m = deepUnet();
    const Shape one = m.inputShape();
    const int64_t slab = one.numel();
    const int64_t bsz = 3;

    std::vector<FloatTensor> x(static_cast<size_t>(bsz));
    std::vector<CompiledModel::DittoState> ref(static_cast<size_t>(bsz));
    for (int64_t b = 0; b < bsz; ++b)
        x[static_cast<size_t>(b)] =
            m.requestNoise(static_cast<uint64_t>(100 + b));

    CompiledModel::BatchDittoState st;
    st.primed.assign(static_cast<size_t>(bsz), 0);
    FloatTensor xb(slab::withDim0(one, bsz));
    auto stack = [&] {
        for (int64_t b = 0; b < bsz; ++b)
            std::copy(x[static_cast<size_t>(b)].data().begin(),
                      x[static_cast<size_t>(b)].data().end(),
                      xb.data().begin() + b * slab);
    };
    auto step = [&] {
        stack();
        const FloatTensor eps =
            m.forwardBatch(xb, RunMode::QuantDitto, &st, nullptr);
        for (int64_t b = 0; b < bsz; ++b) {
            FloatTensor &xi = x[static_cast<size_t>(b)];
            FloatTensor ei(one);
            std::copy(eps.data().begin() + b * slab,
                      eps.data().begin() + (b + 1) * slab,
                      ei.data().begin());
            const FloatTensor want = m.forward(
                xi, RunMode::QuantDitto,
                &ref[static_cast<size_t>(b)], nullptr);
            ASSERT_TRUE(want == ei)
                << "slab " << b << " diverged from its own history";
            xi = add(xi, affine(ei, -0.15f, 0.0f));
        }
    };

    step();
    step();
    // Request 1 finishes; a new one takes its slot.
    st.resetSlab(1);
    ref[1] = CompiledModel::DittoState{};
    x[1] = m.requestNoise(555);
    step(); // slab 1 unprimed/direct, slabs 0 and 2 primed/diff
    step();
}

TEST(NewSpecs, DitBlockRunsEndToEnd)
{
    expectSpecRunsEndToEnd(ditBlock());
    // o -> proj at minimum.
    EXPECT_GE(ditBlock().numDiffBypassNodes(), 1);
}

const CompiledModel &
mhsaBlock()
{
    static const CompiledModel *m = [] {
        MhsaBlockConfig cfg;
        cfg.resolution = 8;
        cfg.embedDim = 16;
        cfg.heads = 2;
        cfg.steps = 5;
        return new CompiledModel(compile(mhsaBlockSpec(cfg)));
    }();
    return *m;
}

const CompiledModel &
ditAdaLn()
{
    static const CompiledModel *m = [] {
        DitAdaLnConfig cfg;
        cfg.resolution = 8;
        cfg.embedDim = 16;
        cfg.steps = 5;
        return new CompiledModel(compile(ditAdaLnSpec(cfg)));
    }();
    return *m;
}

TEST(NewSpecs, MhsaBlockRunsEndToEnd)
{
    expectSpecRunsEndToEnd(mhsaBlock());
    // The head-sum Add and the residual chain are token-domain
    // junction folds.
    EXPECT_TRUE(reportOf(mhsaBlock(), "head_merge").junction);
    EXPECT_TRUE(reportOf(mhsaBlock(), "unembed").junction);
    EXPECT_TRUE(reportOf(mhsaBlock(), "mlp_fc2").sumSkip);
}

TEST(NewSpecs, MhsaBlockJunctionBitwise)
{
    MhsaBlockConfig cfg;
    cfg.resolution = 8;
    cfg.embedDim = 16;
    cfg.heads = 2;
    cfg.steps = 5;
    expectJunctionBitwise(mhsaBlockSpec(cfg));
}

TEST(NewSpecs, DitAdaLnRunsEndToEnd)
{
    expectSpecRunsEndToEnd(ditAdaLn());
    // The adaLN gate Affine sits between mlp_fc2 and the residual: the
    // layer verdict stays diff-transparent but the software fold
    // declines the wire — junction-blocking, visible as a full-value
    // unembed (this is what --verdicts makes distinguishable from a
    // run-time Defo reversion).
    const CompiledModel &m = ditAdaLn();
    const CompiledModel::NodeReport un = reportOf(m, "unembed");
    EXPECT_FALSE(un.junction);
    EXPECT_FALSE(un.diffBypass);
    ASSERT_GE(un.layer, 0);
    EXPECT_FALSE(m.dependencies()[static_cast<size_t>(un.layer)]
                     .diffCalcNeeded);
}

TEST(NewSpecs, DitAdaLnJunctionBitwise)
{
    DitAdaLnConfig cfg;
    cfg.resolution = 8;
    cfg.embedDim = 16;
    cfg.steps = 5;
    expectJunctionBitwise(ditAdaLnSpec(cfg));
}

void
expectServedBitwise(const CompiledModel &model)
{
    ServerConfig cfg;
    cfg.maxBatch = 3;
    cfg.maxWaitMicros = 500;
    cfg.workers = 1;
    DenoiseServer server(model, cfg);
    std::vector<DenoiseRequest> reqs;
    for (int i = 0; i < 6; ++i) {
        DenoiseRequest req;
        req.seed = 40 + static_cast<uint64_t>(i);
        req.steps = model.defaultSteps() - i % 2;
        req.mode =
            i % 4 == 3 ? RunMode::QuantDirect : RunMode::QuantDitto;
        reqs.push_back(req);
    }
    std::vector<uint64_t> ids;
    for (const DenoiseRequest &req : reqs)
        ids.push_back(server.submit(req));
    for (size_t i = 0; i < ids.size(); ++i) {
        const DenoiseResult res = server.wait(ids[i]);
        const RolloutResult want = model.rollout(
            reqs[i].mode, model.requestNoise(reqs[i].seed),
            reqs[i].steps);
        EXPECT_TRUE(want.finalImage == res.image)
            << "served request " << i << " diverged";
    }
}

TEST(NewSpecs, DeepUnetServesThroughDenoiseServer)
{
    expectServedBitwise(deepUnet());
}

TEST(NewSpecs, DitBlockServesThroughDenoiseServer)
{
    expectServedBitwise(ditBlock());
}

TEST(NewSpecs, MhsaBlockServesThroughDenoiseServer)
{
    expectServedBitwise(mhsaBlock());
}

TEST(NewSpecs, DitAdaLnServesThroughDenoiseServer)
{
    expectServedBitwise(ditAdaLn());
}

/**
 * ApproxDitto (docs/approx_reuse.md): cross-step block reuse. At
 * threshold 0 only bitwise-identical inputs skip, so the mode must
 * equal QuantDitto exactly; at any threshold the decisions must be
 * deterministic across thread counts and batch compositions, the
 * skip accounting must add up, and fidelity must not improve as the
 * threshold loosens.
 */

/** The five executable preset specs at test geometry. */
std::vector<ModelSpec>
approxPresetSpecs()
{
    std::vector<ModelSpec> specs;
    specs.push_back(miniUnetSpec(parityConfig()));
    DeepUnetConfig du;
    du.resolution = 8;
    du.baseChannels = 8;
    du.steps = 5;
    specs.push_back(deepUnetSpec(du));
    DitBlockConfig db;
    db.resolution = 8;
    db.embedDim = 16;
    db.steps = 5;
    specs.push_back(ditBlockSpec(db));
    MhsaBlockConfig mh;
    mh.resolution = 8;
    mh.embedDim = 16;
    mh.heads = 2;
    mh.steps = 5;
    specs.push_back(mhsaBlockSpec(mh));
    DitAdaLnConfig da;
    da.resolution = 8;
    da.embedDim = 16;
    da.steps = 5;
    specs.push_back(ditAdaLnSpec(da));
    return specs;
}

TEST(ApproxMode, ThresholdZeroBitwiseIdenticalOnEveryPreset)
{
    for (const ModelSpec &spec : approxPresetSpecs()) {
        CompiledModel m = compile(spec);
        m.setApproxPolicy(0.0, 3);
        const RolloutResult exact = m.rollout(RunMode::QuantDitto);
        const RolloutResult approx = m.rollout(RunMode::ApproxDitto);
        EXPECT_TRUE(exact.finalImage == approx.finalImage)
            << spec.name << " diverged at threshold 0";
        // The exact modes never report reuse or skip logs.
        EXPECT_EQ(exact.dittoOps.reusedElems, 0);
        EXPECT_TRUE(exact.nodeSkips.empty());
        ASSERT_EQ(approx.nodeSkips.size(), m.nodeReports().size());
    }
}

TEST(ApproxMode, SkipDecisionsDeterministicAcrossThreadCounts)
{
    DeepUnetConfig du;
    du.resolution = 8;
    du.baseChannels = 8;
    du.steps = 5;
    CompiledModel m = compile(deepUnetSpec(du));
    m.setApproxPolicy(1.0, 2); // skip aggressively: decisions matter
    setThreadCount(1);
    const RolloutResult one = m.rollout(RunMode::ApproxDitto);
    setThreadCount(3);
    const RolloutResult three = m.rollout(RunMode::ApproxDitto);
    setThreadCount(1);
    EXPECT_TRUE(one.finalImage == three.finalImage);
    EXPECT_EQ(one.dittoOps.reusedElems, three.dittoOps.reusedElems);
    EXPECT_GT(one.dittoOps.reusedElems, 0);
    ASSERT_EQ(one.nodeSkips.size(), three.nodeSkips.size());
    EXPECT_EQ(one.nodeSkips, three.nodeSkips);
}

TEST(ApproxMode, BatchedSkipDecisionsMatchSequential)
{
    // The probes see per-slab regions of the same codes a sequential
    // rollout sees, so every slab must reproduce its single-request
    // images, skip log and every OpCounts tally at any batch size.
    // Threshold 1.0 skips every slab alike; 0.5 splits the batch, and a
    // slab skipped beside an executing batch-mate still runs the engine
    // over a zeroed region — its tallies must not leak into the request.
    // Every preset: the one skip-and-freeze path runs stored operands,
    // fc hand-overs, junction folds, cross attention and attention with
    // one stored and one handed-over operand.
    for (const ModelSpec &spec : approxPresetSpecs()) {
        CompiledModel m = compile(spec);
        for (double thresh : {1.0, 0.5}) {
            m.setApproxPolicy(thresh, 2);
            for (int64_t batch : {1, 3, 4}) {
                std::vector<FloatTensor> noises;
                for (int64_t b = 0; b < batch; ++b)
                    noises.push_back(
                        m.requestNoise(static_cast<uint64_t>(300 + b)));
                const std::vector<RolloutResult> got =
                    m.rolloutBatch(RunMode::ApproxDitto, noises);
                ASSERT_EQ(got.size(), noises.size());
                for (size_t i = 0; i < noises.size(); ++i) {
                    const RolloutResult want =
                        m.rollout(RunMode::ApproxDitto, noises[i]);
                    const std::string where =
                        spec.name + " thresh " + std::to_string(thresh) +
                        " batch " + std::to_string(batch) + " slab " +
                        std::to_string(i);
                    EXPECT_TRUE(want.finalImage == got[i].finalImage)
                        << where;
                    EXPECT_GT(want.dittoOps.reusedElems, 0) << where;
                    EXPECT_EQ(want.nodeSkips, got[i].nodeSkips) << where;
                    const OpCounts &a = want.dittoOps;
                    const OpCounts &b = got[i].dittoOps;
                    EXPECT_EQ(a.zeroSkipped, b.zeroSkipped) << where;
                    EXPECT_EQ(a.low4, b.low4) << where;
                    EXPECT_EQ(a.full8, b.full8) << where;
                    EXPECT_EQ(a.diffCalcElems, b.diffCalcElems) << where;
                    EXPECT_EQ(a.summationElems, b.summationElems) << where;
                    EXPECT_EQ(a.reusedElems, b.reusedElems) << where;
                }
            }
        }
    }
}

TEST(ApproxMode, ReusedElemsMatchesPerNodeSkipLog)
{
    for (const ModelSpec &spec : approxPresetSpecs()) {
        CompiledModel m = compile(spec);
        m.setApproxPolicy(1.0, 2);
        const RolloutResult r = m.rollout(RunMode::ApproxDitto);
        const std::vector<CompiledModel::NodeReport> reports =
            m.nodeReports();
        ASSERT_EQ(r.nodeSkips.size(), reports.size()) << spec.name;
        int64_t want = 0;
        for (size_t i = 0; i < reports.size(); ++i) {
            if (!reports[i].compute) {
                EXPECT_EQ(r.nodeSkips[i], 0)
                    << spec.name << " " << reports[i].name;
            }
            want += r.nodeSkips[i] * reports[i].outElems;
        }
        EXPECT_GT(want, 0) << spec.name;
        EXPECT_EQ(r.dittoOps.reusedElems, want) << spec.name;
    }
}

TEST(ApproxMode, FidelityMonotoneNonImprovingInThreshold)
{
    DeepUnetConfig du;
    du.resolution = 8;
    du.baseChannels = 8;
    du.steps = 5;
    CompiledModel m = compile(deepUnetSpec(du));
    double prev_psnr = std::numeric_limits<double>::infinity();
    double prev_cos = 1.0;
    for (double thresh : {0.0, 0.5, 1.0}) {
        m.setApproxPolicy(thresh, 3);
        const RolloutResult r =
            m.rolloutWithFidelity(RunMode::ApproxDitto);
        ASSERT_TRUE(r.hasFidelity);
        ASSERT_EQ(r.stepFidelity.size(),
                  static_cast<size_t>(m.defaultSteps()));
        // rolloutWithFidelity must not perturb the rollout itself.
        EXPECT_TRUE(r.finalImage ==
                    m.rollout(RunMode::ApproxDitto).finalImage);
        EXPECT_LE(r.fidelity.psnrDb, prev_psnr) << "thresh " << thresh;
        EXPECT_LE(r.fidelity.cosine, prev_cos) << "thresh " << thresh;
        prev_psnr = r.fidelity.psnrDb;
        prev_cos = r.fidelity.cosine;
        if (thresh == 0.0) { // exact by construction
            EXPECT_TRUE(r.fidelity.exact());
        }
    }
    // The loosest policy actually degrades the image.
    EXPECT_LT(prev_psnr, std::numeric_limits<double>::infinity());
}

TEST(ApproxMode, ResetSlabClearsApproxReuseState)
{
    // Regression: resetSlab() must clear the consecutive-skip
    // counters along with the primed/approx flags. A replaced slab's
    // first (unprimed) step never touches the counters, so a stale
    // consecutive-skip run from the previous occupant would force the
    // new request's first primed step to execute where a fresh
    // rollout skips — different bits.
    DeepUnetConfig du;
    du.resolution = 8;
    du.baseChannels = 8;
    du.steps = 5;
    CompiledModel m = compile(deepUnetSpec(du));
    m.setApproxPolicy(1.0, 2); // every primed step skips, cap 2
    const Shape one = m.inputShape();
    const int64_t slab = one.numel();
    const int64_t bsz = 2;

    FloatTensor xb(slab::withDim0(one, bsz));
    for (int64_t b = 0; b < bsz; ++b) {
        const FloatTensor n =
            m.requestNoise(static_cast<uint64_t>(400 + b));
        std::copy(n.data().begin(), n.data().end(),
                  xb.data().begin() + b * slab);
    }
    CompiledModel::BatchDittoState st;
    st.primed.assign(static_cast<size_t>(bsz), 0);
    st.approx.assign(static_cast<size_t>(bsz), 1);
    auto step = [&] {
        const FloatTensor eps =
            m.forwardBatch(xb, RunMode::ApproxDitto, &st, nullptr);
        xb = add(xb, affine(eps, -0.15f, 0.0f));
    };
    // Three steps drive slab 1's skip counters to the cap.
    step();
    step();
    step();
    // Slab 1 finishes; a new approx request takes the slot
    // mid-rollout (resetSlab also clears the approx flag — the
    // engine re-arms it per request, as BatchEngine::joinInto
    // does).
    st.resetSlab(1);
    st.approx[1] = 1;
    const FloatTensor fresh_noise = m.requestNoise(777);
    std::copy(fresh_noise.data().begin(), fresh_noise.data().end(),
              xb.data().begin() + 1 * slab);
    step(); // unprimed: must not consult stale counters
    step(); // first primed step: skips iff the counters were cleared
    FloatTensor got(one);
    std::copy(xb.data().begin() + 1 * slab,
              xb.data().begin() + 2 * slab, got.data().begin());
    const RolloutResult want =
        m.rollout(RunMode::ApproxDitto, fresh_noise, 2);
    EXPECT_TRUE(want.finalImage == got);
}

TEST(SpecHash, ContentHashDistinguishesGeometryAndSeed)
{
    MiniUnetConfig a = parityConfig();
    const uint64_t ha = miniUnetSpec(a).hash();
    EXPECT_EQ(ha, miniUnetSpec(a).hash());
    MiniUnetConfig b = a;
    b.seed = a.seed + 1;
    EXPECT_NE(ha, miniUnetSpec(b).hash());
    MiniUnetConfig c = a;
    c.channels = a.channels * 2;
    EXPECT_NE(ha, miniUnetSpec(c).hash());
}

TEST(SpecGraph, MiniUnetLowersToTheLayerIr)
{
    const ModelSpec spec = miniUnetSpec(parityConfig());
    const ModelGraph graph = spec.toGraph();
    // 12 compute layers: 8 convs, 2 FCs... plus QK/PV/CrossQK/CrossPV.
    EXPECT_EQ(graph.numComputeLayers(), 14);
    EXPECT_GT(graph.totalMacs(), 0);
    EXPECT_EQ(graph.findLayer("attn_qk") >= 0, true);
    // Reshape nodes are collapsed: proj's producer is the PV matmul.
    const int proj = graph.findLayer("attn_proj");
    ASSERT_GE(proj, 0);
    ASSERT_EQ(graph.layer(proj).inputs.size(), 1u);
    EXPECT_EQ(graph.layer(graph.layer(proj).inputs[0]).name, "attn_pv");
}

TEST(ShapeValidation, RolloutRejectsWrongNoiseShape)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const ParityPair &p = parityPair();
    const FloatTensor bad(Shape{1, 3, 4, 4});
    EXPECT_EXIT(p.compiled.rollout(RunMode::QuantDirect, bad),
                testing::ExitedWithCode(1), "does not match model input");
    EXPECT_EXIT(p.compiled.rollout(RunMode::QuantDirect,
                                   p.compiled.requestNoise(1), -2),
                testing::ExitedWithCode(1), "negative step count");
}

TEST(ShapeValidation, ForwardBatchRejectsWrongGeometry)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const ParityPair &p = parityPair();
    const FloatTensor bad(Shape{2, 5, 8, 8}); // wrong channel count
    EXPECT_EXIT(p.compiled.forwardBatch(
                    bad, RunMode::QuantDirect, nullptr, nullptr),
                testing::ExitedWithCode(1),
                "does not stack model inputs");
}

TEST(ShapeValidation, ForwardRejectsMultiSlabState)
{
    // A single request's state is a batch of one; forward() must not
    // silently run a multi-slab state against a one-slab input.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const CompiledModel &m = parityPair().compiled;
    EXPECT_EXIT(
        {
            CompiledModel::DittoState st;
            st.appendSlabs(2);
            m.forward(m.requestNoise(1), RunMode::QuantDitto, &st,
                      nullptr);
        },
        testing::ExitedWithCode(1), "state holds 2 slabs");
}

TEST(ShapeValidation, ServerRejectsMalformedRequests)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const ParityPair &p = parityPair();
    EXPECT_EXIT(
        {
            ServerConfig cfg;
            cfg.workers = 1;
            DenoiseServer server(p.compiled, cfg);
            DenoiseRequest req;
            req.steps = -1;
            server.submit(req);
        },
        testing::ExitedWithCode(1), "negative step count");
}

TEST(EnvRegistry, TypedReadersApplyFallbacksAndRanges)
{
    setenv("DITTO_SERVE_MAX_BATCH", "17", 1);
    EXPECT_EQ(env::readInt64("DITTO_SERVE_MAX_BATCH", 8, 1, 4096), 17);
    setenv("DITTO_SERVE_MAX_BATCH", "not-a-number", 1);
    EXPECT_EQ(env::readInt64("DITTO_SERVE_MAX_BATCH", 8, 1, 4096), 8);
    setenv("DITTO_SERVE_MAX_BATCH", "100000", 1);
    EXPECT_EQ(env::readInt64("DITTO_SERVE_MAX_BATCH", 8, 1, 4096), 8);
    unsetenv("DITTO_SERVE_MAX_BATCH");
    EXPECT_EQ(env::readInt64("DITTO_SERVE_MAX_BATCH", 8, 1, 4096), 8);

    unsetenv("DITTO_WRITE_GOLDENS");
    EXPECT_FALSE(env::readFlag("DITTO_WRITE_GOLDENS"));
    setenv("DITTO_WRITE_GOLDENS", "0", 1);
    EXPECT_FALSE(env::readFlag("DITTO_WRITE_GOLDENS"));
    setenv("DITTO_WRITE_GOLDENS", "1", 1);
    EXPECT_TRUE(env::readFlag("DITTO_WRITE_GOLDENS"));

    setenv("DITTO_WRITE_GOLDENS", "", 1);
    EXPECT_EQ(env::readString("DITTO_WRITE_GOLDENS", "fallback"),
              "fallback");
    setenv("DITTO_WRITE_GOLDENS", "regen", 1);
    EXPECT_EQ(env::readString("DITTO_WRITE_GOLDENS", "fallback"),
              "regen");
    unsetenv("DITTO_WRITE_GOLDENS");
}

TEST(EnvRegistry, UnregisteredKnobFailsLoudly)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(env::readInt64("DITTO_NOT_A_KNOB", 1, 0, 10),
                 "not in the env registry");
}

TEST(EnvRegistry, ConfigDocListsExactlyTheRegistry)
{
    // docs/config.md is generated from the same registry the readers
    // enforce: every registered knob appears, and every DITTO_* token
    // the doc mentions is registered (no stale rows).
    std::ifstream in(std::string(DITTO_SOURCE_DIR) + "/docs/config.md");
    ASSERT_TRUE(in.good()) << "docs/config.md not found";
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string doc = ss.str();

    std::set<std::string> documented;
    for (size_t pos = doc.find("DITTO_"); pos != std::string::npos;
         pos = doc.find("DITTO_", pos + 1)) {
        size_t end = pos;
        while (end < doc.size() &&
               (std::isupper(static_cast<unsigned char>(doc[end])) ||
                std::isdigit(static_cast<unsigned char>(doc[end])) ||
                doc[end] == '_'))
            ++end;
        documented.insert(doc.substr(pos, end - pos));
    }
    std::set<std::string> registered;
    for (const env::Knob &k : env::knobs())
        registered.insert(k.name);
    EXPECT_EQ(documented, registered);
}

} // namespace
} // namespace ditto
