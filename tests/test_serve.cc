/**
 * @file
 * Tests for the batched denoising serving layer: bitwise parity of
 * batched execution against independent sequential rollouts (the
 * serving guarantee), mixed timesteps and modes inside one batch,
 * thread-count determinism, the batched ops/engine entry points, and
 * the DenoiseServer queue/deadline behavior.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/attention_diff.h"
#include "core/diff_linear.h"
#include "quant/encoder.h"
#include "runtime/compiled.h"
#include "runtime/presets.h"
#include "serve/batch_rollout.h"
#include "serve/faultpoints.h"
#include "serve/server.h"
#include "tensor/diff_gemm.h"
#include "tensor/ops.h"
#include "tensor/slab.h"

namespace ditto {
namespace {

MiniUnetConfig
smallConfig()
{
    MiniUnetConfig cfg;
    cfg.channels = 8;
    cfg.resolution = 8;
    cfg.steps = 5;
    return cfg;
}

/** Shared test model (calibration runs once per process). */
const CompiledModel &
testNet()
{
    static const CompiledModel *net = [] {
        return new CompiledModel(compile(miniUnetSpec(smallConfig())));
    }();
    return *net;
}

void
expectBitwiseEqual(const FloatTensor &a, const FloatTensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_TRUE(a == b) << "images are not bitwise identical";
}

void
expectCountsEqual(const OpCounts &a, const OpCounts &b)
{
    EXPECT_EQ(a.zeroSkipped, b.zeroSkipped);
    EXPECT_EQ(a.low4, b.low4);
    EXPECT_EQ(a.full8, b.full8);
}

/** Every OpCounts field, not just the lane tallies. */
void
expectAllCountsEqual(const OpCounts &a, const OpCounts &b)
{
    expectCountsEqual(a, b);
    EXPECT_EQ(a.diffCalcElems, b.diffCalcElems);
    EXPECT_EQ(a.summationElems, b.summationElems);
    EXPECT_EQ(a.reusedElems, b.reusedElems);
}

/** A request for `seed` in `mode`, `steps` steps (0: the default). */
DenoiseRequest
request(uint64_t seed, RunMode mode = RunMode::QuantDitto, int steps = 0)
{
    DenoiseRequest req;
    req.seed = seed;
    req.mode = mode;
    req.steps = steps;
    return req;
}

/** `m` accepts `p` for a join (the shard worker's MigrateIn screen). */
void
expectJoinable(const CompiledModel &m, const BatchEngine::Parked &p)
{
    std::string why;
    EXPECT_TRUE(m.acceptsSlab(p.image, p.stepsDone,
                              p.hasState ? &p.state : nullptr, &why))
        << why;
}

TEST(ServeParity, BatchedRolloutMatchesSequentialBitwise)
{
    const CompiledModel &net = testNet();
    std::vector<FloatTensor> noises;
    for (uint64_t s = 1; s <= 6; ++s)
        noises.push_back(net.requestNoise(s));
    for (RunMode mode : {RunMode::QuantDitto, RunMode::QuantDirect}) {
        const std::vector<RolloutResult> batched =
            net.rolloutBatch(mode, noises);
        ASSERT_EQ(batched.size(), noises.size());
        for (size_t i = 0; i < noises.size(); ++i) {
            const RolloutResult seq = net.rollout(mode, noises[i]);
            expectBitwiseEqual(seq.finalImage, batched[i].finalImage);
            expectCountsEqual(seq.dittoOps, batched[i].dittoOps);
        }
    }
}

TEST(ServeParity, BatchedRolloutThreadCountInvariant)
{
    const CompiledModel &net = testNet();
    std::vector<FloatTensor> noises;
    for (uint64_t s = 11; s <= 15; ++s)
        noises.push_back(net.requestNoise(s));

    setThreadCount(1);
    const std::vector<RolloutResult> one =
        net.rolloutBatch(RunMode::QuantDitto, noises);
    setThreadCount(4);
    const std::vector<RolloutResult> four =
        net.rolloutBatch(RunMode::QuantDitto, noises);
    setThreadCount(1);
    ASSERT_EQ(one.size(), four.size());
    for (size_t i = 0; i < one.size(); ++i) {
        expectBitwiseEqual(one[i].finalImage, four[i].finalImage);
        expectCountsEqual(one[i].dittoOps, four[i].dittoOps);
    }
}

TEST(ServeParity, OddResolutionFallbackPaths)
{
    // resolution 6 -> 36 pixels: exercises non-multiple-of-panel
    // shapes through the whole batched stack.
    MiniUnetConfig cfg = smallConfig();
    cfg.resolution = 6;
    const CompiledModel net = compile(miniUnetSpec(cfg));
    std::vector<FloatTensor> noises;
    for (uint64_t s = 21; s <= 24; ++s)
        noises.push_back(net.requestNoise(s));
    const std::vector<RolloutResult> batched =
        net.rolloutBatch(RunMode::QuantDitto, noises);
    for (size_t i = 0; i < noises.size(); ++i) {
        const RolloutResult seq =
            net.rollout(RunMode::QuantDitto, noises[i]);
        expectBitwiseEqual(seq.finalImage, batched[i].finalImage);
    }
}

TEST(BatchEngineTest, MixedTimestepsShareABatch)
{
    const CompiledModel &net = testNet();
    BatchEngine engine(net, /*max_batch=*/4);

    // Three requests with different step counts join together ...
    const int steps[4] = {3, 5, 7, 4};
    std::vector<BatchEngine::Parked> burst;
    for (uint64_t i = 0; i < 3; ++i)
        burst.push_back(BatchEngine::Parked::cold(
            net, i, request(100 + i, RunMode::QuantDitto, steps[i])));
    engine.join(burst);
    // ... and a fourth joins two steps later (continuous batching),
    // so the batch holds slabs at timesteps {2, 2, 2, 0}.
    engine.step();
    engine.step();
    const BatchEngine::Parked late = BatchEngine::Parked::cold(
        net, 3, request(103, RunMode::QuantDitto, steps[3]));
    engine.join({&late, 1});

    std::vector<BatchEngine::Finished> all;
    while (!engine.empty()) {
        engine.step();
        std::vector<BatchEngine::Finished> done = engine.retire();
        std::move(done.begin(), done.end(), std::back_inserter(all));
    }
    ASSERT_EQ(all.size(), 4u);
    for (const BatchEngine::Finished &f : all) {
        const uint64_t i = f.id;
        EXPECT_EQ(f.steps, steps[i]);
        const RolloutResult seq = net.rollout(
            RunMode::QuantDitto, net.requestNoise(100 + i), steps[i]);
        expectBitwiseEqual(seq.finalImage, f.image);
        expectCountsEqual(seq.dittoOps, f.ops);
    }
}

TEST(BatchEngineTest, DirectAndDittoRequestsShareABatch)
{
    const CompiledModel &net = testNet();
    BatchEngine engine(net, /*max_batch=*/3);
    const RunMode modes[3] = {RunMode::QuantDitto, RunMode::QuantDirect,
                              RunMode::QuantDitto};
    std::vector<BatchEngine::Parked> burst;
    for (uint64_t i = 0; i < 3; ++i)
        burst.push_back(
            BatchEngine::Parked::cold(net, i, request(200 + i, modes[i])));
    engine.join(burst);
    std::vector<BatchEngine::Finished> all;
    while (!engine.empty()) {
        engine.step();
        std::vector<BatchEngine::Finished> done = engine.retire();
        std::move(done.begin(), done.end(), std::back_inserter(all));
    }
    ASSERT_EQ(all.size(), 3u);
    for (const BatchEngine::Finished &f : all) {
        const RolloutResult seq =
            net.rollout(modes[f.id], net.requestNoise(200 + f.id));
        expectBitwiseEqual(seq.finalImage, f.image);
    }
}

TEST(BatchedOpsTest, DiffGemmBatchMatchesPerPlan)
{
    Rng rng(7);
    const int64_t rows = 13, k = 40, n = 24, slabs = 5;
    const Int8Tensor b = [&] {
        Int8Tensor t(Shape{k, n});
        t.fillUniformInt(rng, -127, 127);
        return t;
    }();
    std::vector<DiffGemmPlan> plans;
    std::vector<Int32Tensor> prevs;
    Int32Tensor prev_stacked(Shape{slabs * rows, n});
    for (int64_t s = 0; s < slabs; ++s) {
        Int16Tensor diff(Shape{rows, k});
        for (auto &v : diff.data()) {
            const int u = static_cast<int>(rng.uniformInt(100));
            v = u < 60 ? 0
                       : static_cast<int16_t>(
                             static_cast<int64_t>(rng.uniformInt(509)) -
                             254);
        }
        plans.push_back(encodeDiff(diff));
        Int32Tensor prev(Shape{rows, n});
        prev.fillUniformInt(rng, -100000, 100000);
        std::copy(prev.data().begin(), prev.data().end(),
                  prev_stacked.data().begin() + s * rows * n);
        prevs.push_back(std::move(prev));
    }
    Int32Tensor batched = prev_stacked;
    std::vector<kernels::DiffGemmBatchItem> items;
    for (int64_t s = 0; s < slabs; ++s)
        items.push_back({&plans[static_cast<size_t>(s)], b.data().data(),
                         batched.data().data() + s * rows * n});
    kernels::diffGemmBatch(items, n);
    for (int64_t s = 0; s < slabs; ++s) {
        const Int32Tensor single =
            matmulDiffPlan(plans[static_cast<size_t>(s)], b,
                           &prevs[static_cast<size_t>(s)]);
        for (int64_t i = 0; i < rows * n; ++i)
            ASSERT_EQ(single.at(i), batched.at(s * rows * n + i))
                << "slab " << s << " element " << i;
    }
}

constexpr int64_t kOpSlabs = 3;

/**
 * One difference op seen through every entry point, on kOpSlabs
 * stacked request slabs of its operands (`b` empty for the
 * weight-stationary ops). `batched` runs the op's *BatchInto body over
 * the stack; the others run one slab's tensors: runDiff (`single`),
 * the naive:: dense reference and runDirect.
 */
struct OpRow
{
    std::string name;
    Shape aSlab, bSlab;
    Int8Tensor a, prevA, b, prevB;
    std::function<void(const DiffOperand &, const DiffOperand &,
                       const uint8_t *, int32_t *, int32_t *, OpCounts *,
                       DiffPolicy, EngineScratch *)>
        batched;
    std::function<Int32Tensor(const Int8Tensor &, const Int8Tensor &,
                              const Int8Tensor &, const Int8Tensor &,
                              const Int32Tensor &, OpCounts *, DiffPolicy)>
        single;
    std::function<Int32Tensor(const Int8Tensor &, const Int8Tensor &,
                              const Int8Tensor &, const Int8Tensor &,
                              const Int32Tensor &, OpCounts *)>
        naive;
    std::function<Int32Tensor(const Int8Tensor &, const Int8Tensor &)> direct;
};

/**
 * kOpSlabs stacked slabs of `shape`: previous codes in [lo, hi] and
 * current codes that move 10%, 50% and 95% of their elements (a fifth
 * of the moves 8-bit wide): sparse to dense differences, so Auto's
 * per-slab decisions can differ, while ForceDiff runs the diff path
 * on every primed slab.
 */
void
stackedOperand(const Shape &shape, int lo, int hi, Rng &rng, Int8Tensor *cur,
               Int8Tensor *prev)
{
    const double moved[kOpSlabs] = {0.1, 0.5, 0.95};
    *prev = Int8Tensor(slab::withDim0(shape, kOpSlabs * shape[0]));
    prev->fillUniformInt(rng, lo, hi);
    *cur = *prev;
    for (int64_t i = 0; i < cur->numel(); ++i) {
        if (!rng.bernoulli(moved[i / shape.numel()]))
            continue;
        const int step = rng.bernoulli(0.2)
                             ? 40
                             : 1 + static_cast<int>(rng.uniformInt(5));
        cur->at(i) = static_cast<int8_t>(std::clamp(
            cur->at(i) + (rng.bernoulli(0.5) ? step : -step), lo, hi));
    }
}

/** Slab s of a kOpSlabs stack (empty stays empty). */
template <typename T>
Tensor<T>
slabOf(const Tensor<T> &t, const Shape &shape, int64_t s)
{
    if (t.numel() == 0)
        return Tensor<T>();
    Tensor<T> out(shape);
    const int64_t n = shape.numel();
    std::copy(t.data().begin() + s * n, t.data().begin() + (s + 1) * n,
              out.data().begin());
    return out;
}

/** An fc layer: [rows, in] operand slabs times an [out, in] weight. */
OpRow
fcRow(Rng &rng, std::string name, int64_t rows_per_slab, int64_t in,
      int64_t out)
{
    OpRow r;
    r.name = std::move(name);
    r.aSlab = Shape{rows_per_slab, in};
    stackedOperand(r.aSlab, -127, 127, rng, &r.a, &r.prevA);
    Int8Tensor w(Shape{out, in});
    w.fillUniformInt(rng, -127, 127);
    const auto eng = std::make_shared<const DiffFcEngine>(w);
    const int64_t rows = kOpSlabs * r.aSlab[0];
    r.batched = [eng, rows](const DiffOperand &a, const DiffOperand &,
                            const uint8_t *primed, int32_t *out, int32_t *,
                            OpCounts *c, DiffPolicy pol, EngineScratch *sc) {
        eng->runBatchInto(a, rows, kOpSlabs, primed, out, c, pol, sc);
    };
    r.single = [eng](const Int8Tensor &a, const Int8Tensor &pa,
                     const Int8Tensor &, const Int8Tensor &,
                     const Int32Tensor &po, OpCounts *c, DiffPolicy pol) {
        return eng->runDiff(a, pa, po, c, pol);
    };
    r.naive = [w](const Int8Tensor &a, const Int8Tensor &pa,
                  const Int8Tensor &, const Int8Tensor &,
                  const Int32Tensor &po, OpCounts *c) {
        return naive::fcRunDiff(a, pa, po, w, c);
    };
    r.direct = [eng](const Int8Tensor &a, const Int8Tensor &) {
        return eng->runDirect(a);
    };
    return r;
}

OpRow
convRow(Rng &rng, const Conv2dParams &p, int64_t h, int64_t w_extent)
{
    OpRow r;
    r.name = "conv k" + std::to_string(p.kernel) + " s" +
             std::to_string(p.stride);
    r.aSlab = Shape{1, p.inChannels, h, w_extent};
    stackedOperand(r.aSlab, -127, 127, rng, &r.a, &r.prevA);
    Int8Tensor w(Shape{p.outChannels, p.inChannels, p.kernel, p.kernel});
    w.fillUniformInt(rng, -127, 127);
    const auto eng = std::make_shared<const DiffConvEngine>(w, p);
    r.batched = [eng, h, w_extent](const DiffOperand &a, const DiffOperand &,
                                   const uint8_t *primed, int32_t *out,
                                   int32_t *delta, OpCounts *c,
                                   DiffPolicy pol, EngineScratch *sc) {
        eng->runBatchInto(a, kOpSlabs, h, w_extent, primed, out, delta, c,
                          pol, sc);
    };
    r.single = [eng](const Int8Tensor &a, const Int8Tensor &pa,
                     const Int8Tensor &, const Int8Tensor &,
                     const Int32Tensor &po, OpCounts *c, DiffPolicy pol) {
        return eng->runDiff(a, pa, po, c, pol);
    };
    r.naive = [w, p](const Int8Tensor &a, const Int8Tensor &pa,
                     const Int8Tensor &, const Int8Tensor &,
                     const Int32Tensor &po, OpCounts *c) {
        return naive::convRunDiff(a, pa, po, w, p, c);
    };
    r.direct = [eng](const Int8Tensor &a, const Int8Tensor &) {
        return eng->runDirect(a);
    };
    return r;
}

OpRow
scoresRow(Rng &rng, int64_t tokens, int64_t keys, int64_t d)
{
    OpRow r;
    r.name = "scores " + std::to_string(tokens) + "x" + std::to_string(keys);
    r.aSlab = Shape{tokens, d};
    r.bSlab = Shape{keys, d};
    stackedOperand(r.aSlab, -127, 127, rng, &r.a, &r.prevA);
    stackedOperand(r.bSlab, -127, 127, rng, &r.b, &r.prevB);
    r.batched = [tokens, keys, d](const DiffOperand &q, const DiffOperand &k,
                                  const uint8_t *primed, int32_t *out,
                                  int32_t *delta, OpCounts *c,
                                  DiffPolicy pol, EngineScratch *sc) {
        attentionBatchInto(q, k, tokens, d, keys, /*trans_b=*/true, kOpSlabs,
                           primed, out, delta, c, pol, sc);
    };
    r.single = [](const Int8Tensor &q, const Int8Tensor &pq,
                  const Int8Tensor &k, const Int8Tensor &pk,
                  const Int32Tensor &po, OpCounts *c, DiffPolicy pol) {
        return attentionScoresDiff(q, pq, k, pk, po, c, pol);
    };
    r.naive = [](const Int8Tensor &q, const Int8Tensor &pq,
                 const Int8Tensor &k, const Int8Tensor &pk,
                 const Int32Tensor &po, OpCounts *c) {
        return naive::attentionScoresDiff(q, pq, k, pk, po, c);
    };
    r.direct = attentionScoresDirect;
    return r;
}

OpRow
outputRow(Rng &rng)
{
    const int64_t rows = 15, inner = 11, d = 23;
    OpRow r;
    r.name = "weighted sum";
    r.aSlab = Shape{rows, inner};
    r.bSlab = Shape{inner, d};
    stackedOperand(r.aSlab, 0, 127, rng, &r.a, &r.prevA);
    stackedOperand(r.bSlab, -127, 127, rng, &r.b, &r.prevB);
    r.batched = [](const DiffOperand &p, const DiffOperand &v,
                   const uint8_t *primed, int32_t *out, int32_t *delta,
                   OpCounts *c, DiffPolicy pol, EngineScratch *sc) {
        attentionBatchInto(p, v, rows, inner, d, /*trans_b=*/false, kOpSlabs,
                           primed, out, delta, c, pol, sc);
    };
    r.single = [](const Int8Tensor &p, const Int8Tensor &pp,
                  const Int8Tensor &v, const Int8Tensor &pv,
                  const Int32Tensor &po, OpCounts *c, DiffPolicy pol) {
        return attentionOutputDiff(p, pp, v, pv, po, c, pol);
    };
    r.naive = [](const Int8Tensor &p, const Int8Tensor &pp,
                 const Int8Tensor &v, const Int8Tensor &pv,
                 const Int32Tensor &po, OpCounts *c) {
        return naive::attentionOutputDiff(p, pp, v, pv, po, c);
    };
    r.direct = attentionOutputDirect;
    return r;
}

TEST(BatchedOpsTest, EveryOpBatchIntoMatchesSingleCalls)
{
    Rng rng(9);
    const std::vector<OpRow> rows = {
        fcRow(rng, "fc", 9, 32, 16),
        convRow(rng, Conv2dParams{3, 5, 3, 1, 1}, 7, 7),
        convRow(rng, Conv2dParams{4, 6, 1, 1, 0}, 6, 5),
        convRow(rng, Conv2dParams{2, 4, 3, 2, 1}, 8, 9),
        // Cross attention's Q' K'^T: the constant K' [7, 29] is the
        // weight.
        fcRow(rng, "cross attention", 12, 29, 7),
        scoresRow(rng, 10, 10, 18),
        scoresRow(rng, 21, 13, 18),
        outputRow(rng),
    };
    const uint8_t primed[kOpSlabs] = {1, 0, 1};
    EngineScratch scratch;
    for (const OpRow &row : rows) {
        SCOPED_TRACE(row.name);
        std::vector<Int8Tensor> a, pa, b, pb;
        std::vector<Int32Tensor> prev_out;
        for (int64_t s = 0; s < kOpSlabs; ++s) {
            a.push_back(slabOf(row.a, row.aSlab, s));
            pa.push_back(slabOf(row.prevA, row.aSlab, s));
            b.push_back(slabOf(row.b, row.bSlab, s));
            pb.push_back(slabOf(row.prevB, row.bSlab, s));
            prev_out.push_back(row.direct(pa.back(), pb.back()));
        }
        const Shape out_slab = prev_out[0].shape();
        const int64_t out_elems = out_slab.numel();
        for (DiffPolicy policy : {DiffPolicy::Auto, DiffPolicy::ForceDiff}) {
            // Unprimed regions start as garbage: direct slabs overwrite.
            std::vector<int32_t> out(static_cast<size_t>(kOpSlabs * out_elems),
                                     0x5A5A5A5A);
            std::vector<int32_t> delta(out.size());
            for (int64_t s = 0; s < kOpSlabs; ++s)
                if (primed[s])
                    std::copy(prev_out[s].data().begin(),
                              prev_out[s].data().end(),
                              out.begin() + s * out_elems);
            std::vector<OpCounts> counts(kOpSlabs);
            row.batched({row.a.data().data(), row.prevA.data().data(), nullptr},
                        {row.b.data().data(), row.prevB.data().data(), nullptr},
                        primed, out.data(), delta.data(), counts.data(),
                        policy, &scratch);
            for (int64_t s = 0; s < kOpSlabs; ++s) {
                Int32Tensor got(out_slab);
                std::copy(out.begin() + s * out_elems,
                          out.begin() + (s + 1) * out_elems,
                          got.data().begin());
                const OpCounts &c = counts[static_cast<size_t>(s)];
                if (!primed[s]) {
                    EXPECT_TRUE(got == row.direct(a[s], b[s])) << "slab " << s;
                    expectCountsEqual(c, OpCounts{});
                    continue;
                }
                OpCounts single_counts, naive_counts;
                EXPECT_TRUE(got == row.single(a[s], pa[s], b[s], pb[s],
                                              prev_out[s], &single_counts,
                                              policy))
                    << "slab " << s;
                EXPECT_TRUE(got == row.naive(a[s], pa[s], b[s], pb[s],
                                             prev_out[s], &naive_counts))
                    << "slab " << s;
                expectCountsEqual(c, single_counts);
                expectCountsEqual(c, naive_counts);
                EXPECT_GT(c.low4, 0) << "slab " << s;
            }
        }
    }
}

TEST(ServerTest, CompletesBurstWithBatchFormation)
{
    const CompiledModel &net = testNet();
    ServerConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxWaitMicros = 200'000; // generous window: the burst fills it
    cfg.workers = 1;
    DenoiseServer server(net, cfg);
    std::vector<uint64_t> ids;
    for (uint64_t s = 0; s < 8; ++s) {
        DenoiseRequest req;
        req.seed = 300 + s;
        ids.push_back(server.submit(req));
    }
    // Tickets are FIFO and results retrievable in any order.
    for (size_t i = ids.size(); i-- > 0;) {
        const DenoiseResult res = server.wait(ids[i]);
        EXPECT_EQ(res.id, ids[i]);
        EXPECT_EQ(res.steps, net.defaultSteps());
        const RolloutResult seq = net.rollout(
            RunMode::QuantDitto, net.requestNoise(300 + i));
        expectBitwiseEqual(seq.finalImage, res.image);
        EXPECT_GE(res.queueMicros, 0.0);
        EXPECT_GT(res.serviceMicros, 0.0);
    }
    // Nothing is rejected, so every submit reached the queue.
    const ServeMetrics metrics = server.metrics();
    EXPECT_EQ(metrics.total(&ClassMetrics::submitted), 8u);
    EXPECT_EQ(metrics.total(&ClassMetrics::completed), 8u);
    EXPECT_GE(metrics.batchesFormed, 1u);
    // The formation window plus continuous batching must have packed
    // more than one request per step on average for an 8-burst.
    EXPECT_GT(metrics.avgOccupancy(), 1.0);
}

TEST(ServerTest, ZeroWaitRequestDispatchesImmediately)
{
    const CompiledModel &net = testNet();
    ServerConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxWaitMicros = 30'000'000; // 30s default window ...
    cfg.workers = 1;
    DenoiseServer server(net, cfg);
    DenoiseRequest req;
    req.seed = 400;
    req.maxWaitMicros = 0; // ... which this request opts out of
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t id = server.submit(req);
    const DenoiseResult res = server.wait(id);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    // Completion far below the 30s window proves the deadline logic
    // dispatched the lone request instead of holding the batch open.
    EXPECT_LT(elapsed, 10.0);
    const RolloutResult seq =
        net.rollout(RunMode::QuantDitto, net.requestNoise(400));
    expectBitwiseEqual(seq.finalImage, res.image);
}

TEST(ServerTest, PollDeliversTheResultNonBlocking)
{
    const CompiledModel &net = testNet();
    ServerConfig cfg;
    cfg.maxBatch = 2;
    cfg.maxWaitMicros = 0;
    cfg.workers = 2; // two engines draining the same queue
    DenoiseServer server(net, cfg);
    DenoiseRequest req;
    req.seed = 500;
    const uint64_t id = server.submit(req);
    DenoiseResult res;
    // False while pending, true exactly once when ready; a second poll
    // on the consumed ticket would abort loudly (DITTO_ASSERT) rather
    // than spin a caller forever, so it is not exercised here.
    while (!server.poll(id, &res))
        std::this_thread::yield();
    EXPECT_EQ(res.id, id);
    const RolloutResult seq =
        net.rollout(RunMode::QuantDitto, net.requestNoise(500));
    expectBitwiseEqual(seq.finalImage, res.image);
}

TEST(ServerTest, ManyRequestsAcrossWorkersAllBitwiseCorrect)
{
    const CompiledModel &net = testNet();
    ServerConfig cfg;
    cfg.maxBatch = 3;
    cfg.maxWaitMicros = 1000;
    cfg.workers = 2;
    DenoiseServer server(net, cfg);
    std::vector<uint64_t> ids;
    std::vector<int> steps;
    for (uint64_t s = 0; s < 12; ++s) {
        DenoiseRequest req;
        req.seed = 600 + s;
        req.steps = 3 + static_cast<int>(s % 3);
        req.mode =
            s % 4 == 3 ? RunMode::QuantDirect : RunMode::QuantDitto;
        steps.push_back(req.steps);
        ids.push_back(server.submit(req));
    }
    for (size_t i = 0; i < ids.size(); ++i) {
        const DenoiseResult res = server.wait(ids[i]);
        const RunMode mode =
            i % 4 == 3 ? RunMode::QuantDirect : RunMode::QuantDitto;
        const RolloutResult seq = net.rollout(
            mode, net.requestNoise(600 + i), steps[i]);
        expectBitwiseEqual(seq.finalImage, res.image);
    }
    EXPECT_EQ(server.metrics().total(&ClassMetrics::completed), 12u);
}

TEST(ServerTest, JunctionSpecSlotReuseStaysBitwise)
{
    // The deep UNet routes difference state through junction folds and
    // attention operand hand-overs; serving it with more requests than
    // batch slots exercises continuous batching's slot reuse against
    // the junction code caches (a reset slab re-primes its fold from
    // scratch while its neighbors keep their diff streams).
    DeepUnetConfig dcfg;
    dcfg.resolution = 8;
    dcfg.baseChannels = 8;
    dcfg.steps = 5;
    const CompiledModel model = compile(deepUnetSpec(dcfg));
    ServerConfig cfg;
    cfg.maxBatch = 3;
    cfg.maxWaitMicros = 500;
    cfg.workers = 1;
    DenoiseServer server(model, cfg);
    std::vector<uint64_t> ids;
    std::vector<DenoiseRequest> reqs;
    for (uint64_t s = 0; s < 9; ++s) {
        DenoiseRequest req;
        req.seed = 700 + s;
        req.steps = 3 + static_cast<int>(s % 3);
        req.mode =
            s % 3 == 2 ? RunMode::QuantDirect : RunMode::QuantDitto;
        reqs.push_back(req);
        ids.push_back(server.submit(req));
    }
    for (size_t i = 0; i < ids.size(); ++i) {
        const DenoiseResult res = server.wait(ids[i]);
        const RolloutResult seq =
            model.rollout(reqs[i].mode,
                          model.requestNoise(reqs[i].seed),
                          reqs[i].steps);
        expectBitwiseEqual(seq.finalImage, res.image);
    }
}

// ---------------------------------------------------------------------------
// Serving hardening: lifecycle edges, cancellation, deadlines,
// preemption parity, admission control, shedding, fault injection and
// the metrics surface.
// ---------------------------------------------------------------------------

/** Disarms every fault point when a test scope ends. */
struct FaultGuard
{
    ~FaultGuard() { faults::reset(); }
};

/**
 * A small single-engine config with shedding watermarks parked far
 * away, so lifecycle tests see only the behavior they arrange.
 */
ServerConfig
quietConfig()
{
    ServerConfig cfg;
    cfg.maxBatch = 1;
    cfg.maxWaitMicros = 0;
    cfg.workers = 1;
    cfg.queueCapacity = 100;
    cfg.shedHighWater = 90;
    cfg.shedLowWater = 10;
    return cfg;
}

/** Poll `pred` until true; false after a 30s wall-clock budget. */
template <typename Pred>
bool
spinUntil(Pred pred)
{
    const auto limit = std::chrono::steady_clock::now() +
                       std::chrono::seconds(30);
    while (!pred()) {
        if (std::chrono::steady_clock::now() > limit)
            return false;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
}

const FloatTensor
referenceImage(RunMode mode, uint64_t seed, int steps)
{
    return testNet()
        .rollout(mode, testNet().requestNoise(seed), steps)
        .finalImage;
}

TEST(ServerDeathTest, SubmitAfterShutdownFailsLoudly)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    DenoiseServer server(testNet(), quietConfig());
    server.shutdown();
    EXPECT_EXIT(server.submit(DenoiseRequest{}),
                testing::ExitedWithCode(1), "submit after");
}

TEST(ServerDeathTest, DoubleWaitFailsLoudly)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    DenoiseServer server(testNet(), quietConfig());
    DenoiseRequest req;
    req.seed = 1;
    req.steps = 1;
    const uint64_t id = server.submit(req);
    (void)server.wait(id);
    EXPECT_EXIT(server.wait(id), testing::ExitedWithCode(1),
                "already-consumed");
}

TEST(ServerDeathTest, PollUnknownTicketFailsLoudly)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    DenoiseServer server(testNet(), quietConfig());
    DenoiseResult out;
    EXPECT_EXIT(server.poll(12345, &out), testing::ExitedWithCode(1),
                "unknown");
    EXPECT_EXIT(server.queryState(12345), testing::ExitedWithCode(1),
                "unknown");
}

TEST(ServerDeathTest, MalformedRequestFailsLoudly)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    DenoiseServer server(testNet(), quietConfig());
    DenoiseRequest fp32;
    fp32.mode = RunMode::Fp32;
    EXPECT_EXIT(server.submit(fp32), testing::ExitedWithCode(1),
                "quantized");
    DenoiseRequest bad_deadline;
    bad_deadline.deadlineMicros = -2;
    EXPECT_EXIT(server.submit(bad_deadline), testing::ExitedWithCode(1),
                "deadlineMicros");
}

TEST(FaultPointsDeathTest, MalformedSpecFailsLoudly)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(faults::configure("bogus"), testing::ExitedWithCode(1),
                "fault spec");
    EXPECT_EXIT(faults::configure("step_end:fail:every=1"),
                testing::ExitedWithCode(1), "only meaningful");
    EXPECT_EXIT(faults::configure("submit:delay:every=0:10"),
                testing::ExitedWithCode(1), "bad schedule");
}

TEST(LifecycleTest, CancelWorksInQueuedAndRunningStates)
{
    const CompiledModel &net = testNet();
    DenoiseServer server(net, quietConfig());
    DenoiseRequest busy;
    busy.seed = 30;
    busy.steps = 400;
    busy.slo = SloClass::Interactive; // nothing may preempt it
    const uint64_t a = server.submit(busy);
    ASSERT_TRUE(spinUntil([&] {
        return server.queryState(a) == RequestStatus::Running;
    }));

    DenoiseRequest queued;
    queued.seed = 31;
    const uint64_t b = server.submit(queued);
    EXPECT_EQ(server.queryState(b), RequestStatus::Queued);
    EXPECT_TRUE(server.cancel(b));
    const DenoiseResult rb = server.wait(b);
    EXPECT_EQ(rb.status, RequestStatus::Cancelled);
    EXPECT_EQ(rb.steps, 0);
    EXPECT_EQ(rb.serviceMicros, 0.0);
    EXPECT_FALSE(server.cancel(b)); // consumed: unknown ticket

    // A request waiting behind `a` takes over its slab in place once
    // `a` is evicted, and still finishes as its standalone rollout.
    DenoiseRequest next;
    next.seed = 32;
    next.steps = 3;
    const uint64_t c = server.submit(next);
    EXPECT_TRUE(server.cancel(a)); // running: evicted between steps
    const DenoiseResult ra = server.wait(a);
    EXPECT_EQ(ra.status, RequestStatus::Cancelled);
    EXPECT_GT(ra.steps, 0);
    EXPECT_LT(ra.steps, 400);
    const DenoiseResult rc = server.wait(c);
    EXPECT_EQ(rc.status, RequestStatus::Done);
    expectBitwiseEqual(
        net.rollout(RunMode::QuantDitto, net.requestNoise(32), 3).finalImage,
        rc.image);

    const ServeMetrics m = server.metrics();
    EXPECT_EQ(m.total(&ClassMetrics::cancelled), 2u);
    EXPECT_EQ(m.total(&ClassMetrics::completed), 1u);
}

TEST(LifecycleTest, PreemptionParksLowerClassAndParkedCancelWorks)
{
    const CompiledModel &net = testNet();
    DenoiseServer server(net, quietConfig());
    DenoiseRequest low;
    low.seed = 35;
    low.steps = 400;
    low.slo = SloClass::BestEffort;
    const uint64_t a = server.submit(low);
    ASSERT_TRUE(spinUntil([&] {
        return server.queryState(a) == RequestStatus::Running;
    }));

    // The Interactive request holds the only slot for as many steps as
    // `a` has, so `a` stays parked until it is cancelled. The wait is on
    // the monotonic preemption counter, which no polling gap can miss;
    // it times out if preemption never happens.
    DenoiseRequest high;
    high.seed = 36;
    high.steps = 400;
    high.slo = SloClass::Interactive;
    const uint64_t i = server.submit(high);
    ASSERT_TRUE(spinUntil([&] {
        return server.metrics()
                   .perClass[static_cast<size_t>(SloClass::BestEffort)]
                   .preempted >= 1;
    }));
    ASSERT_TRUE(spinUntil([&] {
        return server.queryState(a) == RequestStatus::Parked;
    }));

    EXPECT_TRUE(server.cancel(a));
    const DenoiseResult ra = server.wait(a);
    EXPECT_EQ(ra.status, RequestStatus::Cancelled);
    EXPECT_EQ(ra.preemptions, 1);
    EXPECT_GT(ra.steps, 0);
    EXPECT_LT(ra.steps, 400);

    const DenoiseResult ri = server.wait(i);
    EXPECT_EQ(ri.status, RequestStatus::Done);
    expectBitwiseEqual(referenceImage(RunMode::QuantDitto, 36, 400),
                       ri.image);

    const ServeMetrics m = server.metrics();
    EXPECT_EQ(m.perClass[static_cast<size_t>(SloClass::BestEffort)]
                  .preempted,
              1u);
}

TEST(LifecycleTest, ShutdownDrainsParkedRequestsToCompletion)
{
    const CompiledModel &net = testNet();
    DenoiseServer server(net, quietConfig());
    DenoiseRequest low;
    low.seed = 40;
    low.steps = 60;
    low.slo = SloClass::BestEffort;
    const uint64_t a = server.submit(low);
    ASSERT_TRUE(spinUntil([&] {
        return server.queryState(a) == RequestStatus::Running;
    }));
    DenoiseRequest high;
    high.seed = 41;
    high.steps = 40;
    high.slo = SloClass::Interactive;
    const uint64_t i = server.submit(high);
    ASSERT_TRUE(spinUntil([&] {
        return server.queryState(a) == RequestStatus::Parked;
    }));

    server.shutdown(); // drains: resumes and finishes the parked work

    const DenoiseResult ra = server.wait(a);
    EXPECT_EQ(ra.status, RequestStatus::Done);
    EXPECT_GE(ra.preemptions, 1);
    EXPECT_EQ(ra.steps, 60);
    expectBitwiseEqual(referenceImage(RunMode::QuantDitto, 40, 60),
                       ra.image);
    const DenoiseResult ri = server.wait(i);
    EXPECT_EQ(ri.status, RequestStatus::Done);
    expectBitwiseEqual(referenceImage(RunMode::QuantDitto, 41, 40),
                       ri.image);
}

TEST(PreemptResume, ResumedRolloutsAreBitwiseIdentical)
{
    const CompiledModel &net = testNet();
    for (RunMode mode : {RunMode::QuantDitto, RunMode::QuantDirect}) {
        for (int64_t max_batch : {int64_t{1}, int64_t{2}}) {
            ServerConfig cfg = quietConfig();
            cfg.maxBatch = max_batch;
            DenoiseServer server(net, cfg);
            // Fill the engine with low-class work ...
            std::vector<uint64_t> low;
            for (int64_t j = 0; j < max_batch; ++j) {
                DenoiseRequest req;
                req.seed = 800 + static_cast<uint64_t>(j);
                req.steps = 60;
                req.mode = mode;
                req.slo = SloClass::BestEffort;
                low.push_back(server.submit(req));
            }
            ASSERT_TRUE(spinUntil([&] {
                for (uint64_t id : low)
                    if (server.queryState(id) != RequestStatus::Running)
                        return false;
                return true;
            }));
            // ... then preempt all of it with high-class work.
            std::vector<uint64_t> high;
            for (int64_t j = 0; j < max_batch; ++j) {
                DenoiseRequest req;
                req.seed = 900 + static_cast<uint64_t>(j);
                req.steps = 5;
                req.mode = mode;
                req.slo = SloClass::Interactive;
                high.push_back(server.submit(req));
            }
            for (size_t j = 0; j < high.size(); ++j) {
                const DenoiseResult r = server.wait(high[j]);
                ASSERT_EQ(r.status, RequestStatus::Done);
                expectBitwiseEqual(
                    referenceImage(mode, 900 + j, 5), r.image);
            }
            for (size_t j = 0; j < low.size(); ++j) {
                const DenoiseResult r = server.wait(low[j]);
                ASSERT_EQ(r.status, RequestStatus::Done);
                EXPECT_GE(r.preemptions, 1)
                    << "mode " << static_cast<int>(mode) << " batch "
                    << max_batch << " slot " << j;
                EXPECT_EQ(r.steps, 60);
                // The hardening guarantee: a parked-and-resumed
                // rollout is bit-identical to an uninterrupted one.
                expectBitwiseEqual(
                    referenceImage(mode, 800 + j, 60), r.image);
            }
        }
    }
}

TEST(PreemptResume, ParityAcrossWorkerAndThreadCounts)
{
    const CompiledModel &net = testNet();
    setThreadCount(3);
    ServerConfig cfg = quietConfig();
    cfg.workers = 3; // three single-slot engines; parked work may
    cfg.maxBatch = 1; // resume on a different engine than it left
    DenoiseServer server(net, cfg);
    std::vector<uint64_t> low;
    for (uint64_t j = 0; j < 3; ++j) {
        DenoiseRequest req;
        req.seed = 820 + j;
        req.steps = 60;
        req.mode = j == 1 ? RunMode::QuantDirect : RunMode::QuantDitto;
        req.slo = SloClass::BestEffort;
        low.push_back(server.submit(req));
    }
    ASSERT_TRUE(spinUntil([&] {
        for (uint64_t id : low)
            if (server.queryState(id) != RequestStatus::Running)
                return false;
        return true;
    }));
    std::vector<uint64_t> high;
    for (uint64_t j = 0; j < 3; ++j) {
        DenoiseRequest req;
        req.seed = 920 + j;
        req.steps = 4;
        req.slo = SloClass::Interactive;
        high.push_back(server.submit(req));
    }
    for (size_t j = 0; j < high.size(); ++j) {
        const DenoiseResult r = server.wait(high[j]);
        ASSERT_EQ(r.status, RequestStatus::Done);
        expectBitwiseEqual(
            referenceImage(RunMode::QuantDitto, 920 + j, 4), r.image);
    }
    for (size_t j = 0; j < low.size(); ++j) {
        const DenoiseResult r = server.wait(low[j]);
        ASSERT_EQ(r.status, RequestStatus::Done);
        const RunMode mode =
            j == 1 ? RunMode::QuantDirect : RunMode::QuantDitto;
        expectBitwiseEqual(referenceImage(mode, 820 + j, 60), r.image);
    }
    setThreadCount(1);
}

TEST(DeadlineTest, ZeroBudgetTimesOutAtTheFirstCheckpoint)
{
    const CompiledModel &net = testNet();
    DenoiseServer server(net, quietConfig());
    DenoiseRequest req;
    req.seed = 50;
    req.deadlineMicros = 0; // legal: expires at the first checkpoint
    const DenoiseResult r = server.wait(server.submit(req));
    EXPECT_EQ(r.status, RequestStatus::TimedOut);
    EXPECT_EQ(r.steps, 0);

    // The server survives and a deadline with headroom completes.
    DenoiseRequest ok;
    ok.seed = 51;
    ok.steps = 3;
    ok.deadlineMicros = 60'000'000;
    const DenoiseResult r2 = server.wait(server.submit(ok));
    EXPECT_EQ(r2.status, RequestStatus::Done);
    expectBitwiseEqual(referenceImage(RunMode::QuantDitto, 51, 3),
                       r2.image);
    EXPECT_EQ(server.metrics().total(&ClassMetrics::timedOut), 1u);
}

TEST(DeadlineTest, QueuedRequestTimesOutWhileTheEngineIsBusy)
{
    const CompiledModel &net = testNet();
    DenoiseServer server(net, quietConfig());
    DenoiseRequest busy;
    busy.seed = 55;
    busy.steps = 400;
    busy.slo = SloClass::Interactive;
    const uint64_t a = server.submit(busy);
    ASSERT_TRUE(spinUntil([&] {
        return server.queryState(a) == RequestStatus::Running;
    }));
    DenoiseRequest doomed;
    doomed.seed = 56;
    doomed.deadlineMicros = 1000; // 1ms; the 400-step run outlasts it
    const DenoiseResult r = server.wait(server.submit(doomed));
    EXPECT_EQ(r.status, RequestStatus::TimedOut);
    EXPECT_EQ(r.steps, 0);
    server.cancel(a);
}

TEST(DeadlineTest, ParkedRequestTimesOutUnderInjectedStepDelay)
{
    FaultGuard guard;
    // Pin every step to >= 2ms so the wall-clock arithmetic below is
    // schedule-independent: the high-class run alone outlasts the
    // low-class deadline.
    faults::configure("step_begin:delay:every=1:2000");
    const CompiledModel &net = testNet();
    DenoiseServer server(net, quietConfig());
    DenoiseRequest low;
    low.seed = 60;
    low.steps = 400;
    low.slo = SloClass::BestEffort;
    low.deadlineMicros = 100'000; // 100ms
    const uint64_t a = server.submit(low);
    ASSERT_TRUE(spinUntil([&] {
        return server.queryState(a) == RequestStatus::Running;
    }));
    DenoiseRequest high;
    high.seed = 61;
    high.steps = 100; // >= 200ms of injected delay
    high.slo = SloClass::Interactive;
    const uint64_t i = server.submit(high);
    const DenoiseResult ra = server.wait(a);
    EXPECT_EQ(ra.status, RequestStatus::TimedOut);
    EXPECT_EQ(ra.preemptions, 1);
    EXPECT_GT(ra.steps, 0);
    EXPECT_LT(ra.steps, 400);
    const DenoiseResult ri = server.wait(i);
    EXPECT_EQ(ri.status, RequestStatus::Done);
    expectBitwiseEqual(referenceImage(RunMode::QuantDitto, 61, 100),
                       ri.image);
}

TEST(FaultPointsTest, SubmitFailScheduleRejectsDeterministically)
{
    FaultGuard guard;
    faults::configure("submit:fail:every=2");
    const CompiledModel &net = testNet();
    DenoiseServer server(net, quietConfig());
    std::vector<uint64_t> ids;
    for (uint64_t s = 0; s < 4; ++s) {
        DenoiseRequest req;
        req.seed = 70 + s;
        req.steps = 2;
        ids.push_back(server.submit(req));
    }
    const RequestStatus expected[4] = {
        RequestStatus::Done, RequestStatus::Rejected,
        RequestStatus::Done, RequestStatus::Rejected};
    for (size_t s = 0; s < ids.size(); ++s) {
        const DenoiseResult r = server.wait(ids[s]);
        EXPECT_EQ(r.status, expected[s]) << "submit " << s;
    }
    EXPECT_EQ(faults::hitCount(faults::Point::Submit), 4u);
    EXPECT_EQ(server.metrics().total(&ClassMetrics::rejectedFault), 2u);
}

TEST(FaultPointsTest, AdmissionFailRejectsAfterQueueing)
{
    FaultGuard guard;
    faults::configure("admission:fail:every=1");
    const CompiledModel &net = testNet();
    DenoiseServer server(net, quietConfig());
    DenoiseRequest req;
    req.seed = 75;
    const DenoiseResult r = server.wait(server.submit(req));
    EXPECT_EQ(r.status, RequestStatus::Rejected);
    const ServeMetrics m = server.metrics();
    EXPECT_EQ(m.total(&ClassMetrics::submitted), 1u);
    EXPECT_EQ(m.total(&ClassMetrics::admitted), 0u);
    EXPECT_EQ(m.total(&ClassMetrics::rejectedFault), 1u);
}

TEST(FaultPointsTest, SeededDelaysLeaveEveryResultBitwise)
{
    FaultGuard guard;
    faults::configure("step_begin:delay:prob=0.5:300;"
                      "step_end:delay:prob=0.5:300;"
                      "batch_form:delay:every=2:1000;"
                      "submit:delay:every=3:500;"
                      "park:delay:every=1:200;"
                      "resume:delay:every=1:200",
                      1234);
    const CompiledModel &net = testNet();
    ServerConfig cfg = quietConfig();
    cfg.maxBatch = 2;
    cfg.workers = 2;
    cfg.maxWaitMicros = 500;
    DenoiseServer server(net, cfg);
    std::vector<uint64_t> ids;
    std::vector<DenoiseRequest> reqs;
    for (uint64_t s = 0; s < 6; ++s) {
        DenoiseRequest req;
        req.seed = 80 + s;
        req.steps = 3 + static_cast<int>(s % 3);
        req.mode =
            s % 3 == 2 ? RunMode::QuantDirect : RunMode::QuantDitto;
        req.slo = static_cast<SloClass>(s % kNumSloClasses);
        reqs.push_back(req);
        ids.push_back(server.submit(req));
    }
    for (size_t s = 0; s < ids.size(); ++s) {
        const DenoiseResult r = server.wait(ids[s]);
        ASSERT_EQ(r.status, RequestStatus::Done);
        expectBitwiseEqual(
            referenceImage(reqs[s].mode, reqs[s].seed, reqs[s].steps),
            r.image);
    }
    EXPECT_GT(faults::hitCount(faults::Point::StepBegin), 0u);
}

TEST(AdmissionTest, BoundedQueueRejectsWhenFull)
{
    const CompiledModel &net = testNet();
    ServerConfig cfg = quietConfig();
    cfg.queueCapacity = 2;
    cfg.shedHighWater = 50; // keep shedding out of this test
    cfg.shedLowWater = 10;
    DenoiseServer server(net, cfg);
    DenoiseRequest busy;
    busy.seed = 90;
    busy.steps = 400;
    busy.slo = SloClass::Interactive;
    const uint64_t a = server.submit(busy);
    ASSERT_TRUE(spinUntil([&] {
        return server.queryState(a) == RequestStatus::Running;
    }));
    DenoiseRequest req;
    req.seed = 91;
    const uint64_t b1 = server.submit(req);
    req.seed = 92;
    const uint64_t b2 = server.submit(req);
    req.seed = 93;
    const uint64_t d = server.submit(req); // queue full: rejected
    EXPECT_EQ(server.queryState(d), RequestStatus::Rejected);
    const DenoiseResult rd = server.wait(d);
    EXPECT_EQ(rd.status, RequestStatus::Rejected);
    const ServeMetrics m = server.metrics();
    EXPECT_EQ(m.total(&ClassMetrics::rejectedCapacity), 1u);
    EXPECT_EQ(m.queueDepth, 2u);
    server.cancel(a);
    server.cancel(b1);
    server.cancel(b2);
}

TEST(AdmissionTest, BlockingSubmitRejectsAfterItsBudget)
{
    const CompiledModel &net = testNet();
    ServerConfig cfg = quietConfig();
    cfg.queueCapacity = 1;
    cfg.admitBlockMicros = 100'000; // 100ms of backpressure
    cfg.shedHighWater = 50;
    cfg.shedLowWater = 10;
    DenoiseServer server(net, cfg);
    DenoiseRequest busy;
    busy.seed = 95;
    busy.steps = 2000;
    busy.slo = SloClass::Interactive;
    const uint64_t a = server.submit(busy);
    ASSERT_TRUE(spinUntil([&] {
        return server.queryState(a) == RequestStatus::Running;
    }));
    DenoiseRequest req;
    req.seed = 96;
    const uint64_t b = server.submit(req); // fills the queue
    const auto t0 = std::chrono::steady_clock::now();
    req.seed = 97;
    const uint64_t c = server.submit(req); // blocks, then rejects
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_EQ(server.queryState(c), RequestStatus::Rejected);
    EXPECT_GE(waited, 0.05); // it really blocked for the budget
    server.cancel(a);
    server.cancel(b);
    (void)server.wait(c);
}

TEST(AdmissionTest, BlockingSubmitAdmitsWhenSpaceFreesUp)
{
    FaultGuard guard;
    faults::configure("step_begin:delay:every=1:1000");
    const CompiledModel &net = testNet();
    ServerConfig cfg = quietConfig();
    cfg.queueCapacity = 1;
    cfg.admitBlockMicros = 20'000'000; // far beyond the busy run
    cfg.shedHighWater = 50;
    cfg.shedLowWater = 10;
    DenoiseServer server(net, cfg);
    DenoiseRequest busy;
    busy.seed = 100;
    busy.steps = 20; // ~20ms under the injected step delay
    busy.slo = SloClass::Interactive;
    const uint64_t a = server.submit(busy);
    ASSERT_TRUE(spinUntil([&] {
        return server.queryState(a) == RequestStatus::Running;
    }));
    DenoiseRequest req;
    req.seed = 101;
    req.steps = 2;
    const uint64_t b = server.submit(req); // fills the queue
    req.seed = 102;
    const uint64_t c = server.submit(req); // blocks until b is admitted
    for (uint64_t id : {a, b, c}) {
        const DenoiseResult r = server.wait(id);
        EXPECT_EQ(r.status, RequestStatus::Done);
    }
    EXPECT_EQ(server.metrics().total(&ClassMetrics::rejectedCapacity),
              0u);
}

TEST(ShedTest, OverloadShedsByClassWithHysteresis)
{
    const CompiledModel &net = testNet();
    ServerConfig cfg = quietConfig();
    cfg.queueCapacity = 100;
    cfg.shedHighWater = 4;
    cfg.shedLowWater = 1;
    DenoiseServer server(net, cfg);
    DenoiseRequest busy;
    busy.seed = 110;
    busy.steps = 500;
    busy.slo = SloClass::Interactive; // nothing preempts it
    const uint64_t a = server.submit(busy);
    ASSERT_TRUE(spinUntil([&] {
        return server.queryState(a) == RequestStatus::Running;
    }));
    // Queue four Standard requests: depth reaches the high watermark.
    std::vector<uint64_t> backlog;
    for (uint64_t s = 0; s < 4; ++s) {
        DenoiseRequest req;
        req.seed = 111 + s;
        req.steps = 3;
        backlog.push_back(server.submit(req));
    }
    // Shedding engages: Standard is force-degraded ...
    DenoiseRequest std_req;
    std_req.seed = 120;
    std_req.steps = 4;
    std_req.mode = RunMode::QuantDirect; // degraded to ApproxDitto
    const uint64_t deg = server.submit(std_req);
    // ... and BestEffort is rejected outright.
    DenoiseRequest be_req;
    be_req.seed = 121;
    be_req.slo = SloClass::BestEffort;
    const uint64_t shed = server.submit(be_req);
    EXPECT_EQ(server.queryState(shed), RequestStatus::Rejected);
    EXPECT_EQ(server.wait(shed).status, RequestStatus::Rejected);

    server.cancel(a); // release the engine and drain the backlog
    for (uint64_t id : backlog)
        EXPECT_EQ(server.wait(id).status, RequestStatus::Done);
    const DenoiseResult rdeg = server.wait(deg);
    EXPECT_EQ(rdeg.status, RequestStatus::Done);
    EXPECT_TRUE(rdeg.degraded);
    // Degradation sheds quality, not steps: the full trajectory runs
    // in ApproxDitto and is bitwise the sequential ApproxDitto rollout
    // of the same seed, whatever batch it landed in.
    EXPECT_EQ(rdeg.steps, 4);
    expectBitwiseEqual(referenceImage(RunMode::ApproxDitto, 120, 4),
                       rdeg.image);

    const ServeMetrics m = server.metrics();
    EXPECT_EQ(m.perClass[static_cast<size_t>(SloClass::BestEffort)]
                  .rejectedShed,
              1u);
    EXPECT_EQ(
        m.perClass[static_cast<size_t>(SloClass::Standard)].degraded,
        1u);
    EXPECT_EQ(m.shedEntered, 1u);
    EXPECT_EQ(m.shedExited, 1u); // hysteresis released on drain
    EXPECT_FALSE(m.shedding);
    EXPECT_GE(m.queueDepthPeak, 5u);

    // Out of overload, BestEffort is served again.
    DenoiseRequest ok;
    ok.seed = 122;
    ok.steps = 2;
    ok.slo = SloClass::BestEffort;
    EXPECT_EQ(server.wait(server.submit(ok)).status,
              RequestStatus::Done);
}

/**
 * ApproxDitto through the serving layer (docs/approx_reuse.md): the
 * approximate mode joins the same batches as the exact modes, its
 * per-slab reuse decisions are independent of batch composition, and
 * parking a request mid-rollout carries the reuse state (cached
 * codes/outputs + consecutive-skip counters) so the resumed
 * trajectory is bitwise the uninterrupted one.
 */

/** MiniUnet at test geometry with an aggressive skip policy. */
const CompiledModel &
approxNet()
{
    static const CompiledModel *m = [] {
        auto *model =
            new CompiledModel(compile(miniUnetSpec(smallConfig())));
        // Skip whenever the refresh cap allows: every primed step
        // reuses, so drift, counters and refresh all get exercised.
        model->setApproxPolicy(1.0, 3);
        return model;
    }();
    return *m;
}

TEST(ApproxServe, MixedModesShareABatch)
{
    const CompiledModel &m = approxNet();
    BatchEngine engine(m, /*max_batch=*/3);
    const RunMode modes[3] = {RunMode::ApproxDitto, RunMode::QuantDitto,
                              RunMode::QuantDirect};
    std::vector<BatchEngine::Parked> burst;
    for (uint64_t i = 0; i < 3; ++i)
        burst.push_back(
            BatchEngine::Parked::cold(m, i, request(700 + i, modes[i])));
    engine.join(burst);
    std::vector<BatchEngine::Finished> all;
    while (!engine.empty()) {
        engine.step();
        std::vector<BatchEngine::Finished> done = engine.retire();
        std::move(done.begin(), done.end(), std::back_inserter(all));
    }
    ASSERT_EQ(all.size(), 3u);
    for (const BatchEngine::Finished &f : all) {
        // Each slab reproduces its own sequential rollout — the exact
        // slabs stay exact even though the batch ran in approx mode.
        const RolloutResult seq =
            m.rollout(modes[f.id], m.requestNoise(700 + f.id));
        expectBitwiseEqual(seq.finalImage, f.image);
        if (modes[f.id] != RunMode::ApproxDitto)
            EXPECT_EQ(f.ops.reusedElems, 0);
        else
            EXPECT_GT(f.ops.reusedElems, 0);
    }
}

TEST(ApproxServe, ParkAndResumePreservesReuseStateBitwise)
{
    const CompiledModel &m = approxNet();
    const int kSteps = 6;
    DenoiseRequest req;
    req.seed = 710;
    req.steps = kSteps;
    req.mode = RunMode::ApproxDitto;

    BatchEngine first(m, /*max_batch=*/2);
    const BatchEngine::Parked start = BatchEngine::Parked::cold(m, 1, req);
    first.join({&start, 1});
    // Three steps in, the request sits mid-skip-run (counters at 2 of
    // cap 3) with live cached codes and outputs.
    for (int t = 0; t < 3; ++t)
        first.step();
    const BatchEngine::Parked p = first.park(0);
    EXPECT_TRUE(p.approx);
    EXPECT_TRUE(p.hasState);
    EXPECT_EQ(p.stepsDone, 3);
    expectJoinable(m, p);

    // Resume on a different engine over the same model, sharing the
    // batch (and the join) with an unrelated exact request.
    BatchEngine second(m, /*max_batch=*/2);
    const std::vector<BatchEngine::Parked> burst = {
        BatchEngine::Parked::cold(
            m, 2, request(711, RunMode::QuantDitto, kSteps)),
        p};
    second.join(burst);
    while (!second.empty()) {
        second.step();
        for (const BatchEngine::Finished &f : second.retire()) {
            const uint64_t seed = f.id == 1 ? 710 : 711;
            const RunMode mode = f.id == 1 ? RunMode::ApproxDitto
                                           : RunMode::QuantDitto;
            const RolloutResult seq =
                m.rollout(mode, m.requestNoise(seed), kSteps);
            expectBitwiseEqual(seq.finalImage, f.image);
        }
    }
}

TEST(ApproxServe, JoinIntoRestoresParkedState)
{
    const CompiledModel &m = approxNet();
    BatchEngine engine(m, /*max_batch=*/1);
    const BatchEngine::Parked start = BatchEngine::Parked::cold(
        m, 1, request(720, RunMode::ApproxDitto, 6));
    engine.join({&start, 1});
    for (int t = 0; t < 3; ++t)
        engine.step();
    const BatchEngine::Parked p = engine.park(0);
    expectJoinable(m, p);

    // A short request borrows the engine, finishes, and the parked
    // approx request resumes into its slot in place.
    const BatchEngine::Parked filler = BatchEngine::Parked::cold(
        m, 2, request(721, RunMode::QuantDitto, 2));
    engine.join({&filler, 1});
    engine.step();
    engine.step();
    ASSERT_TRUE(engine.slotFinished(0));
    expectBitwiseEqual(
        m.rollout(RunMode::QuantDitto, m.requestNoise(721), 2)
            .finalImage,
        engine.extract(0).image);
    engine.joinInto(0, p);
    while (!engine.empty()) {
        engine.step();
        for (const BatchEngine::Finished &f : engine.retire())
            expectBitwiseEqual(
                m.rollout(RunMode::ApproxDitto, m.requestNoise(720), 6)
                    .finalImage,
                f.image);
    }
}

TEST(ApproxServe, JoinIntoClearsPriorApproxState)
{
    // Regression companion to ApproxMode.ResetSlabClearsApproxReuseState:
    // through the engine surface, a slot that served an approx request
    // must hand a fresh request (approx or exact) a clean slate.
    const CompiledModel &m = approxNet();
    BatchEngine engine(m, /*max_batch=*/1);
    const BatchEngine::Parked a = BatchEngine::Parked::cold(
        m, 1, request(730, RunMode::ApproxDitto, 5));
    engine.join({&a, 1});
    while (engine.finishedSlots().empty())
        engine.step();

    engine.joinInto(0, BatchEngine::Parked::cold(
                           m, 2, request(731, RunMode::ApproxDitto, 5)));
    while (engine.finishedSlots().empty())
        engine.step();
    expectBitwiseEqual(
        m.rollout(RunMode::ApproxDitto, m.requestNoise(731), 5)
            .finalImage,
        engine.extract(0).image);

    // Exact after approx: no reuse leaks.
    engine.joinInto(0, BatchEngine::Parked::cold(
                           m, 3, request(732, RunMode::QuantDitto, 5)));
    while (engine.finishedSlots().empty())
        engine.step();
    const BatchEngine::Finished f = engine.extract(0);
    EXPECT_EQ(f.ops.reusedElems, 0);
    expectBitwiseEqual(
        m.rollout(RunMode::QuantDitto, m.requestNoise(732), 5)
            .finalImage,
        f.image);
}

TEST(BatchEngineTest, OneJoinCarriesColdWarmAndParkedRequests)
{
    // The one way into a batch: a cold request, a warm one from a
    // snapshot() and a parked ApproxDitto one join a running engine in
    // a single join(), and each finishes as its standalone rollout.
    const CompiledModel &m = approxNet();
    const int kSteps = 6;
    BatchEngine source(m, /*max_batch=*/2);
    const std::vector<BatchEngine::Parked> starts = {
        BatchEngine::Parked::cold(
            m, 1, request(750, RunMode::QuantDitto, kSteps)),
        BatchEngine::Parked::cold(
            m, 2, request(751, RunMode::ApproxDitto, kSteps))};
    source.join(starts);
    source.step();
    source.step();
    BatchEngine::Parked warm = source.snapshot(0);
    EXPECT_TRUE(warm.hasState);
    expectJoinable(m, warm);
    warm.id = 11; // a new request warm-starting from request 1's prefix
    source.step(); // the approx request is now mid skip-run
    const BatchEngine::Parked parked = source.park(1);
    EXPECT_TRUE(parked.hasState);
    expectJoinable(m, parked);

    BatchEngine engine(m, /*max_batch=*/4);
    const BatchEngine::Parked running = BatchEngine::Parked::cold(
        m, 20, request(752, RunMode::QuantDitto, kSteps));
    engine.join({&running, 1});
    engine.step();
    const std::vector<BatchEngine::Parked> burst = {
        BatchEngine::Parked::cold(
            m, 10, request(753, RunMode::QuantDitto, kSteps)),
        warm, parked};
    engine.join(burst);
    EXPECT_EQ(engine.active(), 4);
    std::map<uint64_t, BatchEngine::Finished> done;
    while (!engine.empty()) {
        engine.step();
        for (BatchEngine::Finished &f : engine.retire())
            done[f.id] = std::move(f);
    }
    ASSERT_EQ(done.size(), 4u);
    const RolloutResult cold =
        m.rollout(RunMode::QuantDitto, m.requestNoise(753), kSteps);
    expectBitwiseEqual(cold.finalImage, done[10].image);
    expectAllCountsEqual(cold.dittoOps, done[10].ops);
    expectBitwiseEqual(
        m.rollout(RunMode::QuantDitto, m.requestNoise(750), kSteps)
            .finalImage,
        done[11].image);
    expectBitwiseEqual(
        m.rollout(RunMode::ApproxDitto, m.requestNoise(751), kSteps)
            .finalImage,
        done[2].image);
    expectBitwiseEqual(
        m.rollout(RunMode::QuantDitto, m.requestNoise(752), kSteps)
            .finalImage,
        done[20].image);
}

TEST(BatchEngineTest, JoinIntoHandsOverACancelledSlot)
{
    // A slab abandoned mid-rollout (cancelled or timed out) is handed
    // over in place like a finished one: its occupant's cached state,
    // skip counters and reuse-cache pin must not reach the next
    // request.
    const CompiledModel &m = approxNet();
    BatchEngine source(m, /*max_batch=*/1);
    const BatchEngine::Parked start = BatchEngine::Parked::cold(
        m, 1, request(760, RunMode::ApproxDitto, 6));
    source.join({&start, 1});
    source.step();
    source.step();
    BatchEngine::Parked warm = source.snapshot(0);
    auto pin = std::make_shared<int>(0);
    warm.state.backRef = pin;

    BatchEngine engine(m, /*max_batch=*/2);
    std::vector<BatchEngine::Parked> burst;
    burst.push_back(std::move(warm));
    burst.push_back(BatchEngine::Parked::cold(
        m, 2, request(761, RunMode::QuantDitto, 6)));
    engine.join(burst);
    burst.clear();
    engine.step();
    ASSERT_FALSE(engine.slotFinished(0));
    EXPECT_EQ(pin.use_count(), 2); // the test's and slab 0's

    // Request 1 is cancelled; request 3 takes its slab in place.
    engine.joinInto(0, BatchEngine::Parked::cold(
                           m, 3, request(762, RunMode::ApproxDitto, 6)));
    EXPECT_EQ(pin.use_count(), 1) << "the handed-over slab kept the pin";
    std::map<uint64_t, BatchEngine::Finished> done;
    while (!engine.empty()) {
        engine.step();
        for (BatchEngine::Finished &f : engine.retire())
            done[f.id] = std::move(f);
    }
    ASSERT_EQ(done.size(), 2u);
    const RolloutResult fresh =
        m.rollout(RunMode::ApproxDitto, m.requestNoise(762), 6);
    expectBitwiseEqual(fresh.finalImage, done[3].image);
    expectAllCountsEqual(fresh.dittoOps, done[3].ops);
    expectBitwiseEqual(
        m.rollout(RunMode::QuantDitto, m.requestNoise(761), 6).finalImage,
        done[2].image);
}

TEST(ApproxServe, ExplicitApproxRequestServedBitwise)
{
    DenoiseServer server(testNet(), quietConfig());
    DenoiseRequest req;
    req.seed = 740;
    req.steps = 4;
    req.mode = RunMode::ApproxDitto;
    const DenoiseResult r = server.wait(server.submit(req));
    EXPECT_EQ(r.status, RequestStatus::Done);
    EXPECT_FALSE(r.degraded); // asked for, not shed into
    expectBitwiseEqual(referenceImage(RunMode::ApproxDitto, 740, 4),
                       r.image);
}

TEST(ApproxServe, ShedNeverDegradesInteractive)
{
    const CompiledModel &net = testNet();
    ServerConfig cfg = quietConfig();
    cfg.queueCapacity = 100;
    cfg.shedHighWater = 4;
    cfg.shedLowWater = 1;
    DenoiseServer server(net, cfg);
    DenoiseRequest busy;
    busy.seed = 750;
    busy.steps = 500;
    busy.slo = SloClass::Interactive;
    const uint64_t a = server.submit(busy);
    ASSERT_TRUE(spinUntil([&] {
        return server.queryState(a) == RequestStatus::Running;
    }));
    std::vector<uint64_t> backlog;
    for (uint64_t s = 0; s < 4; ++s) {
        DenoiseRequest req;
        req.seed = 751 + s;
        req.steps = 3;
        backlog.push_back(server.submit(req)); // engages shedding
    }
    // Interactive work submitted during overload is untouched: full
    // steps, exact mode, no degraded flag.
    DenoiseRequest vip;
    vip.seed = 760;
    vip.steps = 4;
    vip.slo = SloClass::Interactive;
    const uint64_t v = server.submit(vip);
    server.cancel(a);
    const DenoiseResult rv = server.wait(v);
    EXPECT_EQ(rv.status, RequestStatus::Done);
    EXPECT_FALSE(rv.degraded);
    EXPECT_EQ(rv.steps, 4);
    expectBitwiseEqual(referenceImage(RunMode::QuantDitto, 760, 4),
                       rv.image);
    for (uint64_t id : backlog)
        (void)server.wait(id);
    EXPECT_EQ(server.metrics()
                  .perClass[static_cast<size_t>(SloClass::Interactive)]
                  .degraded,
              0u);
}

TEST(MetricsTest, JsonExportCoversTheDocumentedSurface)
{
    const CompiledModel &net = testNet();
    DenoiseServer server(net, quietConfig());
    for (uint64_t s = 0; s < 2; ++s) {
        DenoiseRequest req;
        req.seed = 130 + s;
        req.steps = 2;
        (void)server.wait(server.submit(req));
    }
    const std::string json = server.metricsJson();
    for (const char *key :
         {"\"classes\"", "\"interactive\"", "\"standard\"",
          "\"best_effort\"", "\"p50_us\"", "\"p95_us\"", "\"p99_us\"",
          "\"queue_depth\"", "\"shedding\":false", "\"steps\"",
          "\"avg_occupancy\"", "\"preempted\"", "\"rejected_capacity\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    const ServeMetrics m = server.metrics();
    EXPECT_EQ(m.total(&ClassMetrics::completed), 2u);
    EXPECT_EQ(m.total(&ClassMetrics::submitted), 2u);
    const ClassMetrics &std_class =
        m.perClass[static_cast<size_t>(SloClass::Standard)];
    EXPECT_EQ(std_class.e2eUs.count(), 2u);
    EXPECT_GT(std_class.e2eUs.meanUs(), 0.0);
    EXPECT_GE(std_class.e2eUs.percentileUs(0.95),
              std_class.e2eUs.percentileUs(0.50));
}

} // namespace
} // namespace ditto
