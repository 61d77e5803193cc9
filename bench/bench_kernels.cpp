/**
 * @file
 * google-benchmark microbenchmarks of the functional substrate: the
 * blocked kernel library against its retained naive:: references, the
 * difference engines, the Encoding Unit and the adder-tree PE. These
 * measure this library's software kernels (used by the tests and
 * functional pipeline), not the modelled accelerator — the
 * accelerator's performance claims come from the cycle model, not
 * wall-clock time.
 *
 * Results are always emitted to BENCH_kernels.json (google-benchmark
 * JSON format, thread count recorded in the context) so the kernel
 * perf trajectory is tracked PR over PR; pass --benchmark_out=... to
 * redirect.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/parallel.h"
#include "core/diff_linear.h"
#include "hw/encoding_unit.h"
#include "hw/pe.h"
#include "quant/encoder.h"
#include "quant/quantizer.h"
#include "runtime/compiled.h"
#include "runtime/presets.h"
#include "serve/server.h"
#include "shard/router.h"
#include "shard/worker.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"
#include "trace/calibrate.h"
#include "trace/sampler.h"

namespace {

using namespace ditto;

Int8Tensor
randomInt8(int64_t rows, int64_t cols, uint64_t seed)
{
    Rng rng(seed);
    Int8Tensor t(Shape{rows, cols});
    t.fillUniformInt(rng, -127, 127);
    return t;
}

FloatTensor
randomFloat(const Shape &shape, uint64_t seed)
{
    Rng rng(seed);
    FloatTensor t(shape);
    t.fillNormal(rng, 0.0, 1.0);
    return t;
}

void
BM_MatmulInt8(benchmark::State &state)
{
    const int64_t n = state.range(0);
    const Int8Tensor a = randomInt8(n, n, 1);
    const Int8Tensor b = randomInt8(n, n, 2);
    for (auto _ : state) {
        Int32Tensor c = matmulInt8(a, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulInt8)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void
BM_MatmulInt8Naive(benchmark::State &state)
{
    const int64_t n = state.range(0);
    const Int8Tensor a = randomInt8(n, n, 1);
    const Int8Tensor b = randomInt8(n, n, 2);
    for (auto _ : state) {
        Int32Tensor c = naive::matmulInt8(a, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulInt8Naive)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void
BM_MatmulFloat(benchmark::State &state)
{
    const int64_t n = state.range(0);
    const FloatTensor a = randomFloat(Shape{n, n}, 1);
    const FloatTensor b = randomFloat(Shape{n, n}, 2);
    for (auto _ : state) {
        FloatTensor c = matmul(a, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulFloat)->Arg(64)->Arg(128)->Arg(256);

void
BM_MatmulFloatNaive(benchmark::State &state)
{
    const int64_t n = state.range(0);
    const FloatTensor a = randomFloat(Shape{n, n}, 1);
    const FloatTensor b = randomFloat(Shape{n, n}, 2);
    for (auto _ : state) {
        FloatTensor c = naive::matmul(a, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulFloatNaive)->Arg(64)->Arg(128)->Arg(256);

void
BM_MatmulDiffInt16(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(3);
    Int16Tensor a(Shape{n, n});
    a.fillUniformInt(rng, -254, 254);
    const Int8Tensor b = randomInt8(n, n, 4);
    for (auto _ : state) {
        Int32Tensor c = matmulDiffInt16(a, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulDiffInt16)->Arg(64)->Arg(128);

void
BM_MatmulDiffInt16Naive(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(3);
    Int16Tensor a(Shape{n, n});
    a.fillUniformInt(rng, -254, 254);
    const Int8Tensor b = randomInt8(n, n, 4);
    for (auto _ : state) {
        Int32Tensor c = naive::matmulDiffInt16(a, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulDiffInt16Naive)->Arg(64)->Arg(128);

void
BM_FcDirectVsDiff(benchmark::State &state)
{
    const int64_t n = state.range(0);
    const bool diff = state.range(1) != 0;
    DiffFcEngine engine(randomInt8(n, n, 3));
    // Make adjacent-step inputs genuinely similar so the diff path sees
    // realistic sparsity.
    MixtureSampler sampler(calibratedParams(ModelId::SDM), 4);
    const auto seq = sampler.sampleSequence(n * n, 2);
    const QuantParams qp = chooseDynamicScale(seq[0]);
    Int8Tensor x0 = quantize(seq[0], qp);
    Int8Tensor x1 = quantize(seq[1], qp);
    Int8Tensor x0m(Shape{n, n});
    Int8Tensor x1m(Shape{n, n});
    for (int64_t i = 0; i < n * n; ++i) {
        x0m.at(i) = x0.at(i);
        x1m.at(i) = x1.at(i);
    }
    const Int32Tensor out0 = engine.runDirect(x0m);
    for (auto _ : state) {
        // ForceDiff so the sparse machinery itself is measured even
        // when the software Defo policy would revert at this mix.
        Int32Tensor out = diff ? engine.runDiff(x1m, x0m, out0, nullptr,
                                                DiffPolicy::ForceDiff)
                               : engine.runDirect(x1m);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_FcDirectVsDiff)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1});

/**
 * Difference matrix with a synthetic zero / low4 / full8 element mix
 * (percentages; the remainder is full8).
 */
Int16Tensor
makeMixDiff(int64_t m, int64_t k, int zero_pct, int low4_pct, uint64_t seed)
{
    Rng rng(seed);
    Int16Tensor t(Shape{m, k});
    for (auto &v : t.data()) {
        const int u = static_cast<int>(rng.uniformInt(100));
        if (u < zero_pct) {
            v = 0;
        } else if (u < zero_pct + low4_pct) {
            const int64_t mag = 1 + static_cast<int64_t>(rng.uniformInt(7));
            v = static_cast<int16_t>(rng.bernoulli(0.5) ? mag : -mag);
        } else {
            const int64_t mag = 8 + static_cast<int64_t>(rng.uniformInt(247));
            v = static_cast<int16_t>(rng.bernoulli(0.5) ? mag : -mag);
        }
    }
    return t;
}

/**
 * Sparse diff path at a synthetic zero/low4/full8 mix: encode the
 * difference into a panel plan and execute the plan-driven GEMM,
 * accumulating into the previous output — everything a Ditto step
 * pays after quantization. Args: {zero %, low4 %}; remainder full8.
 */
void
BM_DiffGemmSparse(benchmark::State &state)
{
    const int64_t n = 256;
    const Int16Tensor diff =
        makeMixDiff(n, n, static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(1)), 40);
    // Steady state of a weight-stationary layer: the engine caches the
    // transposed weight once, so each step pays encode + plan GEMM.
    const Int8Tensor wt = transposeInt8(randomInt8(n, n, 41));
    Rng rng(42);
    Int32Tensor prev(Shape{n, n});
    prev.fillUniformInt(rng, -100000, 100000);
    for (auto _ : state) {
        const DiffGemmPlan plan = encodeDiff(diff);
        Int32Tensor out = matmulDiffPlan(plan, wt, &prev);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_DiffGemmSparse)
    ->Args({90, 9})
    ->Args({70, 25})
    ->Args({0, 0});

/** Dense diff baseline on the same mixes: full int16 GEMM + add. */
void
BM_DiffGemmDense(benchmark::State &state)
{
    const int64_t n = 256;
    const Int16Tensor diff =
        makeMixDiff(n, n, static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(1)), 40);
    const Int8Tensor w = randomInt8(n, n, 41);
    Rng rng(42);
    Int32Tensor prev(Shape{n, n});
    prev.fillUniformInt(rng, -100000, 100000);
    for (auto _ : state) {
        Int32Tensor out =
            addInt32(prev, matmulTransposedDiffInt16(diff, w));
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_DiffGemmDense)
    ->Args({90, 9})
    ->Args({70, 25})
    ->Args({0, 0});

/**
 * Dense int8 direct baseline at the diff-GEMM shape: what a
 * QuantDirect step pays for the same layer. The acceptance target is
 * sparse-diff >= 2x over this at a >= 70% zero+low4 mix.
 */
void
BM_DiffGemmInt8Direct(benchmark::State &state)
{
    const int64_t n = 256;
    const Int8Tensor x = randomInt8(n, n, 43);
    const Int8Tensor w = randomInt8(n, n, 41);
    for (auto _ : state) {
        Int32Tensor out = matmulTransposedInt8(x, w);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_DiffGemmInt8Direct);

/** Software Encoding Unit alone (plan construction cost). */
void
BM_DiffGemmEncode(benchmark::State &state)
{
    const int64_t n = 256;
    const Int16Tensor diff =
        makeMixDiff(n, n, static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(1)), 40);
    for (auto _ : state) {
        DiffGemmPlan plan = encodeDiff(diff);
        benchmark::DoNotOptimize(plan.panels.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_DiffGemmEncode)->Args({90, 9})->Args({70, 25});

/**
 * End-to-end MiniUnet rollout wall-clock, QuantDirect vs QuantDitto:
 * the paper's claim that difference processing is faster, measured in
 * software. Arg: 1 = Ditto.
 */
void
BM_MiniUnetRollout(benchmark::State &state)
{
    MiniUnetConfig cfg;
    cfg.channels = 32;
    cfg.resolution = 16;
    cfg.steps = 8;
    const CompiledModel net = compile(miniUnetSpec(cfg));
    const RunMode mode =
        state.range(0) ? RunMode::QuantDitto : RunMode::QuantDirect;
    for (auto _ : state) {
        RolloutResult r = net.rollout(mode);
        benchmark::DoNotOptimize(r.finalImage.data().data());
    }
    state.SetItemsProcessed(state.iterations() * cfg.steps);
}
BENCHMARK(BM_MiniUnetRollout)->Arg(0)->Arg(1);

/** Shared serving-shape model for the batched rollout benchmarks. */
const CompiledModel &
servingNet()
{
    static const CompiledModel *net = [] {
        MiniUnetConfig cfg;
        cfg.channels = 16;
        cfg.resolution = 8;
        cfg.steps = 8;
        return new CompiledModel(compile(miniUnetSpec(cfg)));
    }();
    return *net;
}

/**
 * Batched rollout throughput at the serving shape: N concurrent
 * QuantDitto requests through CompiledModel::rolloutBatch. Arg: batch size
 * (1 = the sequential baseline; the acceptance comparison is
 * items_per_second at batch 8 vs batch 1). Results are bitwise
 * identical across batch sizes — the batch changes wall-clock only.
 */
void
BM_BatchedRollout(benchmark::State &state)
{
    const int64_t batch = state.range(0);
    const CompiledModel &net = servingNet();
    std::vector<FloatTensor> noises;
    for (int64_t b = 0; b < batch; ++b)
        noises.push_back(net.requestNoise(static_cast<uint64_t>(b + 1)));
    for (auto _ : state) {
        std::vector<RolloutResult> results =
            net.rolloutBatch(RunMode::QuantDitto, noises);
        benchmark::DoNotOptimize(results.data());
    }
    // Throughput in rollouts (requests) per second.
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BatchedRollout)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->UseRealTime();

/**
 * End-to-end serving latency: a burst of `batch` requests through the
 * async DenoiseServer (queue, batch formation, continuous batching).
 * Reports per-request latency percentiles as counters alongside the
 * burst wall-clock.
 */
void
BM_ServeLatency(benchmark::State &state)
{
    const int64_t batch = state.range(0);
    const CompiledModel &net = servingNet();
    ServerConfig cfg;
    cfg.maxBatch = batch;
    cfg.maxWaitMicros = 2000;
    cfg.workers = 1;
    std::vector<double> latencies;
    for (auto _ : state) {
        DenoiseServer server(net, cfg);
        std::vector<uint64_t> ids;
        for (int64_t b = 0; b < batch; ++b) {
            DenoiseRequest req;
            req.seed = static_cast<uint64_t>(b + 1);
            ids.push_back(server.submit(req));
        }
        for (uint64_t id : ids) {
            DenoiseResult res = server.wait(id);
            latencies.push_back(res.queueMicros + res.serviceMicros);
            benchmark::DoNotOptimize(res.image.data().data());
        }
    }
    std::sort(latencies.begin(), latencies.end());
    state.counters["p50_us"] = latencies[latencies.size() / 2];
    state.counters["p95_us"] = latencies[latencies.size() * 95 / 100];
    state.counters["p99_us"] = latencies[latencies.size() * 99 / 100];
    // The rollouts run on the server's worker threads, so the bench
    // thread's CPU time is meaningless — report wall-clock rates.
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ServeLatency)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->UseRealTime();

/**
 * Overload-regime serving: open-loop arrivals at a multiple of the
 * engine's service rate against a small bounded queue, with the shed
 * watermarks inside it. Exercises the hardening path end to end:
 * admission rejections, shedding (BestEffort rejected, Standard
 * degraded) and the class-ordered queue under sustained pressure.
 *
 * Args: {maxBatch, overload factor}. Factor 1 approximates the
 * critically loaded regime; factor >= 2 is the acceptance regime
 * (arrival rate at least twice the service rate). Counters report the
 * highest class's latency (p50/p95_us over Interactive completions),
 * the overall rejection fraction and the degraded fraction — under
 * overload the rejection fraction must be positive (the queue is
 * bounded) while Interactive latency stays near its uncontended value.
 */
void
BM_ServeOverload(benchmark::State &state)
{
    const int64_t batch = state.range(0);
    const int64_t factor = state.range(1);
    const CompiledModel &net = servingNet();
    // Estimate the service rate once: requests/second one engine
    // sustains at this batch size.
    const auto c0 = std::chrono::steady_clock::now();
    {
        RolloutResult r = net.rollout(RunMode::QuantDitto);
        benchmark::DoNotOptimize(r.finalImage.data().data());
    }
    const double rollout_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      c0)
            .count();
    const double service_rate =
        static_cast<double>(batch) / std::max(rollout_s, 1e-6);
    const double arrival_rate =
        service_rate * static_cast<double>(factor);

    ServerConfig cfg;
    cfg.maxBatch = batch;
    cfg.maxWaitMicros = 500;
    cfg.workers = 1;
    cfg.queueCapacity = 16; // bounded: overload must shed, not grow
    const int64_t kArrivals = 48;
    std::vector<double> interactive_us;
    uint64_t total = 0, rejected = 0, degraded = 0;
    for (auto _ : state) {
        DenoiseServer server(net, cfg);
        std::vector<uint64_t> ids;
        const auto gap = std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(1.0 / arrival_rate));
        auto next = std::chrono::steady_clock::now();
        for (int64_t i = 0; i < kArrivals; ++i) {
            DenoiseRequest req;
            req.seed = static_cast<uint64_t>(i + 1);
            req.slo = i % 4 == 0 ? SloClass::Interactive
                      : i % 4 == 3 ? SloClass::BestEffort
                                   : SloClass::Standard;
            ids.push_back(server.submit(req));
            next += gap;
            std::this_thread::sleep_until(next);
        }
        for (int64_t i = 0; i < kArrivals; ++i) {
            DenoiseResult res = server.wait(ids[static_cast<size_t>(i)]);
            ++total;
            if (res.status == RequestStatus::Rejected)
                ++rejected;
            if (res.degraded)
                ++degraded;
            if (res.status == RequestStatus::Done &&
                res.slo == SloClass::Interactive)
                interactive_us.push_back(res.queueMicros +
                                         res.serviceMicros);
            benchmark::DoNotOptimize(res.steps);
        }
    }
    std::sort(interactive_us.begin(), interactive_us.end());
    state.counters["p50_us"] =
        interactive_us.empty()
            ? 0.0
            : interactive_us[interactive_us.size() / 2];
    state.counters["p95_us"] =
        interactive_us.empty()
            ? 0.0
            : interactive_us[interactive_us.size() * 95 / 100];
    state.counters["reject_pct"] =
        total ? 100.0 * static_cast<double>(rejected) /
                    static_cast<double>(total)
              : 0.0;
    state.counters["degraded_pct"] =
        total ? 100.0 * static_cast<double>(degraded) /
                    static_cast<double>(total)
              : 0.0;
    state.SetItemsProcessed(state.iterations() * kArrivals);
}
BENCHMARK(BM_ServeOverload)
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({8, 2})
    ->UseRealTime();

/**
 * Inter-request reuse under redundant traffic: bursts of requests
 * where `dup_pct` percent repeat one of a small pool of
 * (seed, conditioning) identities and the rest are unique. One server
 * (and its reuse cache) persists across iterations, so duplicate
 * arrivals warm-start from checkpoints left by earlier requests of
 * the same identity — exactly the production pattern the cache
 * targets (docs/reuse_cache.md).
 *
 * Arg: duplicate percentage (0 = all-unique baseline; the acceptance
 * comparison is p50_us at 90 vs 0). Counters report per-request
 * latency percentiles plus the cache's cumulative hit rate and saved
 * steps. Warm results are bitwise identical to cold — the cache
 * changes wall-clock only.
 */
void
BM_ServeReuse(benchmark::State &state)
{
    const int64_t dup_pct = state.range(0);
    const CompiledModel &net = servingNet();
    ServerConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxWaitMicros = 500;
    cfg.workers = 1;
    cfg.reuse.capBytes = 64ll << 20;
    cfg.reuse.checkpointEvery = 2;
    DenoiseServer server(net, cfg);
    const int64_t kArrivals = 32, kPool = 4;
    std::vector<double> latencies;
    uint64_t fresh_seed = 1;
    for (auto _ : state) {
        std::vector<uint64_t> ids;
        for (int64_t i = 0; i < kArrivals; ++i) {
            DenoiseRequest req;
            // Deterministic mix: i*100/kArrivals sweeps 0..100, so
            // dup_pct percent of each burst hits the identity pool.
            if (i * 100 / kArrivals < dup_pct) {
                req.seed = 1'000'000 + static_cast<uint64_t>(i % kPool);
                req.conditioning =
                    0xD151'C0DEull + static_cast<uint64_t>(i % kPool);
            } else {
                req.seed = fresh_seed++;
            }
            ids.push_back(server.submit(req));
        }
        for (uint64_t id : ids) {
            DenoiseResult res = server.wait(id);
            latencies.push_back(res.queueMicros + res.serviceMicros);
            benchmark::DoNotOptimize(res.image.data().data());
        }
    }
    std::sort(latencies.begin(), latencies.end());
    state.counters["p50_us"] = latencies[latencies.size() / 2];
    state.counters["p95_us"] = latencies[latencies.size() * 95 / 100];
    const ServeMetrics sm = server.metrics();
    state.counters["hit_rate"] = sm.reuseHitRate();
    state.counters["steps_saved"] =
        static_cast<double>(sm.reuseStepsSaved);
    state.SetItemsProcessed(state.iterations() * kArrivals);
}
BENCHMARK(BM_ServeReuse)->Arg(0)->Arg(50)->Arg(90)->UseRealTime();

/**
 * Scale-out serving tier: N in-process shard workers behind the
 * front-door router, speaking the real wire protocol over Unix-domain
 * sockets (src/shard/). Bursts of requests go through
 * ShardRouter::submit/wait exactly as a remote client's would through
 * the front door, so the measurement includes framing, routing and
 * per-RPC socket round trips — the true tier overhead, not a
 * function-call approximation.
 *
 * Args: {workers, dup_pct}. dup_pct = 0 is the all-unique scaling
 * row (the acceptance comparison is items_per_second at workers N vs
 * workers 1, expected >= 0.8*N on an N-core host — on fewer cores the
 * workers contend for the same CPU and the ratio records that
 * honestly); dup_pct = 90 measures prefix-affinity routing keeping
 * the per-worker reuse caches warm (hit_rate counter).
 * tools/run_shard_scaling.sh appends the multi-process variant of the
 * workers sweep to BENCH_kernels.json.
 */
void
BM_ShardRouter(benchmark::State &state)
{
    const int64_t workers = state.range(0);
    const int64_t dup_pct = state.range(1);
    const CompiledModel &net = servingNet();
    ServerConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxWaitMicros = 500;
    cfg.workers = 1;
    cfg.queueCapacity = 256;
    cfg.reuse.capBytes = 64ll << 20;
    cfg.reuse.checkpointEvery = 2;

    std::vector<std::unique_ptr<shard::ShardWorker>> tier;
    shard::ShardRouter router;
    for (int64_t i = 0; i < workers; ++i) {
        char path[96];
        std::snprintf(path, sizeof path, "/tmp/ditto_bm_%d_%lld_%lld.sock",
                      static_cast<int>(getpid()),
                      static_cast<long long>(workers * 1000 + dup_pct),
                      static_cast<long long>(i));
        std::remove(path);
        tier.push_back(std::make_unique<shard::ShardWorker>(
            net, path, cfg));
        std::string why;
        if (!tier.back()->start(&why) || !router.addWorker(path, &why)) {
            state.SkipWithError(why.c_str());
            return;
        }
    }

    const int64_t kArrivals = 32, kPool = 4;
    std::vector<double> latencies;
    uint64_t fresh_seed = 1;
    for (auto _ : state) {
        std::vector<uint64_t> gids;
        for (int64_t i = 0; i < kArrivals; ++i) {
            DenoiseRequest req;
            if (i * 100 / kArrivals < dup_pct) {
                req.seed = 2'000'000 + static_cast<uint64_t>(i % kPool);
                req.conditioning =
                    0x5AD'C0DEull + static_cast<uint64_t>(i % kPool);
            } else {
                req.seed = fresh_seed++;
            }
            gids.push_back(router.submit(req));
        }
        for (uint64_t gid : gids) {
            DenoiseResult res = router.wait(gid);
            latencies.push_back(res.queueMicros + res.serviceMicros);
            benchmark::DoNotOptimize(res.image.data().data());
        }
    }
    std::sort(latencies.begin(), latencies.end());

    // Cross-worker reuse roll-up straight off the merged export.
    const std::string json = router.metricsJson();
    const auto scrape = [&json](const char *key) -> double {
        const std::string needle = std::string("\"") + key + "\":";
        const size_t at = json.find(needle);
        if (at == std::string::npos)
            return 0.0;
        return std::atof(json.c_str() + at + needle.size());
    };
    const double hits = scrape("hits"), misses = scrape("misses");
    state.counters["p95_us"] = latencies[latencies.size() * 95 / 100];
    state.counters["workers"] = static_cast<double>(workers);
    state.counters["hit_rate"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    state.counters["resubmitted"] = scrape("resubmitted");
    state.SetItemsProcessed(state.iterations() * kArrivals);
}
BENCHMARK(BM_ShardRouter)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({1, 90})
    ->Args({2, 90})
    ->UseRealTime();

/**
 * Graph-runtime rollouts per compiled preset spec, QuantDirect vs
 * QuantDitto. Arg 0 selects the spec (0 = the MiniUnet preset at the
 * quickstart shape, 1 = the deep multi-scale UNet, 2 = the DiT-style
 * block, 3 = the multi-head attention block, 4 = the adaLN block);
 * Arg 1 = 1 runs Ditto difference processing. The MiniUnet rows
 * measure the compiled path on exactly the workload
 * BM_MiniUnetRollout measures through the wrapper — the two should
 * track each other. tools/check_bench_regression.py compares the
 * per-spec ditto/direct ratios of these rows against the committed
 * BENCH_kernels.json baseline.
 */
const CompiledModel &
compiledSpec(int which)
{
    static const CompiledModel *models[5] = {};
    if (!models[which]) {
        switch (which) {
          case 0: {
            MiniUnetConfig cfg;
            cfg.channels = 32;
            cfg.resolution = 16;
            cfg.steps = 8;
            models[0] = new CompiledModel(compile(miniUnetSpec(cfg)));
            break;
          }
          case 1: {
            DeepUnetConfig cfg;
            cfg.baseChannels = 16;
            cfg.resolution = 16;
            cfg.steps = 8;
            models[1] = new CompiledModel(compile(deepUnetSpec(cfg)));
            break;
          }
          case 2: {
            DitBlockConfig cfg;
            cfg.embedDim = 32;
            cfg.resolution = 16;
            cfg.steps = 8;
            models[2] = new CompiledModel(compile(ditBlockSpec(cfg)));
            break;
          }
          case 3: {
            MhsaBlockConfig cfg;
            cfg.embedDim = 32;
            cfg.heads = 2;
            cfg.resolution = 16;
            cfg.steps = 8;
            models[3] = new CompiledModel(compile(mhsaBlockSpec(cfg)));
            break;
          }
          default: {
            DitAdaLnConfig cfg;
            cfg.embedDim = 32;
            cfg.resolution = 16;
            cfg.steps = 8;
            models[4] = new CompiledModel(compile(ditAdaLnSpec(cfg)));
            break;
          }
        }
    }
    return *models[which];
}

void
BM_CompiledRollout(benchmark::State &state)
{
    const CompiledModel &model =
        compiledSpec(static_cast<int>(state.range(0)));
    const RunMode mode =
        state.range(1) ? RunMode::QuantDitto : RunMode::QuantDirect;
    for (auto _ : state) {
        RolloutResult r = model.rollout(mode);
        benchmark::DoNotOptimize(r.finalImage.data().data());
    }
    state.SetItemsProcessed(state.iterations() * model.defaultSteps());
    state.SetLabel(model.spec().name +
                   (state.range(1) ? "/ditto" : "/direct"));
}
BENCHMARK(BM_CompiledRollout)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({4, 0})
    ->Args({4, 1});

/**
 * ApproxDitto rollouts per preset across skip thresholds, charting
 * the speed-vs-fidelity trade against the exact QuantDitto rows of
 * BM_CompiledRollout above (same specs, same shapes). Arg 0 selects
 * the spec as in BM_CompiledRollout; Arg 1 is the skip threshold in
 * percent (50 = the setApproxPolicy default). Each row
 * records end-to-end fidelity against the exact rollout — psnr_db
 * (clamped to 99 so exact matches stay finite in the JSON), cosine —
 * plus the block skips taken and the fraction of output elements
 * replayed from the previous step. Fidelity is computed once outside
 * the timing loop; the timed region is the plain approximate rollout.
 */
void
BM_ApproxRollout(benchmark::State &state)
{
    CompiledModel model = compiledSpec(static_cast<int>(state.range(0)));
    const double thresh = static_cast<double>(state.range(1)) / 100.0;
    model.setApproxPolicy(thresh, model.approxMaxConsec());
    for (auto _ : state) {
        RolloutResult r = model.rollout(RunMode::ApproxDitto);
        benchmark::DoNotOptimize(r.finalImage.data().data());
    }
    const RolloutResult r = model.rolloutWithFidelity(RunMode::ApproxDitto);
    int64_t skips = 0;
    for (int64_t s : r.nodeSkips)
        skips += s;
    int64_t out_elems = 0;
    for (const CompiledModel::NodeReport &rep : model.nodeReports())
        if (rep.compute)
            out_elems += rep.outElems;
    const int64_t total = out_elems * model.defaultSteps();
    state.counters["psnr_db"] =
        r.fidelity.exact() ? 99.0 : std::min(r.fidelity.psnrDb, 99.0);
    state.counters["cosine"] = r.fidelity.cosine;
    state.counters["block_skips"] = static_cast<double>(skips);
    state.counters["reused_frac"] =
        total > 0
            ? static_cast<double>(r.dittoOps.reusedElems) / total
            : 0.0;
    state.SetItemsProcessed(state.iterations() * model.defaultSteps());
    char label[64];
    std::snprintf(label, sizeof label, "%s/approx@%.2f",
                  model.spec().name.c_str(), thresh);
    state.SetLabel(label);
}
BENCHMARK(BM_ApproxRollout)
    ->Args({0, 25})
    ->Args({0, 50})
    ->Args({0, 75})
    ->Args({1, 25})
    ->Args({1, 50})
    ->Args({1, 75})
    ->Args({2, 25})
    ->Args({2, 50})
    ->Args({2, 75})
    ->Args({3, 25})
    ->Args({3, 50})
    ->Args({3, 75})
    ->Args({4, 25})
    ->Args({4, 50})
    ->Args({4, 75});

void
BM_EncodingUnit(benchmark::State &state)
{
    const int64_t elems = state.range(0);
    MixtureSampler sampler(calibratedParams(ModelId::DDPM), 5);
    const auto seq = sampler.sampleSequence(elems, 2);
    const QuantParams qp = chooseDynamicScale(seq[0]);
    const Int8Tensor prev = quantize(seq[0], qp);
    const Int8Tensor cur = quantize(seq[1], qp);
    const EncodingUnit eu;
    for (auto _ : state) {
        EncodedStream s = eu.encodeTemporal(cur, prev);
        benchmark::DoNotOptimize(s.lanes.data());
    }
    state.SetItemsProcessed(state.iterations() * elems);
}
BENCHMARK(BM_EncodingUnit)->Arg(1 << 12)->Arg(1 << 16);

void
BM_AdderTreePe(benchmark::State &state)
{
    const int64_t elems = state.range(0);
    MixtureSampler sampler(calibratedParams(ModelId::SDM), 6);
    const auto seq = sampler.sampleSequence(elems, 2);
    const QuantParams qp = chooseDynamicScale(seq[0]);
    const Int8Tensor prev = quantize(seq[0], qp);
    const Int8Tensor cur = quantize(seq[1], qp);
    const Int8Tensor weights = randomInt8(elems, 1, 7);
    const EncodingUnit eu;
    const EncodedStream stream = eu.encodeTemporal(cur, prev);
    const AdderTreePe pe;
    for (auto _ : state) {
        PeRunResult r = pe.run(stream, [&](int32_t i) {
            return weights.at(i);
        });
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * elems);
}
BENCHMARK(BM_AdderTreePe)->Arg(1 << 12)->Arg(1 << 16);

void
BM_Conv2dInt8(benchmark::State &state)
{
    const int64_t ch = state.range(0);
    Rng rng(8);
    Int8Tensor input(Shape{1, ch, 16, 16});
    input.fillUniformInt(rng, -127, 127);
    Int8Tensor weight(Shape{ch, ch, 3, 3});
    weight.fillUniformInt(rng, -127, 127);
    const Conv2dParams p{ch, ch, 3, 1, 1};
    for (auto _ : state) {
        Int32Tensor out = conv2dInt8(input, weight, p);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * ch * ch * 9 * 16 * 16);
}
BENCHMARK(BM_Conv2dInt8)->Arg(16)->Arg(32);

void
BM_Conv2dInt8Naive(benchmark::State &state)
{
    const int64_t ch = state.range(0);
    Rng rng(8);
    Int8Tensor input(Shape{1, ch, 16, 16});
    input.fillUniformInt(rng, -127, 127);
    Int8Tensor weight(Shape{ch, ch, 3, 3});
    weight.fillUniformInt(rng, -127, 127);
    const Conv2dParams p{ch, ch, 3, 1, 1};
    for (auto _ : state) {
        Int32Tensor out = naive::conv2dInt8(input, weight, p);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * ch * ch * 9 * 16 * 16);
}
BENCHMARK(BM_Conv2dInt8Naive)->Arg(16)->Arg(32);

void
BM_Conv2dFloat(benchmark::State &state)
{
    const int64_t ch = state.range(0);
    const FloatTensor input = randomFloat(Shape{1, ch, 32, 32}, 9);
    const FloatTensor weight = randomFloat(Shape{ch, ch, 3, 3}, 10);
    const Conv2dParams p{ch, ch, 3, 1, 1};
    for (auto _ : state) {
        FloatTensor out = conv2d(input, weight, nullptr, p);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * ch * ch * 9 * 32 * 32);
}
BENCHMARK(BM_Conv2dFloat)->Arg(16)->Arg(32)->Arg(64);

void
BM_Conv2dFloatNaive(benchmark::State &state)
{
    const int64_t ch = state.range(0);
    const FloatTensor input = randomFloat(Shape{1, ch, 32, 32}, 9);
    const FloatTensor weight = randomFloat(Shape{ch, ch, 3, 3}, 10);
    const Conv2dParams p{ch, ch, 3, 1, 1};
    for (auto _ : state) {
        FloatTensor out = naive::conv2d(input, weight, nullptr, p);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * ch * ch * 9 * 32 * 32);
}
BENCHMARK(BM_Conv2dFloatNaive)->Arg(16)->Arg(32)->Arg(64);

void
BM_GroupNorm(benchmark::State &state)
{
    const int64_t ch = state.range(0);
    const FloatTensor x = randomFloat(Shape{1, ch, 32, 32}, 11);
    for (auto _ : state) {
        FloatTensor out = groupNorm(x, 2);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * ch * 32 * 32);
}
BENCHMARK(BM_GroupNorm)->Arg(32)->Arg(128);

void
BM_GroupNormNaive(benchmark::State &state)
{
    const int64_t ch = state.range(0);
    const FloatTensor x = randomFloat(Shape{1, ch, 32, 32}, 11);
    for (auto _ : state) {
        FloatTensor out = naive::groupNorm(x, 2);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * ch * 32 * 32);
}
BENCHMARK(BM_GroupNormNaive)->Arg(32)->Arg(128);

} // namespace

/**
 * Custom main: always mirror results into a JSON file (default
 * BENCH_kernels.json, --benchmark_out overrides) with the worker
 * thread count recorded in the context, so every CI run leaves a
 * machine-readable record of the kernel perf trajectory.
 */
int
main(int argc, char **argv)
{
    benchmark::AddCustomContext("ditto_num_threads",
                                std::to_string(ditto::threadCount()));
    benchmark::AddCustomContext(
        "ditto_simd", ditto::simd::levelName(ditto::simd::activeLevel()));
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        // Exact flag or --benchmark_out=...; must not match
        // --benchmark_out_format, which alone should not disable the
        // default JSON emission.
        if (arg == "--benchmark_out" ||
            arg.rfind("--benchmark_out=", 0) == 0) {
            has_out = true;
        }
    }
    std::vector<char *> args(argv, argv + argc);
    std::string out_flag = "--benchmark_out=BENCH_kernels.json";
    std::string fmt_flag = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
