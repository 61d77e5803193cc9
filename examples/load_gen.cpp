/**
 * @file
 * Open-loop Poisson load generator for the denoising server.
 *
 * Drives a DenoiseServer with exponentially distributed inter-arrival
 * times at a configurable rate and SLO-class mix — open-loop: arrivals
 * do not wait for completions, so pushing the rate past the service
 * rate exercises the hardening path (bounded queue, shedding,
 * deadlines) instead of just slowing the client down. Prints a
 * per-class latency/outcome table and the server's metrics JSON.
 *
 *   ./load_gen [--rate R] [--duration SEC] [--mix I:S:B]
 *              [--deadline-us D] [--steps N] [--seed K]
 *              [--dup-frac P] [--prefix-pool N]
 *              [--router SOCK[,SOCK...]] [--drain]
 *
 *   --rate        arrivals per second (default 100)
 *   --duration    seconds of traffic (default 2)
 *   --mix         per-class arrival weights Interactive:Standard:
 *                 BestEffort (default 1:2:1)
 *   --deadline-us per-request deadline budget, -1 none (default -1)
 *   --steps       steps per request, 0 = model default (default 0)
 *   --seed        arrival-process seed (default 1)
 *   --dup-frac    fraction of arrivals drawn from a fixed pool of
 *                 (seed, conditioning) identities instead of fresh
 *                 ones (default 0) — redundant production traffic
 *                 for the inter-request reuse cache
 *                 (docs/reuse_cache.md)
 *   --prefix-pool size of that identity pool (default 8)
 *   --router      drive a shard tier instead of an in-process server:
 *                 an embedded ShardRouter (src/shard/router.h) over
 *                 the given comma-separated worker sockets. Affinity
 *                 routing, failover and cold resubmission apply; a
 *                 worker killed mid-run costs throughput, not
 *                 completions (docs/sharding.md)
 *   --drain       after all results are in, drain every worker
 *                 (router mode; workers then exit 0)
 *
 * Server knobs come from the environment (docs/config.md):
 * DITTO_SERVE_MAX_BATCH, DITTO_SERVE_WORKERS, DITTO_SERVE_QUEUE_CAP,
 * DITTO_SERVE_SHED_HIGH/LOW/STEPS, DITTO_SERVE_ADMIT_BLOCK_US,
 * DITTO_REUSE_CAP_BYTES (enables warm starts for duplicate
 * identities) — and DITTO_FAULT_POINTS turns a load run into a chaos
 * run.
 *
 * Exits 0 when at least one request completed; rejections and
 * timeouts are expected outcomes under overload, not errors.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/compiled.h"
#include "runtime/presets.h"
#include "serve/server.h"
#include "shard/router.h"

using namespace ditto;

namespace {

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        const size_t comma = s.find(',', start);
        const size_t end = comma == std::string::npos ? s.size() : comma;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(q * static_cast<double>(sorted.size())));
    return sorted[idx];
}

struct ClassTally
{
    uint64_t submitted = 0;
    uint64_t done = 0;
    uint64_t rejected = 0;
    uint64_t timedOut = 0;
    uint64_t degraded = 0;
    uint64_t preemptions = 0;
    std::vector<double> e2eUs; //!< Done requests only
};

} // namespace

int
main(int argc, char **argv)
{
    double rate = 100.0, duration = 2.0;
    double mix[kNumSloClasses] = {1.0, 2.0, 1.0};
    int64_t deadline_us = -1;
    int steps = 0;
    uint64_t seed = 1;
    double dup_frac = 0.0;
    int prefix_pool = 8;
    std::string routerSockets;
    bool drain = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--rate") {
            rate = std::atof(value());
        } else if (arg == "--duration") {
            duration = std::atof(value());
        } else if (arg == "--deadline-us") {
            deadline_us = std::atoll(value());
        } else if (arg == "--steps") {
            steps = std::atoi(value());
        } else if (arg == "--seed") {
            seed = static_cast<uint64_t>(std::atoll(value()));
        } else if (arg == "--dup-frac") {
            dup_frac = std::atof(value());
        } else if (arg == "--prefix-pool") {
            prefix_pool = std::atoi(value());
        } else if (arg == "--router") {
            routerSockets = value();
        } else if (arg == "--drain") {
            drain = true;
        } else if (arg == "--mix") {
            if (std::sscanf(value(), "%lf:%lf:%lf", &mix[0], &mix[1],
                            &mix[2]) != 3) {
                std::fprintf(stderr, "--mix wants I:S:B weights\n");
                return 2;
            }
        } else {
            std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
            return 2;
        }
    }
    if (rate <= 0.0 || duration <= 0.0 ||
        mix[0] + mix[1] + mix[2] <= 0.0) {
        std::fprintf(stderr, "rate, duration and the mix sum must be "
                             "positive\n");
        return 2;
    }
    if (dup_frac < 0.0 || dup_frac > 1.0 || prefix_pool < 1) {
        std::fprintf(stderr, "--dup-frac wants 0..1 and --prefix-pool "
                             "a positive pool size\n");
        return 2;
    }

    std::printf("load_gen: %.0f req/s for %.1fs, mix %g:%g:%g, "
                "deadline %lld us\n",
                rate, duration, mix[0], mix[1], mix[2],
                static_cast<long long>(deadline_us));

    // Backend: an in-process DenoiseServer by default, or an embedded
    // ShardRouter over external worker processes with --router.
    std::unique_ptr<CompiledModel> net;
    std::unique_ptr<DenoiseServer> server;
    std::unique_ptr<shard::ShardRouter> router;
    if (!routerSockets.empty()) {
        router = std::make_unique<shard::ShardRouter>();
        for (const std::string &path : splitCommas(routerSockets)) {
            std::string why;
            if (!router->addWorker(path, &why)) {
                std::fprintf(stderr, "load_gen: %s\n", why.c_str());
                return 1;
            }
        }
        std::printf("router: %d worker(s)\n\n", router->numWorkers());
    } else {
        MiniUnetConfig cfg;
        cfg.channels = 16;
        cfg.resolution = 8;
        cfg.steps = 8;
        net = std::make_unique<CompiledModel>(compile(miniUnetSpec(cfg)));
        const ServerConfig scfg = ServerConfig::fromEnv();
        std::printf("server: max batch %lld, %d worker(s), queue cap "
                    "%lld, shed high/low %lld/%lld\n\n",
                    static_cast<long long>(scfg.maxBatch), scfg.workers,
                    static_cast<long long>(scfg.queueCapacity),
                    static_cast<long long>(scfg.effectiveShedHigh()),
                    static_cast<long long>(scfg.effectiveShedLow()));
        server = std::make_unique<DenoiseServer>(*net, scfg);
    }
    const auto submitReq = [&](const DenoiseRequest &req) {
        return router ? router->submit(req) : server->submit(req);
    };
    const auto waitResult = [&](uint64_t id) {
        return router ? router->wait(id) : server->wait(id);
    };
    Rng rng = Rng::fromKeys(seed, 0x10adu);
    const double mix_sum = mix[0] + mix[1] + mix[2];

    // Open-loop Poisson arrivals against an absolute schedule: a slow
    // submit (blocking admission) delays later arrivals' wall-clock,
    // but the schedule itself never adapts to the server.
    std::vector<uint64_t> ids;
    std::vector<SloClass> classes;
    const auto t0 = std::chrono::steady_clock::now();
    const auto end = t0 + std::chrono::duration<double>(duration);
    auto next = t0;
    uint64_t n = 0;
    while (true) {
        const double u = rng.uniform();
        next += std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(-std::log1p(-u) / rate));
        if (next >= end)
            break;
        std::this_thread::sleep_until(next);
        const double pick = rng.uniform() * mix_sum;
        const SloClass slo = pick < mix[0] ? SloClass::Interactive
                             : pick < mix[0] + mix[1]
                                 ? SloClass::Standard
                                 : SloClass::BestEffort;
        DenoiseRequest req;
        // Redundant-traffic model: with probability dup_frac the
        // arrival repeats one of `prefix_pool` fixed identities (pool
        // seeds sit far from the fresh-seed range), so the reuse cache
        // sees real duplicate pressure instead of all-unique misses.
        if (dup_frac > 0.0 && rng.uniform() < dup_frac) {
            const uint64_t pick_id = static_cast<uint64_t>(
                rng.uniform() * static_cast<double>(prefix_pool));
            req.seed = 1'000'000 + pick_id;
            req.conditioning = 0xC0DE'D151ull + pick_id;
        } else {
            req.seed = 1000 + n;
        }
        ++n;
        req.steps = steps;
        req.slo = slo;
        req.deadlineMicros = deadline_us;
        ids.push_back(submitReq(req));
        classes.push_back(slo);
    }

    ClassTally tally[kNumSloClasses];
    for (size_t i = 0; i < ids.size(); ++i) {
        const DenoiseResult res = waitResult(ids[i]);
        ClassTally &t = tally[static_cast<size_t>(classes[i])];
        ++t.submitted;
        t.preemptions += static_cast<uint64_t>(res.preemptions);
        if (res.degraded)
            ++t.degraded;
        switch (res.status) {
          case RequestStatus::Done:
            ++t.done;
            t.e2eUs.push_back(res.queueMicros + res.serviceMicros);
            break;
          case RequestStatus::Rejected:
            ++t.rejected;
            break;
          case RequestStatus::TimedOut:
            ++t.timedOut;
            break;
          default:
            break;
        }
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    uint64_t total_done = 0;
    std::printf("%-12s %9s %6s %7s %8s %9s %11s %11s %11s\n", "class",
                "submitted", "done", "reject", "timeout", "degraded",
                "p50_ms", "p95_ms", "p99_ms");
    for (int c = 0; c < kNumSloClasses; ++c) {
        ClassTally &t = tally[static_cast<size_t>(c)];
        std::sort(t.e2eUs.begin(), t.e2eUs.end());
        std::printf(
            "%-12s %9llu %6llu %7llu %8llu %9llu %11.2f %11.2f "
            "%11.2f\n",
            sloClassName(static_cast<SloClass>(c)),
            static_cast<unsigned long long>(t.submitted),
            static_cast<unsigned long long>(t.done),
            static_cast<unsigned long long>(t.rejected),
            static_cast<unsigned long long>(t.timedOut),
            static_cast<unsigned long long>(t.degraded),
            percentile(t.e2eUs, 0.50) / 1e3,
            percentile(t.e2eUs, 0.95) / 1e3,
            percentile(t.e2eUs, 0.99) / 1e3);
        total_done += t.done;
    }
    std::printf("\n%zu arrivals in %.2fs (%.1f req/s offered, %.1f "
                "req/s completed)\n",
                ids.size(), wall,
                static_cast<double>(ids.size()) / wall,
                static_cast<double>(total_done) / wall);
    if (router) {
        std::printf("\nmetrics: %s\n", router->metricsJson().c_str());
        if (drain) {
            router->drainAll();
            std::printf("drained %d worker(s)\n", router->numWorkers());
        }
    } else {
        const ServeMetrics sm = server->metrics();
        if (sm.reuseHits + sm.reuseMisses > 0)
            std::printf(
                "reuse: %.1f%% hit rate (%llu/%llu lookups), %llu "
                "steps saved, %llu stores, %llu evictions\n",
                100.0 * sm.reuseHitRate(),
                static_cast<unsigned long long>(sm.reuseHits),
                static_cast<unsigned long long>(sm.reuseHits +
                                                sm.reuseMisses),
                static_cast<unsigned long long>(sm.reuseStepsSaved),
                static_cast<unsigned long long>(sm.reuseStores),
                static_cast<unsigned long long>(sm.reuseEvictions));
        std::printf("\nmetrics: %s\n", sm.toJson().c_str());
    }
    if (ids.empty() || total_done == 0) {
        std::fprintf(stderr, "load_gen: no request completed\n");
        return 1;
    }
    return 0;
}
