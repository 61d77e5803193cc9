/**
 * @file
 * Batched denoising server demo.
 *
 * Submits a burst of denoising requests with mixed seeds, step counts
 * and modes to a DenoiseServer, waits for the results, verifies every
 * image is bitwise identical to the request's standalone sequential
 * rollout (the serving guarantee), and prints throughput plus the
 * server's batching statistics.
 *
 *   ./serve_demo [num_requests] [max_batch]
 *
 * Knobs: DITTO_SERVE_MAX_BATCH / DITTO_SERVE_MAX_WAIT_US /
 * DITTO_SERVE_WORKERS (see docs/config.md), DITTO_NUM_THREADS for the
 * kernel pool.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "runtime/compiled.h"
#include "runtime/presets.h"
#include "serve/server.h"

using namespace ditto;

int
main(int argc, char **argv)
{
    const int num_requests =
        argc > 1 ? std::max(1, std::atoi(argv[1])) : 16;
    ServerConfig scfg = ServerConfig::fromEnv();
    if (argc > 2)
        scfg.maxBatch = std::max<int64_t>(1, std::atoll(argv[2]));

    MiniUnetConfig cfg;
    cfg.channels = 16;
    cfg.resolution = 8;
    cfg.steps = 8;
    const CompiledModel net = compile(miniUnetSpec(cfg));

    std::printf("MiniUnet: %lld channels, %lldx%lld, %d steps\n",
                static_cast<long long>(cfg.channels),
                static_cast<long long>(cfg.resolution),
                static_cast<long long>(cfg.resolution), cfg.steps);
    std::printf("server: max batch %lld, wait window %lld us, "
                "%d worker(s)\n\n",
                static_cast<long long>(scfg.maxBatch),
                static_cast<long long>(scfg.maxWaitMicros),
                scfg.workers);

    // Sequential baseline: the same requests one at a time.
    std::vector<DenoiseRequest> requests;
    for (int i = 0; i < num_requests; ++i) {
        DenoiseRequest req;
        req.seed = 1000 + static_cast<uint64_t>(i);
        req.steps = cfg.steps - static_cast<int>(i % 3); // mixed steps
        req.mode = i % 5 == 4 ? RunMode::QuantDirect : RunMode::QuantDitto;
        requests.push_back(req);
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<RolloutResult> sequential;
    for (const DenoiseRequest &req : requests)
        sequential.push_back(net.rollout(req.mode,
                                         net.requestNoise(req.seed),
                                         req.steps));
    const double seq_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

    // The same burst through the batched server.
    const auto t1 = std::chrono::steady_clock::now();
    double p50 = 0, p95 = 0;
    ServeMetrics metrics;
    size_t exact = 0;
    {
        DenoiseServer server(net, scfg);
        std::vector<uint64_t> ids;
        for (const DenoiseRequest &req : requests)
            ids.push_back(server.submit(req));
        std::vector<double> latencies;
        for (size_t i = 0; i < ids.size(); ++i) {
            DenoiseResult res = server.wait(ids[i]);
            latencies.push_back(res.queueMicros + res.serviceMicros);
            if (sequential[i].finalImage == res.image)
                ++exact;
        }
        std::sort(latencies.begin(), latencies.end());
        p50 = latencies[latencies.size() / 2];
        p95 = latencies[latencies.size() * 95 / 100];
        metrics = server.metrics();
    }
    const double srv_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t1)
                             .count();

    std::printf("sequential       : %7.2f ms (%.1f req/s)\n",
                seq_s * 1e3, num_requests / seq_s);
    std::printf("batched server   : %7.2f ms (%.1f req/s, %.2fx)\n",
                srv_s * 1e3, num_requests / srv_s, seq_s / srv_s);
    std::printf("latency          : p50 %.2f ms, p95 %.2f ms\n",
                p50 / 1e3, p95 / 1e3);
    std::printf("batch occupancy  : %.2f requests/step over %llu steps, "
                "%llu batch(es) formed\n",
                metrics.avgOccupancy(),
                static_cast<unsigned long long>(metrics.steps),
                static_cast<unsigned long long>(metrics.batchesFormed));
    std::printf("bitwise vs sequential rollouts : %zu/%d %s\n", exact,
                num_requests,
                exact == static_cast<size_t>(num_requests)
                    ? "bit-exact"
                    : "MISMATCH");
    return exact == static_cast<size_t>(num_requests) ? 0 : 1;
}
