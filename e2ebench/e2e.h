/**
 * @file
 * Shared types of the end-to-end benchmark (bench_e2e).
 *
 * The benchmark drives the repository's public API from outside:
 * CompiledModel::rollout for the offline workloads, DenoiseServer for
 * open-loop serving and ShardRouter over in-process ShardWorkers for
 * the sharded tier. Every request the load generator sends becomes one
 * Record; the metrics are derived from the records, from server
 * counters read at phase boundaries and, in a traced run, from the
 * spans the benchmark records around each call (spans.h).
 */
#ifndef E2E_E2E_H
#define E2E_E2E_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "serve/request.h"

namespace e2e {

/**
 * The measured window is cut into slices of about this length, and each
 * end-to-end timing is the median of its per-slice values. Hosts shared
 * with other tenants ran 35% slower for spells of a second or more; a
 * median over slices keeps those spells from moving the result.
 */
inline constexpr double kSliceSeconds = 2.0;

/** Slices of a window `us` microseconds long (at least one). */
inline int
sliceCount(double us)
{
    return std::max(1, static_cast<int>(std::lround(us / 1e6 / kSliceSeconds)));
}

/** The presets of BM_CompiledRollout, in its argument order. */
inline constexpr int kNumPresets = 5;
inline constexpr const char *kPresetNames[kNumPresets] = {
    "mini_unet", "deep_unet", "dit_block", "mhsa_block", "dit_adaln"};

/** Command-line options of one workload run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string traceOut; //!< Chrome trace file (traced runs; optional)
};

/**
 * Phase a request belongs to, fixed by the time it was due to be sent.
 * A traced run splits the measured window in two: an untraced half
 * (Measured) that serves as the overhead baseline and a traced half.
 */
enum class Phase : uint8_t
{
    Warmup,
    Measured,
    Traced,
};

/** One request (or offline rollout) as the load generator saw it. */
struct Record
{
    Phase phase = Phase::Measured;
    int preset = 0;           //!< index into kPresetNames
    ditto::DenoiseRequest req;
    double schedUs = 0.0;     //!< when it was due to be sent
    double sendUs = 0.0;      //!< when the submit call started
    double doneUs = 0.0;      //!< when the result was seen
    bool finished = false;
    bool wrong = false;       //!< verified and did not match its oracle
    ditto::RequestStatus status = ditto::RequestStatus::Done;
    bool degraded = false;
    int steps = 0;
    int reusedSteps = 0;
    int preemptions = 0;
    int worker = -1;          //!< tier: worker the router chose
    double queueUs = 0.0;
    double serviceUs = 0.0;
    ditto::OpCounts ops;

    double latencyMs() const { return (doneUs - schedUs) / 1e3; }

    /** Served with difference-reuse approximation (must match ApproxDitto). */
    bool
    approximate() const
    {
        return degraded || req.mode == ditto::RunMode::ApproxDitto;
    }
};

/** Server-side counters summed over every server of a workload. */
struct Counters
{
    uint64_t steps = 0;
    uint64_t stepRequests = 0;
    uint64_t reuseHits = 0;
    uint64_t reuseMisses = 0;
    uint64_t reuseStores = 0;
    uint64_t reuseEvictions = 0;
    uint64_t reuseStepsSaved = 0;
    uint64_t reuseBytes = 0; //!< resident gauge (not a counter)

    /** Counter growth from `before` to this snapshot (gauges kept). */
    Counters since(const Counters &before) const;
};

/** An end-to-end or per-layer metric as printed. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Attempted / succeeded / failed tallies of one phase. */
struct Tally
{
    int64_t attempted = 0;
    int64_t succeeded = 0;
    int64_t failed = 0;
};

} // namespace e2e

#endif // E2E_E2E_H
