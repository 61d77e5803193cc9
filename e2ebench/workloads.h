/**
 * @file
 * The four workloads of bench_e2e and the data one run of them yields.
 *
 *  - offline_ditto / offline_direct: one caller, closed loop,
 *    CompiledModel::rollout round-robin over the five presets in
 *    QuantDitto / QuantDirect.
 *  - serve_poisson: open-loop Poisson arrivals into one DenoiseServer
 *    over mini_unet with two engines; every identity unique.
 *  - tier_dup: closed loop with 16 outstanding requests through a
 *    ShardRouter over two in-process ShardWorkers; 80% of requests
 *    repeat one of a small pool of identities.
 *
 * e2ebench/README.md records why each workload exists.
 */
#ifndef E2E_WORKLOADS_H
#define E2E_WORKLOADS_H

#include <array>
#include <string>
#include <vector>

#include "e2e.h"
#include "spans.h"

namespace e2e {

/** Names accepted by --workload (besides "all"). */
inline constexpr int kNumWorkloads = 4;
inline constexpr const char *kWorkloadNames[kNumWorkloads] = {
    "offline_ditto", "offline_direct", "serve_poisson", "tier_dup"};

/** Everything one workload run produced, ready for metric derivation. */
struct RunData
{
    explicit RunData(Clock::time_point epoch) : spans(epoch) {}

    std::vector<double> setupS; //!< wall time of each repeated set-up
    std::vector<Record> records; //!< in send order
    SpanRecorder spans;

    /** Scheduled window [start, end) of each Phase, in span-clock us. */
    std::array<double, 3> windowStartUs{};
    std::array<double, 3> windowEndUs{};

    double latencyLimitMs = 0.0; //!< goodput limit of this workload
    Counters tracedCounters;     //!< server counter growth, traced phase
    uint64_t resubmitted = 0;    //!< tier: router cold resubmissions
    int workers = 0;             //!< tier: shard workers

    /** Per preset (0 when the workload does not use it). */
    std::array<double, kNumPresets> macsPerRollout{};
    std::array<double, kNumPresets> outElemsPerStep{};

    std::vector<double> psnrDb; //!< per verified approximate identity
    int64_t outputsChecked = 0;
    bool setupFailed = false;
    std::string why; //!< set-up failure reason
};

/** Index of `name` in kWorkloadNames, or -1. */
int workloadIndex(const std::string &name);

/** The pinned server and router settings, as one printable line. */
std::string pinnedConfig();

/** Set up, drive, drain and verify one workload (a known name). */
RunData runWorkload(const Options &opts);

} // namespace e2e

#endif // E2E_WORKLOADS_H
