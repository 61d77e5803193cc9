/**
 * @file
 * bench_e2e: the repository's end-to-end benchmark.
 *
 *   bench_e2e --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
 *             [--trace-out FILE] [--smoke]
 *
 * Runs one workload (workloads.h) and prints, by name with their
 * units, its end-to-end metrics — or, with --trace 1, its per-layer
 * metrics from a run whose second half records spans around every
 * call into the runtime, the server and the router. The last line of
 * standard output is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Sampled outputs are verified against standalone rollouts after the
 * timed window (verify.h); any mismatch makes the run exit 1.
 * `--workload all` runs each workload in its own child process, so
 * peak_rss_mb belongs to one workload. `--smoke` runs 1.5 s of each
 * workload with every check on.
 *
 * bench_e2e pins DITTO_NUM_THREADS=1, DITTO_NO_CACHE=1 (so calibration
 * is paid inside setup_s) and the Defo cost model, and refuses to run
 * when a knob that changes serving behaviour is set.
 */
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <sys/resource.h>
#include <sys/wait.h>
#include <spawn.h>
#include <unistd.h>
#include <vector>

#include "common/cpu.h"
#include "tensor/simd/simd.h"
#include "verify.h"
#include "workloads.h"

extern char **environ;

namespace {

using namespace e2e;
using ditto::RequestStatus;

/** Knob families that change serving behaviour: refused, not read. */
constexpr const char *kRefusedKnobs[] = {"DITTO_SERVE_", "DITTO_REUSE_",
                                         "DITTO_FAULT_", "DITTO_APPROX_",
                                         "DITTO_SHARD_"};

/**
 * Knobs the benchmark sets for itself and its children. The Defo cost
 * model is pinned because its start-up timing probe differs from
 * process to process (wide penalty 2.1 to 2.4 on one host), which moved
 * offline throughput by 10% between runs of the same inputs.
 */
constexpr const char *kPinnedKnobs[][2] = {{"DITTO_NUM_THREADS", "1"},
                                           {"DITTO_NO_CACHE", "1"},
                                           {"DITTO_DIFF_MAC_PENALTY", "2.2,8"}};

/** Outputs every run must verify before it can count as correct. */
constexpr int64_t kMinVerified = 32;

/** Linearly interpolated quantile q in [0, 1]; 0 for an empty set. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Peak resident set of this process in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool
succeeded(const Record &r)
{
    return r.finished && r.status == RequestStatus::Done && !r.wrong;
}

Tally
tally(const RunData &d, Phase phase)
{
    Tally t;
    for (const Record &r : d.records) {
        if (r.phase != phase)
            continue;
        ++t.attempted;
        ++(succeeded(r) ? t.succeeded : t.failed);
    }
    return t;
}

/** Latencies (ms) of the successful requests of one phase. */
std::vector<double>
latenciesMs(const RunData &d, Phase phase)
{
    std::vector<double> out;
    for (const Record &r : d.records)
        if (r.phase == phase && succeeded(r))
            out.push_back(r.latencyMs());
    return out;
}

double
psnrMedian(const RunData &d)
{
    return d.psnrDb.empty() ? kPsnrCapDb : median(d.psnrDb);
}

/**
 * The timings are medians over the measured window's slices (e2e.h).
 * A successful request counts in the slice it was due to be sent in,
 * and a slice's work ends when the last of its requests finishes.
 */
std::vector<Metric>
endToEnd(const RunData &d)
{
    const size_t ph = static_cast<size_t>(Phase::Measured);
    const double lo = d.windowStartUs[ph];
    const int slices = sliceCount(d.windowEndUs[ph] - lo);
    const double sliceUs = (d.windowEndUs[ph] - lo) / slices;
    std::vector<std::vector<double>> lat(static_cast<size_t>(slices));
    std::vector<double> endUs(static_cast<size_t>(slices));
    for (const Record &r : d.records) {
        if (r.phase != Phase::Measured || !succeeded(r))
            continue;
        const size_t s = std::min(static_cast<size_t>((r.schedUs - lo) / sliceUs),
                                  lat.size() - 1);
        lat[s].push_back(r.latencyMs());
        endUs[s] = std::max(endUs[s], r.doneUs);
    }
    std::vector<double> rate, good, p50, p90;
    for (size_t s = 0; s < lat.size(); ++s) {
        const std::vector<double> &l = lat[s];
        const double seconds = (endUs[s] - (lo + s * sliceUs)) / 1e6;
        const auto inLimit = std::count_if(
            l.begin(), l.end(),
            [&d](double ms) { return ms <= d.latencyLimitMs; });
        rate.push_back(ratio(static_cast<double>(l.size()), seconds));
        good.push_back(ratio(static_cast<double>(inLimit), seconds));
        p50.push_back(quantile(l, 0.50));
        p90.push_back(quantile(l, 0.90));
    }
    return {
        {"setup_s", median(d.setupS), "s"},
        {"throughput_rps", median(rate), "req/s"},
        {"latency_p50_ms", median(p50), "ms"},
        {"latency_p90_ms", median(p90), "ms"},
        {"goodput_rps", median(good), "req/s"},
        {"psnr_db", psnrMedian(d), "dB"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
    };
}

std::vector<Metric>
perLayer(const RunData &d)
{
    std::vector<Metric> m;
    const auto put = [&m](std::string name, double v, const char *unit) {
        m.push_back({std::move(name), v, unit});
    };
    const SpanRecorder &sp = d.spans;
    std::vector<const Record *> traced;
    for (const Record &r : d.records)
        if (r.phase == Phase::Traced && r.finished)
            traced.push_back(&r);
    const double n = static_cast<double>(traced.size());
    const size_t tw = static_cast<size_t>(Phase::Traced);
    const double tracedS = (d.windowEndUs[tw] - d.windowStartUs[tw]) / 1e6;
    const auto spanMs = [&sp](const char *name, int preset, int lo, int hi) {
        return median(sp.durationsUs(name, preset, lo, hi)) / 1e3;
    };

    // runtime: wall time of the calls into CompiledModel.
    for (int p = 0; p < kNumPresets; ++p) {
        const std::string s = kPresetNames[p];
        put("runtime.rollout_ms." + s, spanMs("rollout", p, 0, 0), "ms");
        put("runtime.step1_ms." + s, spanMs("step", p, 1, 1), "ms");
        put("runtime.stepn_ms." + s, spanMs("step", p, 2, 1 << 30), "ms");
        put("runtime.compile_ms." + s, spanMs("compile", p, 0, 0), "ms");
    }
    // core / quant / tensor: exact work counts of the traced requests.
    std::array<ditto::OpCounts, kNumPresets> ops{};
    std::array<double, kNumPresets> count{};
    for (const Record *r : traced) {
        ops[static_cast<size_t>(r->preset)].merge(r->ops);
        count[static_cast<size_t>(r->preset)] += 1.0;
    }
    for (int p = 0; p < kNumPresets; ++p) {
        const std::string s = kPresetNames[p];
        const ditto::OpCounts &o = ops[static_cast<size_t>(p)];
        const double total = static_cast<double>(o.total());
        put("core.zero_frac." + s, ratio(o.zeroSkipped, total), "frac");
        put("core.low4_frac." + s, ratio(o.low4, total), "frac");
        put("core.full8_frac." + s, ratio(o.full8, total), "frac");
        put("core.bops_rel." + s, ratio(o.bops(), 64.0 * total), "frac");
    }
    for (int p = 0; p < kNumPresets; ++p) {
        const std::string s = kPresetNames[p];
        const ditto::OpCounts &o = ops[static_cast<size_t>(p)];
        const double c = count[static_cast<size_t>(p)];
        put("quant.diffcalc_elems." + s, ratio(o.diffCalcElems, c), "count");
        put("quant.summation_elems." + s, ratio(o.summationElems, c),
            "count");
    }
    for (int p = 0; p < kNumPresets; ++p)
        put(std::string("tensor.macs_per_rollout.") + kPresetNames[p],
            d.macsPerRollout[static_cast<size_t>(p)], "count");

    // serve: the server's queue and service split, batching, the cost
    // of its submit/poll calls and the lifecycle outcomes.
    std::vector<double> queueMs, serviceMs;
    double preempted = 0, degraded = 0, rejected = 0, timedOut = 0;
    double steps = 0, reused = 0, approxReused = 0, approxElems = 0;
    std::map<int, double> perWorker;
    for (const Record *r : traced) {
        queueMs.push_back(r->queueUs / 1e3);
        serviceMs.push_back(r->serviceUs / 1e3);
        preempted += r->preemptions > 0;
        degraded += r->degraded;
        rejected += r->status == RequestStatus::Rejected;
        timedOut += r->status == RequestStatus::TimedOut;
        steps += r->steps;
        reused += r->reusedSteps;
        if (r->approximate()) {
            approxReused += static_cast<double>(r->ops.reusedElems);
            approxElems += d.outElemsPerStep[static_cast<size_t>(r->preset)] *
                           (r->steps - r->reusedSteps);
        }
        if (r->worker >= 0)
            perWorker[r->worker] += 1.0;
    }
    const Counters &c = d.tracedCounters;
    const auto us = [&sp](const char *name, double q) {
        return quantile(sp.durationsUs(name), q);
    };
    put("serve.queue_ms.p50", quantile(queueMs, 0.50), "ms");
    put("serve.queue_ms.p99", quantile(queueMs, 0.99), "ms");
    put("serve.service_ms.p50", quantile(serviceMs, 0.50), "ms");
    put("serve.service_ms.p99", quantile(serviceMs, 0.99), "ms");
    put("serve.batch_occupancy",
        ratio(static_cast<double>(c.stepRequests), static_cast<double>(c.steps)),
        "req/step");
    put("serve.steps_per_s", ratio(static_cast<double>(c.steps), tracedS),
        "1/s");
    put("serve.submit_us.p50", us("serve.submit", 0.50), "us");
    put("serve.submit_us.p99", us("serve.submit", 0.99), "us");
    put("serve.poll_us.p50", us("serve.poll", 0.50), "us");
    put("serve.preempted_frac", ratio(preempted, n), "frac");
    put("serve.degraded_frac", ratio(degraded, n), "frac");
    put("serve.rejected_frac", ratio(rejected, n), "frac");
    put("serve.timed_out_frac", ratio(timedOut, n), "frac");

    // reuse: the inter-request cache.
    put("reuse.hit_rate",
        ratio(static_cast<double>(c.reuseHits),
              static_cast<double>(c.reuseHits + c.reuseMisses)),
        "frac");
    put("reuse.steps_saved_frac", ratio(reused, steps), "frac");
    put("reuse.stores_per_request",
        ratio(static_cast<double>(c.reuseStores), n), "count");
    put("reuse.evictions_per_request",
        ratio(static_cast<double>(c.reuseEvictions), n), "count");
    put("reuse.resident_mb", static_cast<double>(c.reuseBytes) / (1 << 20),
        "MiB");

    // approx: how much ApproxDitto replayed, and what it cost in PSNR.
    put("approx.reused_frac", ratio(approxReused, approxElems), "frac");
    put("approx.psnr_db.p50", psnrMedian(d), "dB");

    // shard: router calls, polling, affinity and balance. A duplicate
    // keeps affinity when it lands where its identity's previous
    // request went (routeWorker at submit).
    double dups = 0, sticky = 0;
    std::map<std::tuple<uint64_t, uint64_t, int>, int> lastWorker;
    for (const Record &r : d.records) {
        if (r.worker < 0)
            continue;
        const auto key = std::make_tuple(r.req.seed, r.req.conditioning,
                                         static_cast<int>(r.req.mode));
        const auto it = lastWorker.find(key);
        if (r.phase == Phase::Traced && it != lastWorker.end()) {
            dups += 1.0;
            sticky += it->second == r.worker;
        }
        lastWorker[key] = r.worker;
    }
    double busiest = 0;
    for (const auto &kv : perWorker)
        busiest = std::max(busiest, kv.second);
    put("shard.submit_us.p50", us("shard.submit", 0.50), "us");
    put("shard.submit_us.p99", us("shard.submit", 0.99), "us");
    put("shard.poll_us.p50", us("shard.poll", 0.50), "us");
    put("shard.poll_us.p99", us("shard.poll", 0.99), "us");
    put("shard.polls_per_request",
        ratio(static_cast<double>(sp.count("shard.poll")), n), "count");
    put("shard.affinity_frac", ratio(sticky, dups), "frac");
    put("shard.resubmitted", static_cast<double>(d.resubmitted), "count");
    put("shard.load_imbalance", ratio(busiest * d.workers, n), "ratio");

    // Health of the measurement itself.
    std::vector<double> lateMs;
    for (const Record *r : traced)
        lateMs.push_back((r->sendUs - r->schedUs) / 1e3);
    put("loadgen.late_ms.p99", quantile(lateMs, 0.99), "ms");
    put("loadgen.late_ms.max",
        lateMs.empty() ? 0.0 : *std::max_element(lateMs.begin(), lateMs.end()),
        "ms");
    // Traced against untraced median latency: in the open-loop workload
    // throughput is set by the arrival rate, so latency is what tracing
    // can move in every workload.
    put("trace.overhead_frac",
        ratio(median(latenciesMs(d, Phase::Traced)),
              median(latenciesMs(d, Phase::Measured))) -
            1.0,
        "frac");
    put("verify.outputs_checked", static_cast<double>(d.outputsChecked),
        "count");
    return m;
}

void
printJson(bool correct, const Tally &t, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<long long>(t.attempted),
                static_cast<long long>(t.failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
}

/** Run every workload in its own child process; 0 when all pass. */
int
runAll(int argc, char **argv)
{
    int rc = 0;
    for (const char *name : kWorkloadNames) {
        std::vector<std::string> args(argv, argv + argc);
        for (size_t i = 1; i + 1 < args.size(); ++i)
            if (args[i] == "--workload")
                args[i + 1] = name;
        std::vector<char *> cargv;
        for (std::string &a : args)
            cargv.push_back(a.data());
        cargv.push_back(nullptr);
        std::fflush(stdout);
        pid_t pid = 0;
        int status = 0;
        if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, cargv.data(),
                        environ) != 0 ||
            waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0) {
            std::fprintf(stderr, "bench_e2e: workload %s failed\n", name);
            rc = 1;
        }
    }
    return rc;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bench_e2e: %s\nusage: bench_e2e --workload NAME|all "
                 "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] "
                 "[--smoke]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            o.trace = value() != "0";
        else if (arg == "--trace-out")
            o.traceOut = value();
        else if (arg == "--smoke")
            o.smoke = true;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (o.smoke)
        o.seconds = 1.5;
    if (o.workload.empty() || !(o.seconds > 0.0))
        usage("--workload and a positive --seconds are required");

    for (char **e = environ; *e; ++e)
        for (const char *prefix : kRefusedKnobs)
            if (std::strncmp(*e, prefix, std::strlen(prefix)) == 0) {
                std::fprintf(stderr,
                             "bench_e2e: refusing to run with %s set; the "
                             "benchmark pins its own serving settings\n",
                             *e);
                return 2;
            }
    for (const auto &kv : kPinnedKnobs)
        setenv(kv[0], kv[1], 1);

    if (o.workload == "all")
        return runAll(argc, argv);
    if (workloadIndex(o.workload) < 0)
        usage(("unknown workload " + o.workload).c_str());

    char host[256] = {};
    gethostname(host, sizeof host - 1);
    std::printf("bench_e2e: workload %s, seed %llu, %g s, trace %d%s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, o.smoke ? ", smoke" : "");
    std::printf("context: simd %s (cpu %s), nproc %ld, host %s\n",
                ditto::simd::levelName(ditto::simd::activeLevel()),
                ditto::cpuFeatureSummary().c_str(),
                sysconf(_SC_NPROCESSORS_ONLN), host);
    std::printf("pinned:");
    for (const auto &kv : kPinnedKnobs)
        std::printf(" %s=%s", kv[0], kv[1]);
    std::printf(" %s\n", pinnedConfig().c_str());
    std::fflush(stdout);

    const RunData d = runWorkload(o);
    if (d.setupFailed) {
        std::fprintf(stderr, "bench_e2e: set-up failed: %s\n", d.why.c_str());
        return 1;
    }
    if (o.trace && !o.traceOut.empty()) {
        std::string why;
        if (!d.spans.writeChromeJson(o.traceOut, &why)) {
            std::fprintf(stderr, "bench_e2e: %s\n", why.c_str());
            return 1;
        }
    }

    bool anyWrong = false;
    for (const Record &r : d.records)
        anyWrong |= r.wrong;
    const bool correct = !anyWrong && d.outputsChecked >= kMinVerified;

    const char *phaseNames[] = {"warmup", "measured", "traced"};
    Tally timed;
    for (int p = 0; p < (o.trace ? 3 : 2); ++p) {
        const Tally t = tally(d, static_cast<Phase>(p));
        std::printf("phase %-8s attempted %lld succeeded %lld failed %lld\n",
                    phaseNames[p], static_cast<long long>(t.attempted),
                    static_cast<long long>(t.succeeded),
                    static_cast<long long>(t.failed));
        if (p > 0) {
            timed.attempted += t.attempted;
            timed.succeeded += t.succeeded;
            timed.failed += t.failed;
        }
    }
    std::printf("verified %lld outputs, %s\n",
                static_cast<long long>(d.outputsChecked),
                anyWrong ? "MISMATCH" : "all bitwise equal to their oracle");
    const std::vector<Metric> metrics = o.trace ? perLayer(d) : endToEnd(d);
    for (const Metric &m : metrics)
        std::printf("metric %-34s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    printJson(correct, timed, metrics);
    return correct ? 0 : 1;
}
