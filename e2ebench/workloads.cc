#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unistd.h>
#include <utility>

#include "common/rng.h"
#include "runtime/compiled.h"
#include "runtime/presets.h"
#include "serve/server.h"
#include "shard/router.h"
#include "shard/worker.h"
#include "verify.h"

namespace e2e {
namespace {

using namespace ditto;

// The serving configuration is pinned here rather than read from the
// environment: the DITTO_SERVE_* / DITTO_REUSE_* / DITTO_SHARD_* knobs
// are refused at start-up, so two runs always serve the same way.
constexpr int64_t kMaxBatch = 8;
constexpr int64_t kWindowUs = 2000;
constexpr int64_t kQueueCap = 64;
constexpr int64_t kReuseBytes = 64ll << 20;
constexpr int kCheckpointEvery = 2;
constexpr int64_t kAffinitySlack = 2;
constexpr int64_t kRouterPollUs = 500;
constexpr int kServeEngines = 2;
constexpr int kTierWorkers = 2;

/**
 * Set-ups per run: at least kSetupReps, repeated for at least
 * kSetupSeconds; setup_s is their median. Hosts shared with other
 * tenants switched between a fast and a 35% slower state every second
 * or so, so a median over a short burst of set-ups landed in either
 * state from run to run.
 */
constexpr int kSetupReps = 9;
constexpr double kSetupSeconds = 2.0;

/** The load generator sweeps its outstanding tickets this often. */
constexpr double kPollIntervalUs = 1000.0;

/**
 * serve_poisson arrival rate, about a sixth of what the two engines
 * complete in tier_dup's closed loop: batches stay small, so latency is
 * set by admission, the batching window and continuous batching. At
 * 50 req/s bursts grew batches until service times rose tenfold for
 * half a second, and median latency moved 17% from run to run.
 */
constexpr double kServeRate = 25.0;

/**
 * tier_dup: requests kept outstanding, and the share drawn from the
 * identity pool. Almost every duplicate warm-starts, so the cold share
 * sits near 1 - kTierDupFrac; at 0.9 p90 fell on the edge between the
 * warm and cold latencies and moved 21% from run to run.
 */
constexpr int kTierDepth = 16;
constexpr double kTierDupFrac = 0.8;

/**
 * tier_dup's identity pool. Ten identities carry the 70/20/10 mode mix
 * exactly, so every seed offers the same share of each mode.
 */
constexpr RunMode kPoolModes[] = {
    RunMode::QuantDitto,  RunMode::QuantDitto,  RunMode::QuantDitto,
    RunMode::QuantDitto,  RunMode::QuantDitto,  RunMode::QuantDitto,
    RunMode::QuantDitto,  RunMode::QuantDirect, RunMode::QuantDirect,
    RunMode::ApproxDitto};
constexpr int kPoolSize = static_cast<int>(std::size(kPoolModes));

/** Verification sample: the first 32 outputs, then every 16th. */
constexpr int64_t kSampleHead = 32;
constexpr int64_t kSampleStride = 16;

/** Distinct approximate identities verified for the PSNR median. */
constexpr size_t kMaxApproxIdentities = 64;

enum class Kind
{
    Offline,
    Serve,
    Tier,
};

struct WorkloadDef
{
    Kind kind;
    RunMode mode;   //!< offline workloads only
    double warmupS;
    double limitMs; //!< goodput latency limit
};

/** Index-aligned with kWorkloadNames. */
constexpr WorkloadDef kDefs[kNumWorkloads] = {
    {Kind::Offline, RunMode::QuantDitto, 1.0, 50.0},
    {Kind::Offline, RunMode::QuantDirect, 1.0, 50.0},
    {Kind::Serve, RunMode::QuantDitto, 2.0, 250.0},
    {Kind::Tier, RunMode::QuantDitto, 2.0, 250.0},
};

/** The BM_CompiledRollout shapes, 8 steps each. */
ModelSpec
presetSpec(int preset)
{
    switch (preset) {
      case 0: {
        MiniUnetConfig c;
        c.channels = 32;
        c.resolution = 16;
        c.steps = 8;
        return miniUnetSpec(c);
      }
      case 1: {
        DeepUnetConfig c;
        c.baseChannels = 16;
        c.resolution = 16;
        c.steps = 8;
        return deepUnetSpec(c);
      }
      case 2: {
        DitBlockConfig c;
        c.embedDim = 32;
        c.resolution = 16;
        c.steps = 8;
        return ditBlockSpec(c);
      }
      case 3: {
        MhsaBlockConfig c;
        c.embedDim = 32;
        c.heads = 2;
        c.resolution = 16;
        c.steps = 8;
        return mhsaBlockSpec(c);
      }
      default: {
        DitAdaLnConfig c;
        c.embedDim = 32;
        c.resolution = 16;
        c.steps = 8;
        return ditAdaLnSpec(c);
      }
    }
}

ServerConfig
pinnedServer(int engines)
{
    ServerConfig c;
    c.maxBatch = kMaxBatch;
    c.maxWaitMicros = kWindowUs;
    c.workers = engines;
    c.queueCapacity = kQueueCap;
    c.admitBlockMicros = 0;
    c.shedHighWater = 0;
    c.shedLowWater = 0;
    c.reuse.capBytes = kReuseBytes;
    c.reuse.checkpointEvery = kCheckpointEvery;
    return c;
}

/** The system under test; members are destroyed router first. */
struct Stack
{
    std::array<std::unique_ptr<CompiledModel>, kNumPresets> models;
    std::unique_ptr<DenoiseServer> server;
    std::vector<std::unique_ptr<shard::ShardWorker>> workers;
    std::unique_ptr<shard::ShardRouter> router;
};

/**
 * Compile (and calibrate) the workload's models and start its server
 * or tier. Worker sockets are relative to the working directory.
 */
std::unique_ptr<Stack>
setUp(Kind kind, int rep, SpanRecorder &rec, std::string *why)
{
    auto s = std::make_unique<Stack>();
    const int presets = kind == Kind::Offline ? kNumPresets : 1;
    for (int p = 0; p < presets; ++p) {
        const int span = rec.add({"compile", rec.nowUs(), 0.0, -1, 0, p});
        s->models[static_cast<size_t>(p)] =
            std::make_unique<CompiledModel>(compile(presetSpec(p)));
        rec.close(span, rec.nowUs());
    }
    const CompiledModel &mini = *s->models[0];
    if (kind == Kind::Serve)
        s->server =
            std::make_unique<DenoiseServer>(mini, pinnedServer(kServeEngines));
    if (kind == Kind::Tier) {
        shard::RouterConfig rc;
        rc.affinitySlack = kAffinitySlack;
        rc.pollMicros = kRouterPollUs;
        s->router = std::make_unique<shard::ShardRouter>(rc);
        for (int i = 0; i < kTierWorkers; ++i) {
            const std::string path = "e2e-" + std::to_string(getpid()) + "-" +
                                     std::to_string(rep) + "-" +
                                     std::to_string(i) + ".sock";
            s->workers.push_back(std::make_unique<shard::ShardWorker>(
                mini, path, pinnedServer(1)));
            if (!s->workers.back()->start(why) ||
                !s->router->addWorker(path, why))
                return nullptr;
        }
    }
    return s;
}

void
addCounters(Counters &c, const ServeMetrics &m)
{
    c.steps += m.steps;
    c.stepRequests += m.stepRequests;
    c.reuseHits += m.reuseHits;
    c.reuseMisses += m.reuseMisses;
    c.reuseStores += m.reuseStores;
    c.reuseEvictions += m.reuseEvictions;
    c.reuseStepsSaved += m.reuseStepsSaved;
    c.reuseBytes += m.reuseBytes;
}

Counters
snapshot(Stack &s)
{
    Counters c;
    if (s.server)
        addCounters(c, s.server->metrics());
    for (const auto &w : s.workers)
        addCounters(c, w->server().metrics());
    return c;
}

/** The phase whose scheduled window holds `us`; false past the end. */
bool
phaseAt(const RunData &d, bool traced, double us, Phase *out)
{
    const Phase order[] = {Phase::Warmup, Phase::Measured, Phase::Traced};
    for (int i = 0; i < (traced ? 3 : 2); ++i) {
        if (us < d.windowEndUs[static_cast<size_t>(order[i])]) {
            *out = order[i];
            return true;
        }
    }
    return false;
}

/** Request identities of the serving workloads, drawn from the seed. */
class Traffic
{
  public:
    Traffic(uint64_t seed, double dupFrac)
        : rng_(Rng::fromKeys(seed, 0x7AFF1C)), dupFrac_(dupFrac)
    {
        for (int k = 0; k < kPoolSize; ++k)
            pool_[static_cast<size_t>(k)] = {rng_.nextU64(), rng_.nextU64()};
    }

    DenoiseRequest
    next()
    {
        DenoiseRequest r;
        const double s = rng_.uniform();
        r.slo = s < 0.25   ? SloClass::Interactive
                : s < 0.75 ? SloClass::Standard
                           : SloClass::BestEffort;
        if (dupFrac_ > 0.0 && rng_.uniform() < dupFrac_) {
            const size_t k = rng_.uniformInt(kPoolSize);
            r.seed = pool_[k].first;
            r.conditioning = pool_[k].second;
            r.mode = kPoolModes[k];
            return r;
        }
        r.seed = rng_.nextU64();
        r.conditioning = rng_.nextU64();
        const double m = rng_.uniform();
        r.mode = m < 0.7   ? RunMode::QuantDitto
                 : m < 0.9 ? RunMode::QuantDirect
                           : RunMode::ApproxDitto;
        return r;
    }

  private:
    Rng rng_;
    double dupFrac_;
    std::array<std::pair<uint64_t, uint64_t>, kPoolSize> pool_;
};

struct Arrival
{
    double schedUs;
    DenoiseRequest req;
};

/**
 * Open-loop schedule: in each slice of each phase window exactly
 * rate x length arrivals at independent uniform times — a Poisson
 * process conditioned on its count per slice, so every seed and every
 * slice offers the same load.
 */
std::vector<Arrival>
poissonArrivals(const RunData &d, bool traced, uint64_t seed,
                Traffic &traffic)
{
    Rng rng = Rng::fromKeys(seed, 0xA771FA1);
    std::vector<Arrival> out;
    for (int ph = 0; ph < (traced ? 3 : 2); ++ph) {
        const double lo = d.windowStartUs[static_cast<size_t>(ph)];
        const double hi = d.windowEndUs[static_cast<size_t>(ph)];
        const int slices = sliceCount(hi - lo);
        const double len = (hi - lo) / slices;
        for (int s = 0; s < slices; ++s) {
            std::vector<double> at(
                static_cast<size_t>(std::llround(kServeRate * len / 1e6)));
            for (double &t : at)
                t = rng.uniform(lo + s * len, lo + (s + 1) * len);
            std::sort(at.begin(), at.end());
            for (double t : at)
                out.push_back({t, traffic.next()});
        }
    }
    return out;
}

/**
 * Picks the outputs to verify: the first kSampleHead results, every
 * kSampleStride-th after, and the first result of each approximate
 * identity (up to kMaxApproxIdentities, for the PSNR median).
 */
class Sampler
{
  public:
    void
    offer(size_t idx, const Record &r, FloatTensor &&image)
    {
        const int64_t n = completions_++;
        bool keep = n < kSampleHead || n % kSampleStride == 0;
        if (r.approximate() && approxSeen_.size() < kMaxApproxIdentities &&
            approxSeen_.emplace(r.preset, r.req.seed).second)
            keep = true;
        if (keep)
            kept.emplace_back(idx, std::move(image));
    }

    std::vector<std::pair<size_t, FloatTensor>> kept;

  private:
    int64_t completions_ = 0;
    std::set<std::pair<int, uint64_t>> approxSeen_;
};

void
driveOffline(Stack &s, RunMode mode, uint64_t seed, bool traced, RunData &d,
             Sampler &sampler)
{
    SpanRecorder &rec = d.spans;
    Rng rng = Rng::fromKeys(seed, 0x0FF11E);
    for (uint64_t i = 0;; ++i) {
        const double start = rec.nowUs();
        Phase phase = Phase::Warmup;
        if (!phaseAt(d, traced, start, &phase))
            break;
        const int p = static_cast<int>(i % kNumPresets);
        const CompiledModel &m = *s.models[static_cast<size_t>(p)];
        Record r;
        r.phase = phase;
        r.preset = p;
        r.req.seed = rng.nextU64();
        r.req.mode = mode;
        r.schedUs = r.sendUs = start;
        RolloutResult res;
        if (phase == Phase::Traced) {
            const uint64_t id = d.records.size() + 1;
            const int span = rec.add({"rollout", start, 0.0, -1, id, p});
            double last = start;
            res = m.rollout(mode, m.requestNoise(r.req.seed), 0,
                            [&](int k, const auto &, const auto &) {
                                const double t = rec.nowUs();
                                rec.add({"step", last, t, span, id, p, k});
                                last = t;
                            });
            r.doneUs = rec.nowUs();
            rec.close(span, r.doneUs);
        } else {
            res = m.rollout(mode, m.requestNoise(r.req.seed));
            r.doneUs = rec.nowUs();
        }
        r.finished = true;
        r.steps = m.defaultSteps();
        r.ops = res.dittoOps;
        d.records.push_back(r);
        sampler.offer(d.records.size() - 1, d.records.back(),
                      std::move(res.finalImage));
    }
}

struct ServeBackend
{
    DenoiseServer &server;
    static constexpr const char *kSubmit = "serve.submit";
    static constexpr const char *kPoll = "serve.poll";

    uint64_t submit(const DenoiseRequest &r) { return server.submit(r); }
    bool poll(uint64_t id, DenoiseResult *out) { return server.poll(id, out); }
    int worker(uint64_t) const { return -1; }
};

struct TierBackend
{
    shard::ShardRouter &router;
    static constexpr const char *kSubmit = "shard.submit";
    static constexpr const char *kPoll = "shard.poll";

    uint64_t submit(const DenoiseRequest &r) { return router.submit(r); }
    bool poll(uint64_t id, DenoiseResult *out) { return router.poll(id, out); }
    int worker(uint64_t gid) const { return router.routeWorker(gid); }
};

/**
 * The load generator: one thread sends each request when it is due
 * and sweeps every outstanding ticket each kPollIntervalUs. With
 * `closed` null it sends the open-loop `arrivals`; otherwise it keeps
 * kTierDepth requests outstanding, sending a replacement as soon as a
 * sweep sees one finish, until the last window closes. Latency runs
 * from the scheduled send time to the sweep that sees the result.
 */
template <class Backend>
void
drive(Backend &b, const std::vector<Arrival> &arrivals, Traffic *closed,
      bool traced, RunData &d, Sampler &sampler,
      const std::function<void()> &atTracedStart)
{
    SpanRecorder &rec = d.spans;
    struct Live
    {
        uint64_t ticket;
        size_t idx;
        int span;
    };
    std::vector<Live> live;
    size_t next = 0;
    bool tracedStarted = false;
    double nextPollUs = d.windowStartUs[0];

    const auto send = [&](const DenoiseRequest &req, double schedUs,
                          Phase phase) {
        const bool tr = phase == Phase::Traced;
        if (tr && !tracedStarted) {
            tracedStarted = true;
            atTracedStart();
        }
        const size_t idx = d.records.size();
        const uint64_t id = idx + 1;
        Record r;
        r.phase = phase;
        r.req = req;
        r.schedUs = schedUs;
        const int span = tr ? rec.add({"request", schedUs, 0.0, -1, id}) : -1;
        r.sendUs = rec.nowUs();
        const uint64_t ticket = b.submit(req);
        if (tr)
            rec.add({Backend::kSubmit, r.sendUs, rec.nowUs(), span, id});
        r.worker = b.worker(ticket);
        d.records.push_back(r);
        live.push_back({ticket, idx, span});
    };

    const auto finished = [&](const Live &l) {
        Record &r = d.records[l.idx];
        const uint64_t id = l.idx + 1;
        DenoiseResult res;
        const double t0 = rec.nowUs();
        const bool done = b.poll(l.ticket, &res);
        const double t1 = rec.nowUs();
        if (r.phase == Phase::Traced)
            rec.add({Backend::kPoll, t0, t1, l.span, id});
        if (!done)
            return false;
        r.finished = true;
        r.doneUs = t1;
        r.status = res.status;
        r.degraded = res.degraded;
        r.steps = res.steps;
        r.reusedSteps = res.reusedSteps;
        r.preemptions = res.preemptions;
        r.queueUs = res.queueMicros;
        r.serviceUs = res.serviceMicros;
        r.ops = res.dittoOps;
        if (r.phase == Phase::Traced) {
            rec.close(l.span, t1);
            const double q1 = r.sendUs + r.queueUs;
            rec.add({"queue", r.sendUs, q1, l.span, id});
            rec.add({"service", q1, q1 + r.serviceUs, l.span, id});
        }
        if (res.status == RequestStatus::Done)
            sampler.offer(l.idx, r, std::move(res.image));
        return true;
    };

    for (;;) {
        double now = rec.nowUs();
        Phase phase = Phase::Warmup;
        if (closed) {
            while (static_cast<int>(live.size()) < kTierDepth &&
                   phaseAt(d, traced, now, &phase)) {
                send(closed->next(), now, phase);
                now = rec.nowUs();
            }
        } else {
            while (next < arrivals.size() && arrivals[next].schedUs <= now) {
                phaseAt(d, traced, arrivals[next].schedUs, &phase);
                send(arrivals[next].req, arrivals[next].schedUs, phase);
                ++next;
                now = rec.nowUs();
            }
        }
        if (now >= nextPollUs) {
            for (size_t i = 0; i < live.size();) {
                if (finished(live[i])) {
                    live[i] = live.back();
                    live.pop_back();
                } else {
                    ++i;
                }
            }
            nextPollUs = std::max(nextPollUs + kPollIntervalUs, rec.nowUs());
        }
        const bool sending = closed ? phaseAt(d, traced, rec.nowUs(), &phase)
                                    : next < arrivals.size();
        if (!sending && live.empty())
            break;
        double wakeUs = nextPollUs;
        if (!closed && next < arrivals.size())
            wakeUs = std::min(wakeUs, arrivals[next].schedUs);
        // Spin rather than sleep. A generator that sleeps between sweeps
        // and then wakes the engines drew them onto its own CPU: runs
        // showed half-second episodes of tenfold service times that
        // moved p99 between 40 and 280 ms from run to run.
        while (rec.nowUs() < wakeUs) {
        }
    }
}

uint64_t
scrapeCounter(const std::string &json, const char *key)
{
    const std::string needle = std::string("\"") + key + "\":";
    const size_t at = json.find(needle);
    return at == std::string::npos
               ? 0
               : std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

} // namespace

Counters
Counters::since(const Counters &before) const
{
    Counters c = *this;
    c.steps -= before.steps;
    c.stepRequests -= before.stepRequests;
    c.reuseHits -= before.reuseHits;
    c.reuseMisses -= before.reuseMisses;
    c.reuseStores -= before.reuseStores;
    c.reuseEvictions -= before.reuseEvictions;
    c.reuseStepsSaved -= before.reuseStepsSaved;
    return c;
}

int
workloadIndex(const std::string &name)
{
    const auto it = std::find(std::begin(kWorkloadNames),
                              std::end(kWorkloadNames), name);
    return it == std::end(kWorkloadNames)
               ? -1
               : static_cast<int>(it - std::begin(kWorkloadNames));
}

std::string
pinnedConfig()
{
    return "max_batch=" + std::to_string(kMaxBatch) +
           " window_us=" + std::to_string(kWindowUs) +
           " queue_cap=" + std::to_string(kQueueCap) +
           " reuse_mib=" + std::to_string(kReuseBytes >> 20) +
           " checkpoint_every=" + std::to_string(kCheckpointEvery) +
           " serve_engines=" + std::to_string(kServeEngines) +
           " tier_workers=" + std::to_string(kTierWorkers) +
           " affinity_slack=" + std::to_string(kAffinitySlack) +
           " router_poll_us=" + std::to_string(kRouterPollUs);
}

RunData
runWorkload(const Options &o)
{
    const WorkloadDef &def =
        kDefs[static_cast<size_t>(workloadIndex(o.workload))];
    RunData d(Clock::now());
    d.latencyLimitMs = def.limitMs;
    d.spans.setEnabled(o.trace);

    // Set up several times and keep the last stack; each earlier one is
    // torn down outside the timed interval.
    std::unique_ptr<Stack> stack;
    const double setupEndUs = d.spans.nowUs() + kSetupSeconds * 1e6;
    for (int rep = 0;
         o.smoke ? rep < 2
                 : rep < kSetupReps || d.spans.nowUs() < setupEndUs;
         ++rep) {
        const double t0 = d.spans.nowUs();
        std::unique_ptr<Stack> s = setUp(def.kind, rep, d.spans, &d.why);
        const double t1 = d.spans.nowUs();
        if (!s) {
            d.setupFailed = true;
            return d;
        }
        d.setupS.push_back((t1 - t0) / 1e6);
        stack = std::move(s);
    }
    for (int p = 0; p < kNumPresets; ++p) {
        const CompiledModel *m = stack->models[static_cast<size_t>(p)].get();
        if (!m)
            continue;
        d.macsPerRollout[static_cast<size_t>(p)] =
            static_cast<double>(m->macsPerStep()) * m->defaultSteps();
        for (const CompiledModel::NodeReport &n : m->nodeReports())
            if (n.compute)
                d.outElemsPerStep[static_cast<size_t>(p)] +=
                    static_cast<double>(n.outElems);
    }

    // Scheduled windows: warm-up, then the measured window — split into
    // an untraced and a traced half when tracing.
    const double warmUs = (o.smoke ? 0.2 : def.warmupS) * 1e6;
    const double runUs = o.seconds * 1e6;
    const auto window = [&d](Phase p, double lo, double hi) {
        d.windowStartUs[static_cast<size_t>(p)] = lo;
        d.windowEndUs[static_cast<size_t>(p)] = hi;
    };
    const double start = d.spans.nowUs();
    window(Phase::Warmup, start, start + warmUs);
    if (o.trace) {
        window(Phase::Measured, start + warmUs, start + warmUs + runUs / 2);
        window(Phase::Traced, start + warmUs + runUs / 2,
               start + warmUs + runUs);
    } else {
        window(Phase::Measured, start + warmUs, start + warmUs + runUs);
    }

    Sampler sampler;
    Counters atTraced;
    const std::function<void()> onTraced = [&] { atTraced = snapshot(*stack); };
    switch (def.kind) {
      case Kind::Offline:
        driveOffline(*stack, def.mode, o.seed, o.trace, d, sampler);
        break;
      case Kind::Serve: {
        ServeBackend b{*stack->server};
        Traffic traffic(o.seed, 0.0);
        drive(b, poissonArrivals(d, o.trace, o.seed, traffic), nullptr,
              o.trace, d, sampler, onTraced);
        break;
      }
      case Kind::Tier: {
        TierBackend b{*stack->router};
        Traffic traffic(o.seed, kTierDupFrac);
        drive(b, {}, &traffic, o.trace, d, sampler, onTraced);
        d.workers = kTierWorkers;
        d.resubmitted =
            scrapeCounter(stack->router->metricsJson(), "resubmitted");
        break;
      }
    }
    d.tracedCounters = snapshot(*stack).since(atTraced);

    // Verification, outside the timed window.
    Verifier verifier;
    std::map<std::pair<int, uint64_t>, double> psnr;
    for (const auto &[idx, image] : sampler.kept) {
        Record &r = d.records[idx];
        double db = kPsnrCapDb;
        if (!verifier.check(*stack->models[static_cast<size_t>(r.preset)],
                            r.preset, r.req.seed, r.approximate(), image, &db))
            r.wrong = true;
        if (r.approximate())
            psnr[{r.preset, r.req.seed}] = db;
    }
    for (const auto &kv : psnr)
        d.psnrDb.push_back(kv.second);
    d.outputsChecked = verifier.checked();
    return d;
}

} // namespace e2e
