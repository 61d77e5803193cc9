/**
 * @file
 * DenoiseServer implementation: the hardened request lifecycle.
 *
 * Threading model: submit()/poll()/wait()/cancel() and the worker
 * loops share one mutex guarding the class queues, the parked pool,
 * the ticket table, the result map and the metrics. The engines
 * themselves run outside the lock — their kernels dispatch onto the
 * global parallelFor pool, which serializes whole jobs across
 * concurrent callers, so multiple workers interleave at kernel-call
 * granularity without data races. Each engine is touched only by the
 * worker that owns it; the lock covers every decision *about* the
 * engine (admission, preemption, eviction), never the step itself.
 *
 * Admission: a worker turns every candidate — a queued request or a
 * parked one — into a slab through one sequence, admitCandidate():
 * the Admission / Resume fault point, the reuse-cache lookup, the
 * cancel / deadline / fault recheck under the lock, the queue-time or
 * resume accounting, and a cold, warm or parked BatchEngine::Parked.
 * Before a step the admitted Parkeds join the engine as one burst;
 * after it each vacated slab (finished, cancelled, timed out) is
 * handed to the next candidate in place. Preemption, migration
 * park-out and importMigrated all enter the parked pool through
 * parkLocked(), and a request that leaves it without a slab is
 * finalized through finalizeParkedLocked().
 *
 * Time handling: every deadline and wait computation uses
 * std::chrono::steady_clock (never the wall clock — a settable clock
 * would turn an NTP step into a mass timeout), and all "base + budget"
 * arithmetic goes through deadlineAfter(), which saturates at
 * time_point::max() instead of overflowing and treats a 0-length
 * budget as an already-expired deadline (dispatch/time-out
 * immediately, never an infinite wait).
 */
#include "serve/server.h"

#include <algorithm>

#include "common/env.h"
#include "common/logging.h"
#include "serve/faultpoints.h"

namespace ditto {

namespace {

/** Microseconds between two steady-clock points, as a double. */
double
microsBetween(std::chrono::steady_clock::time_point a,
              std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/**
 * Shape a cached prefix as a warm Parked, so the engine installs it
 * through its one join path like any other. The image and state bytes
 * are copied out of the immutable entry; `state.backRef` adopts the
 * entry itself so it stays alive while its copy is resident in a slab
 * even if the cache evicts it concurrently (the slot-recycle paths
 * drop the reference). `ops` stays zeroed: the warm start's whole
 * point is that this request did not execute those steps.
 */
BatchEngine::Parked
makeWarmParked(const CompiledModel &model, uint64_t id,
               const DenoiseRequest &req, const ReuseCache::EntryPtr &entry)
{
    BatchEngine::Parked p = BatchEngine::Parked::unstarted(model, id, req);
    p.image = entry->image;
    p.stepsDone = entry->key.steps;
    if (entry->hasState) {
        p.state = entry->state;
        p.state.backRef = entry;
        p.hasState = true;
    }
    return p;
}

} // namespace

ServerConfig
ServerConfig::fromEnv()
{
    ServerConfig cfg;
    cfg.maxBatch =
        env::readInt64("DITTO_SERVE_MAX_BATCH", cfg.maxBatch, 1, 4096);
    cfg.maxWaitMicros = env::readInt64("DITTO_SERVE_MAX_WAIT_US",
                                       cfg.maxWaitMicros, 0, 60'000'000);
    cfg.workers = static_cast<int>(
        env::readInt64("DITTO_SERVE_WORKERS", cfg.workers, 1, 256));
    cfg.queueCapacity = env::readInt64("DITTO_SERVE_QUEUE_CAP",
                                       cfg.queueCapacity, 1, 1'000'000);
    cfg.admitBlockMicros =
        env::readInt64("DITTO_SERVE_ADMIT_BLOCK_US", cfg.admitBlockMicros,
                       0, 60'000'000);
    cfg.shedHighWater = env::readInt64("DITTO_SERVE_SHED_HIGH",
                                       cfg.shedHighWater, 0, 1'000'000);
    cfg.shedLowWater = env::readInt64("DITTO_SERVE_SHED_LOW",
                                      cfg.shedLowWater, 0, 1'000'000);
    cfg.reuse = ReuseCacheConfig::fromEnv();
    return cfg;
}

DenoiseServer::DenoiseServer(const CompiledModel &model, ServerConfig cfg,
                             std::shared_ptr<ReuseCache> cache)
    : model_(model), cfg_(cfg), cache_(std::move(cache))
{
    DITTO_ASSERT(cfg_.effectiveShedLow() < cfg_.effectiveShedHigh(),
                 "shed low watermark must sit below the high watermark");
    if (!cache_ && cfg_.reuse.enabled())
        cache_ = std::make_shared<ReuseCache>(cfg_.reuse);
    workers_.reserve(static_cast<size_t>(cfg_.workers));
    for (int i = 0; i < cfg_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

DenoiseServer::~DenoiseServer()
{
    shutdown();
}

void
DenoiseServer::shutdown()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (shutdown_)
            return;
        stopping_ = true;
        // Cancel pending migrations: a held parked entry would
        // otherwise be work no worker may take, deadlocking the drain.
        // The exporter (if any) observes stopping_ and reports failure;
        // the request completes locally instead.
        for (auto &kv : tickets_)
            kv.second.migrateRequested = false;
    }
    workAvailable_.notify_all();
    spaceAvailable_.notify_all();
    for (std::thread &w : workers_)
        w.join();
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
}

DenoiseServer::Clock::time_point
DenoiseServer::deadlineAfter(Clock::time_point base, int64_t micros)
{
    if (micros < 0)
        return Clock::time_point::max();
    const auto room = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::time_point::max() - base);
    if (micros >= room.count())
        return Clock::time_point::max();
    return base + std::chrono::microseconds(micros);
}

int
DenoiseServer::effectiveSteps(const DenoiseRequest &req) const
{
    return req.steps > 0 ? req.steps : model_.defaultSteps();
}

int64_t
DenoiseServer::queueDepthLocked() const
{
    int64_t depth = 0;
    for (const std::deque<Pending> &q : queues_)
        depth += static_cast<int64_t>(q.size());
    return depth;
}

DenoiseServer::BestWork
DenoiseServer::bestWorkLocked() const
{
    BestWork b;
    for (int c = 0; c < kNumSloClasses; ++c) {
        if (!queues_[static_cast<size_t>(c)].empty()) {
            b.queued = c;
            break;
        }
    }
    for (size_t i = 0; i < parked_.size(); ++i) {
        // A parked entry whose ticket has a migration pending belongs
        // to the exporter: admission must not resume it, a worker must
        // not count it as runnable work (else idle workers would spin
        // on it).
        const Ticket &t = tickets_.at(parked_[i].id);
        if (!t.migrateRequested && static_cast<int>(t.slo) < b.parked) {
            b.parked = static_cast<int>(t.slo);
            b.parkedAt = i;
        }
    }
    return b;
}

void
DenoiseServer::updateShedLocked()
{
    const int64_t depth = queueDepthLocked();
    if (!shedding_ && depth >= cfg_.effectiveShedHigh()) {
        shedding_ = true;
        ++metrics_.shedEntered;
    } else if (shedding_ && depth <= cfg_.effectiveShedLow()) {
        shedding_ = false;
        ++metrics_.shedExited;
    }
}

DenoiseResult
DenoiseServer::makeResultLocked(uint64_t id) const
{
    const Ticket &t = tickets_.at(id);
    const Clock::time_point now = Clock::now();
    DenoiseResult r;
    r.id = id;
    r.slo = t.slo;
    r.degraded = t.degraded;
    r.preemptions = t.preemptions;
    r.reusedSteps = t.reusedSteps;
    if (t.state == RequestStatus::Queued) {
        r.queueMicros = microsBetween(t.submitted, now);
        r.serviceMicros = 0.0;
    } else {
        r.queueMicros = microsBetween(t.submitted, t.admitted);
        r.serviceMicros = microsBetween(t.admitted, now);
    }
    return r;
}

void
DenoiseServer::finalizeLocked(uint64_t id, RequestStatus status,
                              DenoiseResult &&result)
{
    Ticket &t = tickets_.at(id);
    DITTO_ASSERT(!isTerminal(t.state), "finalizing a terminal ticket");
    t.state = status;
    result.status = status;
    ClassMetrics &cm = metrics_.perClass[static_cast<size_t>(t.slo)];
    switch (status) {
      case RequestStatus::Done:
        ++cm.completed;
        cm.serviceUs.record(result.serviceMicros);
        cm.e2eUs.record(result.queueMicros + result.serviceMicros);
        break;
      case RequestStatus::Cancelled:
        ++cm.cancelled;
        break;
      case RequestStatus::TimedOut:
        ++cm.timedOut;
        break;
      case RequestStatus::Rejected:
        // Cause-specific counters (capacity / shed / fault) are
        // incremented at the rejection site.
        break;
      case RequestStatus::Migrated:
        ++metrics_.migratedOut;
        break;
      default:
        DITTO_PANIC("finalize to non-terminal state");
    }
    reuseBase_.erase(id); // checkpoint identity dies with the request
    results_[id] = std::move(result);
}

void
DenoiseServer::finalizeEmptyLocked(uint64_t id, RequestStatus status)
{
    DenoiseResult r = makeResultLocked(id);
    finalizeLocked(id, status, std::move(r));
}

void
DenoiseServer::finalizeParkedLocked(const BatchEngine::Parked &p,
                                    RequestStatus status)
{
    DenoiseResult r = makeResultLocked(p.id);
    r.steps = p.stepsDone;
    r.dittoOps = p.ops;
    finalizeLocked(p.id, status, std::move(r));
}

void
DenoiseServer::parkLocked(BatchEngine::Parked p)
{
    tickets_.at(p.id).state = RequestStatus::Parked;
    parked_.push_back(std::move(p));
    metrics_.parkedPeak = std::max(metrics_.parkedPeak,
                                   static_cast<uint64_t>(parked_.size()));
}

uint64_t
DenoiseServer::submit(const DenoiseRequest &req)
{
    // Reject malformed requests at the API boundary, in the caller's
    // thread — a bad request must not take down a worker mid-batch.
    if (req.mode != RunMode::QuantDitto &&
        req.mode != RunMode::QuantDirect &&
        req.mode != RunMode::ApproxDitto)
        DITTO_FATAL("submit: only quantized modes are served batched");
    if (req.steps < 0)
        DITTO_FATAL("submit: negative step count " << req.steps);
    if (req.maxWaitMicros < -1)
        DITTO_FATAL("submit: malformed maxWaitMicros "
                    << req.maxWaitMicros << " (want -1, 0 or a window)");
    if (req.deadlineMicros < -1)
        DITTO_FATAL("submit: malformed deadlineMicros "
                    << req.deadlineMicros << " (want -1, 0 or a budget)");
    if (static_cast<int>(req.slo) >= kNumSloClasses)
        DITTO_FATAL("submit: unknown SLO class "
                    << static_cast<int>(req.slo));

    const bool fault_reject = faults::inject(faults::Point::Submit);

    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_ || shutdown_)
        DITTO_FATAL("submit after DenoiseServer::shutdown()");
    const Clock::time_point now = Clock::now();
    const uint64_t id = nextId_++;
    Ticket t;
    t.slo = req.slo;
    t.submitted = now;
    t.deadline = deadlineAfter(now, req.deadlineMicros);
    tickets_[id] = t;
    ClassMetrics &cm = metrics_.perClass[static_cast<size_t>(req.slo)];
    ++cm.submitted;

    if (fault_reject) {
        ++cm.rejectedFault;
        finalizeEmptyLocked(id, RequestStatus::Rejected);
        lock.unlock();
        resultReady_.notify_all();
        return id;
    }

    // Overload shedding, deterministic and class-ordered: reject the
    // lowest class outright, force-degrade the middle class, leave the
    // highest class untouched (docs/serving.md).
    updateShedLocked();
    DenoiseRequest effective = req;
    if (shedding_) {
        if (req.slo == SloClass::BestEffort) {
            ++cm.rejectedShed;
            finalizeEmptyLocked(id, RequestStatus::Rejected);
            lock.unlock();
            resultReady_.notify_all();
            return id;
        }
        if (req.slo == SloClass::Standard) {
            // Degrade quality, not step count: the request runs its
            // full trajectory in ApproxDitto, which sheds compute by
            // skipping temporally stable blocks (docs/approx_reuse.md)
            // instead of truncating the denoise.
            effective.mode = RunMode::ApproxDitto;
            tickets_[id].degraded = true;
            ++cm.degraded;
        }
    }

    // Admission control: bounded queue; block-then-reject or reject
    // immediately, per configuration.
    if (queueDepthLocked() >= cfg_.queueCapacity &&
        cfg_.admitBlockMicros > 0) {
        const Clock::time_point block_until =
            deadlineAfter(now, cfg_.admitBlockMicros);
        spaceAvailable_.wait_until(lock, block_until, [&] {
            return stopping_ ||
                   queueDepthLocked() < cfg_.queueCapacity;
        });
    }
    if (stopping_ || queueDepthLocked() >= cfg_.queueCapacity) {
        ++cm.rejectedCapacity;
        finalizeEmptyLocked(id, RequestStatus::Rejected);
        lock.unlock();
        resultReady_.notify_all();
        return id;
    }

    tickets_[id].req = effective; // for exportForMigration
    Pending p;
    p.id = id;
    p.req = effective;
    p.submitted = now;
    queues_[static_cast<size_t>(req.slo)].push_back(std::move(p));
    metrics_.queueDepthPeak =
        std::max(metrics_.queueDepthPeak,
                 static_cast<uint64_t>(queueDepthLocked()));
    lock.unlock();
    workAvailable_.notify_one();
    return id;
}

bool
DenoiseServer::cancel(uint64_t id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = tickets_.find(id);
    if (it == tickets_.end() || isTerminal(it->second.state))
        return false;
    Ticket &t = it->second;
    switch (t.state) {
      case RequestStatus::Queued: {
        // Usually still in its class queue — remove and finalize
        // synchronously. A worker may have popped it already (it is
        // being admitted right now); then the flag is honored at the
        // admission recheck, before any step runs.
        std::deque<Pending> &q =
            queues_[static_cast<size_t>(t.slo)];
        for (auto qi = q.begin(); qi != q.end(); ++qi) {
            if (qi->id == id) {
                q.erase(qi);
                finalizeEmptyLocked(id, RequestStatus::Cancelled);
                lock.unlock();
                resultReady_.notify_all();
                spaceAvailable_.notify_all();
                return true;
            }
        }
        t.cancelRequested = true;
        return true;
      }
      case RequestStatus::Parked: {
        for (auto pi = parked_.begin(); pi != parked_.end(); ++pi) {
            if (pi->id == id) {
                finalizeParkedLocked(*pi, RequestStatus::Cancelled);
                parked_.erase(pi);
                lock.unlock();
                resultReady_.notify_all();
                return true;
            }
        }
        t.cancelRequested = true; // being resumed right now
        return true;
      }
      case RequestStatus::Running:
        // Step-granular: the owning worker evicts the slot at the
        // next step boundary.
        t.cancelRequested = true;
        return true;
      default:
        return false;
    }
}

RequestStatus
DenoiseServer::queryState(uint64_t id) const
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = tickets_.find(id);
    if (it == tickets_.end())
        DITTO_FATAL("queryState on an unknown or consumed ticket " << id);
    return it->second.state;
}

bool
DenoiseServer::poll(uint64_t id, DenoiseResult *out)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = results_.find(id);
    if (it == results_.end()) {
        // A ticket that was never issued, or whose result was already
        // retrieved, can never become ready — fail loudly instead of
        // letting a poll loop spin forever.
        if (tickets_.find(id) == tickets_.end())
            DITTO_FATAL("poll on an unknown or already-consumed ticket "
                        << id);
        return false;
    }
    *out = std::move(it->second);
    results_.erase(it);
    tickets_.erase(id);
    // Wake any waiter racing on the same ticket so it fails loudly
    // instead of sleeping forever on a consumed id.
    lock.unlock();
    resultReady_.notify_all();
    return true;
}

DenoiseResult
DenoiseServer::wait(uint64_t id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (results_.find(id) == results_.end() &&
        tickets_.find(id) == tickets_.end())
        DITTO_FATAL("wait on an unknown or already-consumed ticket "
                    << id);
    // Also wake when the ticket disappears: a concurrent poll()/wait()
    // that consumed it must turn this wait into a loud failure, not an
    // endless sleep.
    resultReady_.wait(lock, [&] {
        return results_.find(id) != results_.end() ||
               tickets_.find(id) == tickets_.end();
    });
    auto it = results_.find(id);
    if (it == results_.end())
        DITTO_FATAL("ticket " << id << " consumed by a concurrent caller");
    DenoiseResult out = std::move(it->second);
    results_.erase(it);
    tickets_.erase(id);
    lock.unlock();
    resultReady_.notify_all();
    return out;
}

ServeMetrics
DenoiseServer::metrics() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    ServeMetrics snap = metrics_;
    snap.queueDepth = static_cast<uint64_t>(queueDepthLocked());
    snap.parked = static_cast<uint64_t>(parked_.size());
    snap.shedding = shedding_;
    if (cache_) {
        const ReuseCacheStats rs = cache_->stats();
        snap.reuseHits = rs.hits;
        snap.reuseMisses = rs.misses;
        snap.reuseStores = rs.stores;
        snap.reuseEvictions = rs.evictions;
        snap.reuseStepsSaved = rs.stepsSaved;
        snap.reuseBytes = rs.bytes;
        snap.reuseEntries = rs.entries;
        snap.reuseGeneration = rs.generation;
    }
    return snap;
}

std::string
DenoiseServer::metricsJson() const
{
    return metrics().toJson();
}

bool
DenoiseServer::exportForMigration(uint64_t id, MigratedRequest *out,
                                  int64_t waitMicros)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = tickets_.find(id);
    if (it == tickets_.end() || isTerminal(it->second.state) || stopping_)
        return false;
    const Clock::time_point now = Clock::now();

    // The portable identity: the effective request with its deadline
    // re-expressed as the remaining budget (absolute steady-clock
    // points do not cross processes).
    const auto portableReq = [&](const Ticket &t) {
        DenoiseRequest r = t.req;
        r.deadlineMicros =
            t.deadline == Clock::time_point::max()
                ? -1
                : std::max<int64_t>(
                      0, static_cast<int64_t>(microsBetween(now,
                                                            t.deadline)));
        return r;
    };

    // Queued and still in its class queue: export cold — the rollout
    // never started, and by the determinism contract the importer's
    // cold run is bitwise the same trajectory.
    if (it->second.state == RequestStatus::Queued) {
        std::deque<Pending> &q =
            queues_[static_cast<size_t>(it->second.slo)];
        for (auto qi = q.begin(); qi != q.end(); ++qi) {
            if (qi->id != id)
                continue;
            out->req = portableReq(it->second);
            out->state =
                BatchEngine::Parked::unstarted(model_, id, it->second.req);
            q.erase(qi);
            finalizeEmptyLocked(id, RequestStatus::Migrated);
            lock.unlock();
            resultReady_.notify_all();
            spaceAvailable_.notify_all();
            return true;
        }
        // Popped by a worker — it is being admitted right now; fall
        // through to the flag-and-wait path and take it at the next
        // step boundary.
    }

    // Running (or mid-admission): flag it; the owning worker parks it
    // at the next step boundary and the entry arrives in the parked
    // pool *held* (admission skips it). Already-parked requests
    // satisfy the predicate immediately.
    it->second.migrateRequested = true;
    const Clock::time_point give_up = deadlineAfter(now, waitMicros);
    const auto parkedIt = [&] {
        for (auto pi = parked_.begin(); pi != parked_.end(); ++pi) {
            if (pi->id == id)
                return pi;
        }
        return parked_.end();
    };
    resultReady_.wait_until(lock, give_up, [&] {
        if (stopping_)
            return true;
        auto ti = tickets_.find(id);
        if (ti == tickets_.end() || isTerminal(ti->second.state))
            return true;
        return ti->second.state == RequestStatus::Parked &&
               parkedIt() != parked_.end();
    });

    auto ti = tickets_.find(id);
    bool ok = false;
    if (!stopping_ && ti != tickets_.end() &&
        ti->second.state == RequestStatus::Parked) {
        auto pi = parkedIt();
        if (pi != parked_.end()) {
            out->req = portableReq(ti->second);
            out->state = std::move(*pi);
            parked_.erase(pi);
            finalizeParkedLocked(out->state, RequestStatus::Migrated);
            ok = true;
        }
    }
    if (!ok && ti != tickets_.end())
        ti->second.migrateRequested = false; // resume locally
    lock.unlock();
    resultReady_.notify_all();
    workAvailable_.notify_all(); // an un-held entry is runnable again
    return ok;
}

uint64_t
DenoiseServer::importMigrated(const MigratedRequest &m)
{
    if (m.req.mode != RunMode::QuantDitto &&
        m.req.mode != RunMode::QuantDirect &&
        m.req.mode != RunMode::ApproxDitto)
        DITTO_FATAL("importMigrated: only quantized modes are served");
    const bool has_progress = m.state.stepsDone > 0 || m.state.hasState;

    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_ || shutdown_)
        DITTO_FATAL("importMigrated after DenoiseServer::shutdown()");
    const Clock::time_point now = Clock::now();
    const uint64_t id = nextId_++;
    Ticket t;
    t.slo = m.req.slo;
    t.submitted = now;
    t.deadline = deadlineAfter(now, m.req.deadlineMicros);
    t.req = m.req;
    ++metrics_.perClass[static_cast<size_t>(m.req.slo)].submitted;
    ++metrics_.migratedIn;
    if (has_progress) {
        // Partial progress re-enters through the parked pool exactly
        // like a preempted local request, and the next admission joins
        // it like any other Parked.
        t.admitted = now; // its queue time was spent on the exporter
        tickets_[id] = t;
        BatchEngine::Parked p = m.state;
        p.id = id;
        p.state.backRef = nullptr; // owns its bytes outright
        parkLocked(std::move(p));
    } else {
        // Never started: queue it normally (deliberately bypassing the
        // capacity bound — migration rebalances work that was already
        // admitted somewhere; the source's bound still applies).
        tickets_[id] = t;
        Pending p;
        p.id = id;
        p.req = m.req;
        p.submitted = now;
        queues_[static_cast<size_t>(m.req.slo)].push_back(std::move(p));
        metrics_.queueDepthPeak =
            std::max(metrics_.queueDepthPeak,
                     static_cast<uint64_t>(queueDepthLocked()));
    }
    lock.unlock();
    workAvailable_.notify_one();
    return id;
}

bool
DenoiseServer::popCandidateLocked(Candidate *out)
{
    for (;;) {
        // Highest-priority source: strict class order; at equal class
        // a parked request (older, already admitted once) beats a
        // queued one.
        const BestWork b = bestWorkLocked();
        if (b.best() == kNumSloClasses) {
            updateShedLocked();
            return false;
        }
        const Clock::time_point now = Clock::now();
        if (b.parked <= b.queued) {
            BatchEngine::Parked p = std::move(parked_[b.parkedAt]);
            parked_.erase(parked_.begin() +
                          static_cast<int64_t>(b.parkedAt));
            const Ticket &t = tickets_.at(p.id);
            if (t.cancelRequested || now >= t.deadline) {
                finalizeParkedLocked(p, t.cancelRequested
                                            ? RequestStatus::Cancelled
                                            : RequestStatus::TimedOut);
                continue;
            }
            out->fromParked = true;
            out->parked = std::move(p);
            return true;
        }
        std::deque<Pending> &q = queues_[static_cast<size_t>(b.queued)];
        Pending p = std::move(q.front());
        q.pop_front();
        updateShedLocked();
        const Ticket &t = tickets_.at(p.id);
        if (t.cancelRequested || now >= t.deadline) {
            finalizeEmptyLocked(p.id, t.cancelRequested
                                          ? RequestStatus::Cancelled
                                          : RequestStatus::TimedOut);
            continue;
        }
        out->fromParked = false;
        out->pending = std::move(p);
        return true;
    }
}

bool
DenoiseServer::admitCandidate(Candidate &c, BatchEngine::Parked *out)
{
    const uint64_t id = c.fromParked ? c.parked.id : c.pending.id;
    const bool fault_reject = faults::inject(
        c.fromParked ? faults::Point::Resume : faults::Point::Admission);
    // Inter-request reuse: look up the deepest cached prefix before the
    // recheck (the lookup itself never blocks the server lock). A
    // reuse_install fault forces a cold start — never an error;
    // resumes keep their own state.
    ReuseCache::EntryPtr warm;
    PrefixBase base{};
    if (!c.fromParked && cache_) {
        const DenoiseRequest &req = c.pending.req;
        base = makePrefixBase(model_, req.seed, req.conditioning, req.mode);
        if (!faults::inject(faults::Point::ReuseInstall))
            warm = cache_->lookup(base, effectiveSteps(req) - 1);
    }
    {
        std::unique_lock<std::mutex> lock(mutex_);
        Ticket &t = tickets_.at(id);
        ClassMetrics &cm = metrics_.perClass[static_cast<size_t>(t.slo)];
        // A cancel or deadline that landed while the candidate was in
        // flight, or an injected admission fault, drops it here.
        const Clock::time_point now = Clock::now();
        RequestStatus drop_as = RequestStatus::Running;
        if (t.cancelRequested)
            drop_as = RequestStatus::Cancelled;
        else if (now >= t.deadline)
            drop_as = RequestStatus::TimedOut;
        else if (fault_reject)
            drop_as = RequestStatus::Rejected;
        if (drop_as != RequestStatus::Running) {
            if (drop_as == RequestStatus::Rejected)
                ++cm.rejectedFault;
            if (c.fromParked)
                finalizeParkedLocked(c.parked, drop_as);
            else
                finalizeEmptyLocked(id, drop_as);
            lock.unlock();
            resultReady_.notify_all();
            return false;
        }
        if (t.state == RequestStatus::Queued) {
            t.admitted = now;
            ++cm.admitted;
            cm.queueUs.record(microsBetween(t.submitted, now));
        } else {
            ++cm.resumed;
        }
        if (!c.fromParked && cache_) {
            reuseBase_[id] = base;
            t.reusedSteps = warm ? warm->key.steps : 0;
        }
        t.state = RequestStatus::Running;
    }
    if (c.fromParked) {
        *out = std::move(c.parked);
    } else if (warm) {
        *out = makeWarmParked(model_, id, c.pending.req, warm);
        cache_->recordInstalled(warm->key.steps);
    } else {
        *out = BatchEngine::Parked::cold(model_, id, c.pending.req);
    }
    return true;
}

void
DenoiseServer::workerLoop()
{
    BatchEngine engine(model_, cfg_.maxBatch);
    std::vector<BatchEngine::Parked> joins; // one burst per join()
    // Queue pops, lifecycle decisions, timing and stats happen under
    // the lock; the engine mutations they lead to (noise generation,
    // stacked state edits, parking, the step itself) run outside it so
    // submit/poll/wait/cancel callers and other workers never wait on
    // them. Slot indices planned under the lock stay valid outside it
    // because only this worker mutates this engine.
    for (;;) {
        std::vector<Candidate> selected;
        std::vector<int64_t> parks; // descending slot indices
        bool formed = false;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            const auto roomLeft = [&] {
                return cfg_.maxBatch -
                       (engine.active() +
                        static_cast<int64_t>(selected.size()) -
                        static_cast<int64_t>(parks.size()));
            };
            if (engine.empty()) {
                const auto haveWork = [&] {
                    return bestWorkLocked().best() < kNumSloClasses;
                };
                workAvailable_.wait(lock, [&] {
                    return stopping_ || haveWork();
                });
                if (!haveWork()) {
                    DITTO_ASSERT(stopping_, "spurious worker wake");
                    return;
                }
                // Deadline-aware batch formation: take the oldest
                // highest-class request, then hold the batch open for
                // co-batchable arrivals until it fills or the earliest
                // taken window expires. Parked work collapses the
                // window — a preempted request must not wait again.
                Clock::time_point window = Clock::time_point::max();
                const auto take = [&] {
                    Candidate c;
                    while (roomLeft() > 0 && popCandidateLocked(&c)) {
                        if (c.fromParked) {
                            window = Clock::now();
                        } else {
                            const int64_t wait_us =
                                c.pending.req.maxWaitMicros >= 0
                                    ? c.pending.req.maxWaitMicros
                                    : cfg_.maxWaitMicros;
                            window = std::min(
                                window,
                                deadlineAfter(c.pending.submitted,
                                              wait_us));
                        }
                        selected.push_back(std::move(c));
                    }
                };
                take();
                if (selected.empty()) {
                    // Everything eligible was pruned (cancelled or
                    // expired in the queue) — publish those
                    // finalizations before sleeping again.
                    lock.unlock();
                    resultReady_.notify_all();
                    spaceAvailable_.notify_all();
                    continue;
                }
                formed = true;
                ++metrics_.batchesFormed;
                while (roomLeft() > 0 && !stopping_ &&
                       Clock::now() < window) {
                    if (workAvailable_.wait_until(lock, window) ==
                        std::cv_status::timeout)
                        break;
                    take();
                }
            } else {
                // Continuous batching: grab whatever is eligible, no
                // waiting — running requests must not stall.
                Candidate c;
                while (roomLeft() > 0 && popCandidateLocked(&c))
                    selected.push_back(std::move(c));
                // SLO-aware preemption: while a strictly higher class
                // waits and the batch is full, park the worst running
                // slot (lowest class; ties: least progress lost, then
                // highest index) between steps.
                int want = bestWorkLocked().best();
                while (want < kNumSloClasses && roomLeft() <= 0) {
                    int64_t victim = -1;
                    int victim_class = want;
                    int victim_steps = 0;
                    for (int64_t i = 0; i < engine.active(); ++i) {
                        if (std::find(parks.begin(), parks.end(), i) !=
                            parks.end())
                            continue;
                        const Ticket &t =
                            tickets_.at(engine.slotId(i));
                        const int c = static_cast<int>(t.slo);
                        const int steps = engine.slotStepsDone(i);
                        if (c > victim_class ||
                            (victim >= 0 && c == victim_class &&
                             (steps < victim_steps ||
                              (steps == victim_steps && i > victim)))) {
                            victim = i;
                            victim_class = c;
                            victim_steps = steps;
                        }
                    }
                    if (victim < 0)
                        break; // nothing lower-class than the waiter
                    parks.push_back(victim);
                    Candidate c2;
                    if (!popCandidateLocked(&c2)) {
                        parks.pop_back(); // waiter vanished (pruned)
                        break;
                    }
                    selected.push_back(std::move(c2));
                    want = bestWorkLocked().best();
                }
                std::sort(parks.rbegin(), parks.rend());
            }
        }
        spaceAvailable_.notify_all();
        resultReady_.notify_all(); // pruning may have finalized tickets

        // Preemptions: evict between steps, park the partial state.
        for (int64_t i : parks) {
            faults::inject(faults::Point::Park);
            BatchEngine::Parked p = engine.park(i);
            {
                std::unique_lock<std::mutex> lock(mutex_);
                Ticket &t = tickets_.at(p.id);
                ++t.preemptions;
                ++metrics_.perClass[static_cast<size_t>(t.slo)]
                      .preempted;
                parkLocked(std::move(p));
            }
            workAvailable_.notify_one(); // another engine may resume it
        }

        // Admissions and resumes join as one burst. The burst is
        // cleared right away: a warm entry's copy must not pin its
        // cache entry (SlabState::backRef) beyond the slab it joined.
        for (Candidate &c : selected) {
            BatchEngine::Parked p;
            if (admitCandidate(c, &p))
                joins.push_back(std::move(p));
        }
        engine.join(joins);
        joins.clear();

        if (engine.empty())
            continue; // every candidate dropped at the recheck

        if (formed)
            faults::inject(faults::Point::BatchForm);
        faults::inject(faults::Point::StepBegin);
        engine.step();
        faults::inject(faults::Point::StepEnd);

        // Post-step bookkeeping: retire finished slots, evict
        // cancelled and expired ones, prune the parked pool, and plan
        // handovers (the continuous-batching fast path hands a vacated
        // slab straight to the next request).
        struct Removal
        {
            int64_t slot;
            uint64_t id;
            RequestStatus status;
        };
        std::vector<Removal> removals; // descending slot order
        std::vector<Candidate> repl;
        struct Checkpoint
        {
            int64_t slot;
            PrefixKey key;
        };
        std::vector<Checkpoint> checkpoints;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ++metrics_.steps;
            metrics_.stepRequests +=
                static_cast<uint64_t>(engine.active());
            const Clock::time_point now = Clock::now();
            // Plan reuse checkpoints under the lock (key identity and
            // cancel flags live here); the state copies run outside
            // it, before any slot is removed or handed over, so the
            // slot indices stay valid. Finished slots checkpoint too —
            // a completed 8-step prefix warm-starts a later 12-step
            // request.
            if (cache_) {
                const int every = cache_->config().checkpointEvery;
                for (int64_t i = 0; i < engine.active(); ++i) {
                    const Ticket &t = tickets_.at(engine.slotId(i));
                    const int done = engine.slotStepsDone(i);
                    if (t.cancelRequested || done % every != 0 ||
                        done <= t.reusedSteps)
                        continue;
                    auto bi = reuseBase_.find(engine.slotId(i));
                    if (bi == reuseBase_.end())
                        continue;
                    checkpoints.push_back(
                        {i, PrefixKey{bi->second, done}});
                }
            }
            for (int64_t i = engine.active() - 1; i >= 0; --i) {
                const uint64_t id = engine.slotId(i);
                const Ticket &t = tickets_.at(id);
                if (engine.slotFinished(i))
                    removals.push_back({i, id, RequestStatus::Done});
                else if (t.cancelRequested)
                    removals.push_back(
                        {i, id, RequestStatus::Cancelled});
                else if (now >= t.deadline)
                    removals.push_back(
                        {i, id, RequestStatus::TimedOut});
                else if (t.migrateRequested)
                    // Park-out for migration: Parked is the plan's
                    // non-terminal sentinel — the slot is parked into
                    // the pool (held for the exporter), not finalized.
                    removals.push_back({i, id, RequestStatus::Parked});
            }
            // Expired or cancelled parked requests must not linger
            // until a pop considers them: prune once per step.
            for (size_t i = parked_.size(); i-- > 0;) {
                const Ticket &t = tickets_.at(parked_[i].id);
                if (!t.cancelRequested && now < t.deadline)
                    continue;
                finalizeParkedLocked(parked_[i],
                                     t.cancelRequested
                                         ? RequestStatus::Cancelled
                                         : RequestStatus::TimedOut);
                parked_.erase(parked_.begin() +
                              static_cast<int64_t>(i));
            }
            Candidate c;
            while (repl.size() < removals.size() &&
                   popCandidateLocked(&c))
                repl.push_back(std::move(c));
        }
        spaceAvailable_.notify_all();
        resultReady_.notify_all(); // parked-pool pruning may finalize

        // Store planned checkpoints while every planned slot index is
        // still valid (nothing has mutated the engine since the plan).
        // A reuse_store fault skips the store — checkpoints are pure
        // acceleration, losing one can only cost future hits.
        for (const Checkpoint &cp : checkpoints) {
            if (faults::inject(faults::Point::ReuseStore))
                continue;
            BatchEngine::Parked snap = engine.snapshot(cp.slot);
            cache_->store(cp.key, std::move(snap.image),
                          std::move(snap.state), snap.hasState);
        }

        size_t r_idx = 0;
        for (const Removal &rm : removals) {
            const bool migrating = rm.status == RequestStatus::Parked;
            if (migrating) {
                // Park-out for migration: capture the portable state
                // into the parked pool, where the entry stays *held*
                // (admission skips it) until the exporter takes it —
                // or until the flag is cleared and it resumes here.
                faults::inject(faults::Point::Park);
                BatchEngine::Parked p = engine.park(rm.slot);
                {
                    std::unique_lock<std::mutex> lock(mutex_);
                    parkLocked(std::move(p));
                }
                resultReady_.notify_all();   // the exporter waits here
                workAvailable_.notify_all(); // flag may have cleared
            } else if (rm.status == RequestStatus::Done) {
                BatchEngine::Finished f = engine.extract(rm.slot);
                std::unique_lock<std::mutex> lock(mutex_);
                DenoiseResult r = makeResultLocked(rm.id);
                r.image = std::move(f.image);
                r.dittoOps = f.ops;
                r.steps = f.steps;
                finalizeLocked(rm.id, RequestStatus::Done,
                               std::move(r));
            } else {
                const int steps_done = engine.slotStepsDone(rm.slot);
                std::unique_lock<std::mutex> lock(mutex_);
                DenoiseResult r = makeResultLocked(rm.id);
                r.steps = steps_done;
                finalizeLocked(rm.id, rm.status, std::move(r));
            }
            // Handover: the next candidate takes the vacated slab in
            // place instead of shrinking and regrowing the stacked
            // state. park() has already removed a migrating slot, so
            // its successor joins the appended burst instead.
            BatchEngine::Parked p;
            if (r_idx < repl.size() && admitCandidate(repl[r_idx++], &p)) {
                if (migrating)
                    joins.push_back(std::move(p));
                else
                    engine.joinInto(rm.slot, p);
            } else if (!migrating) {
                engine.removeSlot(rm.slot);
            }
        }
        engine.join(joins);
        joins.clear();
        resultReady_.notify_all();
    }
}

} // namespace ditto
