/**
 * @file
 * Asynchronous batched denoising server with a hardened request
 * lifecycle.
 *
 * submit() enqueues a request and returns a ticket; poll()/wait()
 * retrieve the finished result. A fixed pool of worker threads each
 * drives one BatchEngine. On top of the continuous-batching execution
 * core (PR 3), the server implements the full production lifecycle:
 *
 *   Queued -> Running <-> Parked -> {Done, Cancelled, TimedOut}
 *   submit() -> Rejected
 *
 *  - Admission control / backpressure: the queue is bounded
 *    (queueCapacity). A submit against a full queue either rejects
 *    immediately (result status Rejected) or, with admitBlockMicros
 *    set, blocks the caller up to that budget waiting for space.
 *  - Priorities: three SLO classes with strict-priority admission
 *    (Interactive > Standard > BestEffort, FIFO within a class).
 *  - Deadlines: per-request end-to-end deadlines (steady-clock
 *    absolute once submitted) enforced in the queue, at admission,
 *    between steps and while parked.
 *  - Step-granular preemption: when a higher class waits and every
 *    slot is busy, the worst lower-class slot is parked between steps
 *    (its partial image + counters; see BatchEngine::Parked) and
 *    resumed later — results stay bitwise identical to uninterrupted
 *    rollouts because difference execution equals direct execution
 *    bit for bit.
 *  - Cancellation: cancel(ticket) works in every non-terminal state.
 *  - Overload shedding with hysteresis: past shedHighWater queued
 *    requests the load watcher rejects incoming BestEffort work and
 *    force-degrades Standard work to RunMode::ApproxDitto — the full
 *    step count runs, but temporally stable blocks are skipped
 *    (docs/approx_reuse.md); it releases only below shedLowWater.
 *    Interactive traffic is never touched.
 *  - Inter-request reuse: with a reuse cache enabled
 *    (DITTO_REUSE_CAP_BYTES), running requests checkpoint their
 *    partial state and near-duplicate requests — same (model, seed,
 *    conditioning, mode) — warm-start from the deepest cached prefix
 *    instead of step 0, bitwise identical to a cold rollout for the
 *    exact modes (docs/reuse_cache.md).
 *  - Observability: per-class latency histograms and lifecycle
 *    counters (serve/metrics.h), exported as JSON.
 *  - Fault injection: deterministic delay/failure hooks on the whole
 *    request path (serve/faultpoints.h) drive the lifecycle tests.
 *
 * Batch formation stays deadline-aware (max-wait windows) and batching
 * continuous; results are bitwise identical to sequential rollouts
 * regardless of batch composition, admission order, preemption
 * schedule, worker count or thread count (docs/serving.md).
 */
#ifndef DITTO_SERVE_SERVER_H
#define DITTO_SERVE_SERVER_H

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/batch_rollout.h"
#include "serve/metrics.h"
#include "serve/prefix_key.h"
#include "serve/request.h"
#include "serve/reuse_cache.h"

namespace ditto {

/** Server tuning knobs; every field has an environment override. */
struct ServerConfig
{
    /** Max requests per engine batch (DITTO_SERVE_MAX_BATCH). */
    int64_t maxBatch = 8;

    /**
     * Default batch-formation window in microseconds
     * (DITTO_SERVE_MAX_WAIT_US): how long an idle engine holds its
     * first request open for co-batchable arrivals.
     */
    int64_t maxWaitMicros = 2000;

    /** Worker threads, one engine each (DITTO_SERVE_WORKERS). */
    int workers = 1;

    /**
     * Most requests allowed to wait in the class queues
     * (DITTO_SERVE_QUEUE_CAP). Running and parked requests don't
     * count. Beyond it submit() rejects (or blocks, below) — the
     * server's memory is bounded no matter the arrival rate.
     */
    int64_t queueCapacity = 64;

    /**
     * Backpressure mode (DITTO_SERVE_ADMIT_BLOCK_US): 0 rejects a
     * submit against a full queue immediately; > 0 blocks the caller
     * up to this many microseconds for space first, then rejects.
     */
    int64_t admitBlockMicros = 0;

    /**
     * Queue depth at which the load watcher starts shedding
     * (DITTO_SERVE_SHED_HIGH); 0 derives 3/4 of queueCapacity.
     */
    int64_t shedHighWater = 0;

    /**
     * Queue depth at which shedding is released
     * (DITTO_SERVE_SHED_LOW); 0 derives 1/4 of queueCapacity. The gap
     * to shedHighWater is the hysteresis band.
     */
    int64_t shedLowWater = 0;

    /**
     * Inter-request reuse cache (DITTO_REUSE_CAP_BYTES /
     * DITTO_REUSE_CHECKPOINT_EVERY; src/serve/reuse_cache.h). Off by
     * default. Ignored when the constructor is handed an external
     * cache — then the cache's own config governs.
     */
    ReuseCacheConfig reuse;

    /** Defaults with the DITTO_SERVE_* environment overrides applied. */
    static ServerConfig fromEnv();

    /** shedHighWater with the 0-derivation applied. */
    int64_t
    effectiveShedHigh() const
    {
        return shedHighWater > 0 ? shedHighWater
                                 : std::max<int64_t>(1, queueCapacity * 3 / 4);
    }

    /** shedLowWater with the 0-derivation applied. */
    int64_t
    effectiveShedLow() const
    {
        const int64_t low =
            shedLowWater > 0 ? shedLowWater : queueCapacity / 4;
        return std::min(low, effectiveShedHigh() - 1);
    }
};

/** Asynchronous multi-request denoising server over one CompiledModel. */
class DenoiseServer
{
  public:
    /**
     * `cache` shares an inter-request reuse cache across servers (the
     * cross-server reuse topology; entries self-invalidate across
     * models via the prefix key). Null creates a private cache when
     * cfg.reuse enables one, else serves without reuse.
     */
    explicit DenoiseServer(const CompiledModel &model,
                           ServerConfig cfg = ServerConfig::fromEnv(),
                           std::shared_ptr<ReuseCache> cache = nullptr);

    /** shutdown(), then destroys the result map (unretrieved results
     *  are dropped). */
    ~DenoiseServer();

    DenoiseServer(const DenoiseServer &) = delete;
    DenoiseServer &operator=(const DenoiseServer &) = delete;

    /**
     * Enqueue a request; returns its ticket. Every submit yields a
     * retrievable result — a rejected request's result (status
     * Rejected) is available immediately. Malformed requests (bad
     * mode/steps/window) and submit() after shutdown() fail loudly
     * (DITTO_FATAL) in the caller's thread.
     */
    uint64_t submit(const DenoiseRequest &req);

    /**
     * Non-blocking result retrieval: true exactly once per finished
     * ticket, moving the result into *out. A ticket that was never
     * issued or whose result was already consumed fails loudly
     * (DITTO_FATAL) instead of returning false forever.
     */
    bool poll(uint64_t id, DenoiseResult *out);

    /**
     * Block until ticket `id` reaches a terminal state and return its
     * result. Fails loudly (DITTO_FATAL, instead of deadlocking) on a
     * ticket that was never issued or already consumed — including a
     * concurrent poll()/wait() racing on the same ticket.
     */
    DenoiseResult wait(uint64_t id);

    /**
     * Request cancellation in any lifecycle state. Queued and parked
     * requests cancel synchronously; a running request is flagged and
     * evicted at the next step boundary (if it completes its final
     * step first, the result stays Done — the terminal status is
     * authoritative). Returns false for unknown/consumed tickets and
     * for requests already in a terminal state.
     */
    bool cancel(uint64_t id);

    /**
     * Current lifecycle state of a ticket. Terminal states are
     * reported until the result is consumed; an unknown or consumed
     * ticket fails loudly.
     */
    RequestStatus queryState(uint64_t id) const;

    /**
     * Stop accepting work, finish everything already accepted
     * (queued, running and parked requests all reach a terminal
     * state), and join the workers. Idempotent; called by the
     * destructor. Results stay retrievable afterwards.
     */
    void shutdown();

    /** Consistent snapshot of the full metrics surface. */
    ServeMetrics metrics() const;

    /** metrics().toJson() — the machine-readable export. */
    std::string metricsJson() const;

    /** The reuse cache in use (null when reuse is disabled). */
    std::shared_ptr<ReuseCache> reuseCache() const { return cache_; }

    /**
     * A request's portable identity + progress: everything another
     * DenoiseServer needs to continue it (src/shard/, docs/sharding.md).
     * `req` is the *effective* request (post-shedding mode) with its
     * deadline re-expressed as the remaining budget in microseconds —
     * absolute steady-clock points do not cross processes. `state` is
     * the park/resume transport; stepsDone == 0 && !hasState means the
     * rollout never started and the importer runs it cold (bitwise
     * identical by the determinism contract — the trajectory is a pure
     * function of (model, seed, mode, steps)).
     */
    struct MigratedRequest
    {
        DenoiseRequest req;
        BatchEngine::Parked state;
    };

    /**
     * Relinquish ticket `id` for migration to another worker. A queued
     * request is removed from its class queue and exported cold; a
     * parked one is exported as parked; a running one is flagged and
     * parked at its next step boundary (this call blocks up to
     * `waitMicros` for that). On success the local ticket terminates
     * as RequestStatus::Migrated (empty image) and *out carries the
     * portable state. False — with the request untouched and still
     * progressing locally — when the ticket is unknown, already
     * terminal, finishes before the boundary, or the server is
     * draining.
     */
    bool exportForMigration(uint64_t id, MigratedRequest *out,
                            int64_t waitMicros = 5'000'000);

    /**
     * Adopt a migrated request under a fresh ticket (returned).
     * Partial progress re-enters through the parked pool and resumes
     * at the next admission; never-started work queues normally.
     * Admission control is bypassed — migration rebalances work that
     * was already admitted somewhere — but deadlines keep counting:
     * the remaining budget in `m.req.deadlineMicros` re-anchors to
     * now. Fails loudly after shutdown(), like submit().
     */
    uint64_t importMigrated(const MigratedRequest &m);

  private:
    using Clock = std::chrono::steady_clock;

    struct Pending
    {
        uint64_t id = 0;
        DenoiseRequest req;
        Clock::time_point submitted;
    };

    /** Server-side lifecycle record, alive until the result is consumed. */
    struct Ticket
    {
        RequestStatus state = RequestStatus::Queued;
        SloClass slo = SloClass::Standard;
        bool cancelRequested = false;

        /**
         * exportForMigration wants this request parked at the next
         * step boundary. While set, a parked entry is *held*: the
         * admission paths skip it so the exporter — not a worker —
         * takes it. Cleared on export failure/timeout and by
         * shutdown() (a drain completes held work locally).
         */
        bool migrateRequested = false;
        bool degraded = false;
        int preemptions = 0;
        int reusedSteps = 0; //!< warm-start depth (0: cold)
        Clock::time_point submitted;
        Clock::time_point admitted;  //!< first admission (valid once
                                     //!< state has left Queued)
        Clock::time_point deadline;  //!< time_point::max(): none

        /**
         * The effective request (post-shedding mode), kept so
         * exportForMigration can reconstruct the portable identity of
         * a request in any lifecycle state. Only populated for
         * accepted requests (never for rejects).
         */
        DenoiseRequest req;
    };

    /** One admission candidate popped from the queues or parked pool. */
    struct Candidate
    {
        bool fromParked = false;
        Pending pending;            //!< valid when !fromParked
        BatchEngine::Parked parked; //!< valid when fromParked
    };

    /**
     * The highest-priority runnable work: the first non-empty class
     * queue, and the best-class parked entry not held for an exporter
     * (kNumSloClasses when there is none).
     */
    struct BestWork
    {
        int queued = kNumSloClasses;
        int parked = kNumSloClasses;
        size_t parkedAt = 0; //!< index into parked_, valid with `parked`
        int best() const { return std::min(queued, parked); }
    };

    void workerLoop();

    /**
     * The admission sequence, run on every candidate that is about to
     * take a slab (a join before the step, a handover after it): the
     * Admission or Resume fault point, the reuse lookup, the cancel /
     * deadline / fault recheck, the queue-time or resume accounting,
     * and the cold, warm or parked Parked it joins as. False when the
     * recheck finalized the candidate instead. Takes the lock itself.
     */
    bool admitCandidate(Candidate &c, BatchEngine::Parked *out);

    /** `base + micros`, saturating at Clock::time_point::max(). */
    static Clock::time_point deadlineAfter(Clock::time_point base,
                                           int64_t micros);

    // All *Locked helpers require mutex_ held.
    BestWork bestWorkLocked() const;
    int64_t queueDepthLocked() const;
    void updateShedLocked();
    bool popCandidateLocked(Candidate *out);

    /**
     * Put `p` into the parked pool (its ticket turns Parked): the one
     * way in for preemption, migration park-out and importMigrated.
     */
    void parkLocked(BatchEngine::Parked p);

    void finalizeLocked(uint64_t id, RequestStatus status,
                        DenoiseResult &&result);
    void finalizeEmptyLocked(uint64_t id, RequestStatus status);

    /** Finalize a request that holds no slab, with its progress. */
    void finalizeParkedLocked(const BatchEngine::Parked &p,
                              RequestStatus status);
    DenoiseResult makeResultLocked(uint64_t id) const;
    int effectiveSteps(const DenoiseRequest &req) const;

    const CompiledModel &model_;
    const ServerConfig cfg_;
    std::shared_ptr<ReuseCache> cache_; //!< null: reuse disabled

    mutable std::mutex mutex_;
    std::condition_variable workAvailable_;  //!< queue -> workers
    std::condition_variable resultReady_;    //!< results -> waiters
    std::condition_variable spaceAvailable_; //!< queue -> blocked submits
    std::array<std::deque<Pending>, kNumSloClasses> queues_;
    std::deque<BatchEngine::Parked> parked_;
    std::unordered_map<uint64_t, Ticket> tickets_;
    /**
     * Prefix identity of every live admitted request, registered at
     * first admission and erased with the ticket's terminal transition
     * (finalizeLocked) — the checkpoint path derives store keys from
     * it without rehashing the model per step.
     */
    std::unordered_map<uint64_t, PrefixBase> reuseBase_;
    std::unordered_map<uint64_t, DenoiseResult> results_;
    ServeMetrics metrics_;
    uint64_t nextId_ = 1;
    bool shedding_ = false;
    bool stopping_ = false; //!< drain mode: shutdown() in progress
    bool shutdown_ = false; //!< workers joined; submit() is an error

    std::vector<std::thread> workers_;
};

} // namespace ditto

#endif // DITTO_SERVE_SERVER_H
