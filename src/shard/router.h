/**
 * @file
 * ShardRouter: the front door of a multi-worker serving tier.
 *
 * The router owns one ShardClient per worker and presents the single-
 * server surface (submit/poll/wait/cancel) over the whole tier, with
 * router-level tickets (gids) that survive worker failure. Policies:
 *
 *  - Prefix-affinity routing: requests are routed by rendezvous
 *    hashing on their reuse identity (seed, conditioning, mode), so
 *    near-duplicate requests land on the worker whose reuse cache
 *    already holds their prefix. A warm route is only overridden when
 *    the affinity worker is overloaded relative to the least-loaded
 *    one by more than DITTO_SHARD_AFFINITY_SLACK outstanding requests
 *    — then deadline pressure wins over cache warmth.
 *  - Failure detection + cold resubmission: any transport failure
 *    marks the worker dead and every outstanding route on it is
 *    placed again from step 0. That is bitwise-safe by the determinism
 *    contract — a request's trajectory is a pure function of (model,
 *    seed, mode, steps), so a cold rerun produces the identical image.
 *    Every placement — a new request, a dead worker's routes, a ticket
 *    the worker no longer knows, a migration nobody adopts — goes
 *    through one helper, which passes over refusing and dead workers
 *    and resolves the route as RequestStatus::Rejected when no healthy
 *    worker is left.
 *  - Explicit migration: migrate(gid, worker) relocates a request's
 *    partial progress (MigrateOut -> MigrateIn) for rebalancing and
 *    drain-ahead-of-maintenance; resumed results stay bitwise
 *    identical for exact modes.
 *  - Merged metrics: metricsJson() embeds every worker's export and
 *    rolls up reuse counters across workers by summing each worker's
 *    last scraped counters; a worker's counters never decrease (a
 *    cache clear keeps them), so the sums never double-count.
 *
 * All workers must serve the same compiled model — identity
 * ((spec hash, calibration digest)) is checked at addWorker.
 *
 * The router can additionally serve the shard protocol itself
 * (serve()): a front-door socket speaking Submit/Poll/Cancel/
 * QueryState/Metrics/Drain with gids for tickets, so load generators
 * talk to a 4-worker tier exactly as they talk to one worker. The
 * front door is a shard::Endpoint (src/shard/endpoint.h), the same one
 * a worker serves through, with the router's operations as handlers
 * and no migration handlers: it screens gids by the same rules, so no
 * wire peer reaches poll()'s or queryState()'s loud failure.
 */
#ifndef DITTO_SHARD_ROUTER_H
#define DITTO_SHARD_ROUTER_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "shard/client.h"
#include "shard/endpoint.h"

namespace ditto {
namespace shard {

/** Router tuning knobs; both have environment overrides. */
struct RouterConfig
{
    /**
     * How many outstanding requests the affinity worker may carry
     * above the least-loaded worker before affinity is overridden
     * (DITTO_SHARD_AFFINITY_SLACK).
     */
    int64_t affinitySlack = 2;

    /** wait() poll interval in microseconds (DITTO_SHARD_POLL_US). */
    int64_t pollMicros = 500;

    static RouterConfig fromEnv();
};

/** Front-door router over N shard workers. Thread-safe. */
class ShardRouter
{
  public:
    explicit ShardRouter(RouterConfig cfg = RouterConfig::fromEnv());

    ShardRouter(const ShardRouter &) = delete;
    ShardRouter &operator=(const ShardRouter &) = delete;

    /**
     * Connect a worker socket. The first worker fixes the tier's model
     * identity; later workers must match it (false + why otherwise).
     * Returns the worker index on success via *idx (optional).
     */
    bool addWorker(const std::string &socketPath, std::string *why = nullptr,
                   int *idx = nullptr);

    int numWorkers() const;
    int numHealthy() const;
    const WorkerInfo &info() const { return info_; }

    /**
     * Route and submit; returns a router ticket (gid). Never fails at
     * the router: if no worker accepts, the gid resolves to a Rejected
     * result.
     */
    uint64_t submit(const DenoiseRequest &req);

    /**
     * Index of the worker currently serving `gid`; -1 when the route
     * already resolved. Observability for tests and rebalancers
     * picking migration targets.
     */
    int routeWorker(uint64_t gid) const;

    /**
     * Non-blocking result retrieval; true exactly once per gid. A
     * worker failure observed underneath resolves through cold
     * resubmission transparently.
     */
    bool poll(uint64_t gid, DenoiseResult *out);

    /** Block until `gid` resolves; the gid is consumed. */
    DenoiseResult wait(uint64_t gid);

    /** Cancel wherever the request currently lives. */
    bool cancel(uint64_t gid);

    /** Lifecycle state (terminal once the result is ready). */
    RequestStatus queryState(uint64_t gid);

    /**
     * Relocate a live request onto worker `target` via
     * MigrateOut/MigrateIn. False when the request already finished,
     * the source declined, or no worker could adopt the state (the
     * request is then failed or still resolving locally — poll the
     * gid either way).
     */
    bool migrate(uint64_t gid, int target);

    /** Drain every healthy worker (blocks until all finish). */
    void drainAll();

    /**
     * Merged metrics: router counters, the cross-worker reuse roll-up
     * and each worker's own export embedded under "workers".
     */
    std::string metricsJson();

    /**
     * Serve the shard protocol on a front-door socket (after the
     * workers are added: Info answers with the tier's identity).
     */
    bool serve(const std::string &socketPath, std::string *why = nullptr);

    /** Close the front door; the destructor does too. */
    void stopServing();

  private:
    struct Worker
    {
        std::unique_ptr<ShardClient> client;
        bool healthy = false; //!< eligible for new routes
        bool dead = false;    //!< transport lost; routes were rehomed
        bool drained = false; //!< drained; its exit is not a failover
        int64_t outstanding = 0;

        /**
         * The reuse counters last scraped from this worker's metrics
         * export. One entry is one connection to one process, whose
         * counters never decrease (ReuseCache::clear() keeps them), so
         * the roll-up sums each worker's last scrape.
         */
        uint64_t lastHits = 0, lastMisses = 0, lastStores = 0;
        uint64_t lastSaved = 0;
    };

    /**
     * One routed request, alive until its result is consumed. Outside
     * mu_ a route is either done or owned by a worker.
     */
    struct Route
    {
        DenoiseRequest req; //!< for cold resubmission after failure
        int worker = -1;    //!< owner; -1 while being placed and once done
        uint64_t remoteId = 0;
        bool done = false;
        DenoiseResult result; //!< valid when done
    };

    // All *Locked methods require mu_ held.
    int pickWorkerLocked(const DenoiseRequest &req) const;
    int leastLoadedLocked() const;

    /**
     * Put `rt` (worker -1, not done) on a worker: the affinity pick,
     * passing over a worker that refuses (no longer healthy) or has
     * died (markDeadLocked); resolved Rejected when none is left.
     * `resubmit` counts it as a cold rerun.
     */
    void placeLocked(uint64_t gid, Route &rt, bool resubmit);

    /** Retire a dead worker and place each of its routes again. */
    void markDeadLocked(int idx);
    void resolveLocked(uint64_t gid, Route &rt, DenoiseResult &&res);
    bool pollRouteLocked(uint64_t gid, Route &rt);
    void scrapeReuseLocked(Worker &w, const std::string &json);

    const RouterConfig cfg_;
    mutable std::mutex mu_;
    std::vector<Worker> workers_;
    WorkerInfo info_;
    bool haveInfo_ = false;
    std::unordered_map<uint64_t, Route> routes_;
    uint64_t nextGid_ = 1;

    // Router-level counters (monotonic).
    uint64_t submitted_ = 0;
    uint64_t completed_ = 0;
    uint64_t resubmitted_ = 0;
    uint64_t migrations_ = 0;
    uint64_t failovers_ = 0; //!< undrained workers marked dead

    /** Last: its threads call into the router until it is destroyed. */
    std::unique_ptr<Endpoint> frontDoor_;
};

} // namespace shard
} // namespace ditto

#endif // DITTO_SHARD_ROUTER_H
