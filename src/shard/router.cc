/**
 * @file
 * ShardRouter implementation (policies in router.h).
 */
#include "shard/router.h"

#include <cctype>
#include <chrono>
#include <thread>
#include <utility>

#include "common/env.h"
#include "common/logging.h"

namespace ditto {
namespace shard {

namespace {

/** 64-bit finalizer (splitmix64) — the rendezvous-hash mixer. */
uint64_t
mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/**
 * A request's reuse identity for routing: same (seed, conditioning,
 * mode) => same key => same affinity worker — the worker whose reuse
 * cache may already hold this request's prefix (src/serve/prefix_key.h
 * hashes the same triple plus the model identity, which is uniform
 * across the tier).
 */
uint64_t
affinityKey(const DenoiseRequest &req)
{
    uint64_t h = mix64(req.seed);
    h = mix64(h ^ req.conditioning);
    h = mix64(h ^ (static_cast<uint64_t>(req.mode) + 1));
    return h;
}

/** Scrape an unsigned JSON number by key (first occurrence). */
bool
scrapeU64(const std::string &json, const char *key, uint64_t *out)
{
    const std::string pat = std::string("\"") + key + "\":";
    const size_t p = json.find(pat);
    if (p == std::string::npos)
        return false;
    size_t i = p + pat.size();
    uint64_t v = 0;
    bool any = false;
    while (i < json.size() &&
           std::isdigit(static_cast<unsigned char>(json[i]))) {
        v = v * 10 + static_cast<uint64_t>(json[i] - '0');
        ++i;
        any = true;
    }
    if (any)
        *out = v;
    return any;
}

} // namespace

RouterConfig
RouterConfig::fromEnv()
{
    RouterConfig cfg;
    cfg.affinitySlack =
        env::readInt64("DITTO_SHARD_AFFINITY_SLACK", cfg.affinitySlack, 0,
                       1 << 20);
    cfg.pollMicros = env::readInt64("DITTO_SHARD_POLL_US", cfg.pollMicros, 1,
                                    10'000'000);
    return cfg;
}

ShardRouter::ShardRouter(RouterConfig cfg) : cfg_(cfg) {}

bool
ShardRouter::addWorker(const std::string &socketPath, std::string *why,
                       int *idx)
{
    auto client = std::make_unique<ShardClient>();
    if (!client->connect(socketPath, why))
        return false;
    std::lock_guard<std::mutex> lk(mu_);
    if (!haveInfo_) {
        info_ = client->info();
        haveInfo_ = true;
    } else if (client->info().specHash != info_.specHash ||
               client->info().calibDigest != info_.calibDigest) {
        if (why)
            *why = "worker " + socketPath +
                   " serves a different model than the tier";
        return false;
    }
    Worker w;
    w.client = std::move(client);
    w.healthy = true;
    workers_.push_back(std::move(w));
    if (idx)
        *idx = static_cast<int>(workers_.size()) - 1;
    return true;
}

int
ShardRouter::numWorkers() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<int>(workers_.size());
}

int
ShardRouter::numHealthy() const
{
    std::lock_guard<std::mutex> lk(mu_);
    int n = 0;
    for (const Worker &w : workers_)
        n += w.healthy ? 1 : 0;
    return n;
}

int
ShardRouter::leastLoadedLocked() const
{
    int best = -1;
    for (size_t i = 0; i < workers_.size(); ++i) {
        if (!workers_[i].healthy)
            continue;
        if (best < 0 ||
            workers_[i].outstanding < workers_[static_cast<size_t>(best)]
                                          .outstanding)
            best = static_cast<int>(i);
    }
    return best;
}

int
ShardRouter::pickWorkerLocked(const DenoiseRequest &req) const
{
    // Rendezvous hash: the healthy worker with the highest
    // (key, worker) score. Stable under worker death — keys that
    // hashed elsewhere keep their placement.
    const uint64_t key = affinityKey(req);
    int affinity = -1;
    uint64_t bestScore = 0;
    for (size_t i = 0; i < workers_.size(); ++i) {
        if (!workers_[i].healthy)
            continue;
        const uint64_t score =
            mix64(key ^ ((i + 1) * 0x9e3779b97f4a7c15ull));
        if (affinity < 0 || score > bestScore) {
            affinity = static_cast<int>(i);
            bestScore = score;
        }
    }
    if (affinity < 0)
        return -1;
    const int least = leastLoadedLocked();
    if (workers_[static_cast<size_t>(affinity)].outstanding >
        workers_[static_cast<size_t>(least)].outstanding +
            cfg_.affinitySlack)
        return least; // overloaded: load beats cache warmth
    return affinity;
}

void
ShardRouter::resolveLocked(uint64_t gid, Route &rt, DenoiseResult &&res)
{
    if (rt.worker >= 0)
        --workers_[static_cast<size_t>(rt.worker)].outstanding;
    rt.worker = -1;
    rt.done = true;
    rt.result = std::move(res);
    rt.result.id = gid; // router tickets, not worker tickets
    ++completed_;
}

void
ShardRouter::placeLocked(uint64_t gid, Route &rt, bool resubmit)
{
    for (;;) {
        const int idx = pickWorkerLocked(rt.req);
        if (idx < 0) {
            DenoiseResult res;
            res.status = RequestStatus::Rejected;
            res.slo = rt.req.slo;
            resolveLocked(gid, rt, std::move(res));
            return;
        }
        Worker &w = workers_[static_cast<size_t>(idx)];
        uint64_t remoteId = 0;
        if (w.client->submit(rt.req, &remoteId)) {
            rt.worker = idx;
            rt.remoteId = remoteId;
            ++w.outstanding;
            resubmitted_ += resubmit ? 1 : 0;
            return;
        }
        // Refused (drained) or dead — either way stop routing to it; a
        // dead worker additionally places its own routes again.
        if (w.client->connected())
            w.healthy = false;
        else
            markDeadLocked(idx);
    }
}

void
ShardRouter::markDeadLocked(int idx)
{
    Worker &w = workers_[static_cast<size_t>(idx)];
    if (w.dead)
        return;
    w.dead = true;
    w.healthy = false;
    // A drained worker exits once its work is done; losing its
    // transport then is the graceful path, not a failure.
    if (!w.drained)
        ++failovers_;

    // Cold-resubmit every outstanding route of the dead worker: a
    // request's trajectory is a pure function of (model, seed, mode,
    // steps), so a from-scratch rerun yields the identical image. A
    // worker that dies while they are placed is retired the same way,
    // recursively; `dead` is set first, so none is retired twice.
    std::vector<uint64_t> orphans;
    for (auto &[gid, rt] : routes_) {
        if (!rt.done && rt.worker == idx) {
            rt.worker = -1;
            --w.outstanding;
            orphans.push_back(gid);
        }
    }
    for (uint64_t gid : orphans)
        placeLocked(gid, routes_.at(gid), true);
}

uint64_t
ShardRouter::submit(const DenoiseRequest &req)
{
    std::lock_guard<std::mutex> lk(mu_);
    const uint64_t gid = nextGid_++;
    ++submitted_;
    Route &rt = routes_[gid];
    rt.req = req;
    placeLocked(gid, rt, false);
    return gid;
}

int
ShardRouter::routeWorker(uint64_t gid) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = routes_.find(gid);
    return it == routes_.end() ? -1 : it->second.worker;
}

bool
ShardRouter::pollRouteLocked(uint64_t gid, Route &rt)
{
    if (rt.done)
        return true;
    Worker &w = workers_[static_cast<size_t>(rt.worker)];
    bool ready = false;
    DenoiseResult res;
    if (w.client->poll(rt.remoteId, &ready, &res)) {
        if (ready)
            resolveLocked(gid, rt, std::move(res));
    } else if (!w.client->connected()) {
        markDeadLocked(rt.worker); // places this route again
    } else {
        // Protocol refusal on a ticket we thought live (e.g. the worker
        // restarted behind the same socket): stop routing to the worker
        // and place the route again cold.
        --w.outstanding;
        w.healthy = false;
        rt.worker = -1;
        placeLocked(gid, rt, true);
    }
    return rt.done;
}

bool
ShardRouter::poll(uint64_t gid, DenoiseResult *out)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = routes_.find(gid);
    if (it == routes_.end())
        DITTO_FATAL("ShardRouter::poll on unknown/consumed gid " << gid);
    if (!pollRouteLocked(gid, it->second))
        return false;
    *out = std::move(it->second.result);
    routes_.erase(it);
    return true;
}

DenoiseResult
ShardRouter::wait(uint64_t gid)
{
    DenoiseResult res;
    while (!poll(gid, &res))
        std::this_thread::sleep_for(
            std::chrono::microseconds(cfg_.pollMicros));
    return res;
}

bool
ShardRouter::cancel(uint64_t gid)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = routes_.find(gid);
    if (it == routes_.end() || it->second.done)
        return false;
    Route &rt = it->second;
    Worker &w = workers_[static_cast<size_t>(rt.worker)];
    bool ok = false;
    if (!w.client->cancel(rt.remoteId, &ok)) {
        if (!w.client->connected())
            markDeadLocked(rt.worker);
        return false;
    }
    return ok;
}

RequestStatus
ShardRouter::queryState(uint64_t gid)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = routes_.find(gid);
    if (it == routes_.end())
        DITTO_FATAL("ShardRouter::queryState on unknown/consumed gid "
                    << gid);
    Route &rt = it->second;
    if (rt.done)
        return rt.result.status;
    Worker &w = workers_[static_cast<size_t>(rt.worker)];
    RequestStatus st = RequestStatus::Queued;
    if (w.client->queryState(rt.remoteId, &st))
        return st;
    if (!w.client->connected()) {
        markDeadLocked(rt.worker);
        return rt.done ? rt.result.status : RequestStatus::Queued;
    }
    return RequestStatus::Queued;
}

bool
ShardRouter::migrate(uint64_t gid, int target)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = routes_.find(gid);
    if (it == routes_.end())
        return false;
    Route &rt = it->second;
    if (rt.done || rt.worker == target)
        return false;
    if (target < 0 || target >= static_cast<int>(workers_.size()) ||
        !workers_[static_cast<size_t>(target)].healthy)
        return false;

    const int src = rt.worker;
    Worker &sw = workers_[static_cast<size_t>(src)];
    MigratedWire wire;
    if (!sw.client->migrateOut(rt.remoteId, &wire)) {
        if (!sw.client->connected())
            markDeadLocked(src); // places this route again cold
        return false; // declined: the request stays/finishes on src
    }
    --sw.outstanding;
    rt.worker = -1;

    // Adopt the state on the requested target, falling back to the
    // least-loaded healthy worker; a worker that fails to adopt is no
    // longer healthy, so each is tried at most once.
    for (int idx = target; idx >= 0; idx = leastLoadedLocked()) {
        Worker &tw = workers_[static_cast<size_t>(idx)];
        uint64_t remoteId = 0;
        if (tw.client->migrateIn(wire, &remoteId)) {
            rt.worker = idx;
            rt.remoteId = remoteId;
            ++tw.outstanding;
            ++migrations_;
            return idx == target;
        }
        if (tw.client->connected())
            tw.healthy = false;
        else
            markDeadLocked(idx);
    }
    // No adopter: continue the request cold from the portable request
    // (its deadline re-expressed as a budget); progress is lost,
    // correctness kept.
    rt.req = wire.req;
    placeLocked(gid, rt, true);
    return false;
}

void
ShardRouter::drainAll()
{
    std::lock_guard<std::mutex> lk(mu_);
    for (size_t i = 0; i < workers_.size(); ++i) {
        Worker &w = workers_[i];
        if (!w.client->connected())
            continue;
        if (w.client->drain())
            w.drained = true;
        else if (!w.client->connected())
            markDeadLocked(static_cast<int>(i));
        w.healthy = false; // drained workers accept no new work
    }
}

void
ShardRouter::scrapeReuseLocked(Worker &w, const std::string &json)
{
    uint64_t hits = 0, misses = 0, stores = 0, saved = 0;
    if (!scrapeU64(json, "hits", &hits) ||
        !scrapeU64(json, "misses", &misses) ||
        !scrapeU64(json, "stores", &stores) ||
        !scrapeU64(json, "steps_saved", &saved))
        return;
    w.lastHits = hits;
    w.lastMisses = misses;
    w.lastStores = stores;
    w.lastSaved = saved;
}

std::string
ShardRouter::metricsJson()
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::string> workerJson(workers_.size());
    for (size_t i = 0; i < workers_.size(); ++i) {
        Worker &w = workers_[i];
        if (!w.client->connected())
            continue;
        std::string json;
        if (!w.client->metricsJson(&json)) {
            if (!w.client->connected())
                markDeadLocked(static_cast<int>(i));
            continue;
        }
        scrapeReuseLocked(w, json);
        workerJson[i] = std::move(json);
    }

    uint64_t hits = 0, misses = 0, stores = 0, saved = 0;
    int healthy = 0;
    for (const Worker &w : workers_) {
        hits += w.lastHits;
        misses += w.lastMisses;
        stores += w.lastStores;
        saved += w.lastSaved;
        healthy += w.healthy ? 1 : 0;
    }
    const double rate =
        hits + misses
            ? static_cast<double>(hits) / static_cast<double>(hits + misses)
            : 0.0;

    std::string out = "{\"router\":{";
    out += "\"workers\":" + std::to_string(workers_.size());
    out += ",\"healthy\":" + std::to_string(healthy);
    out += ",\"submitted\":" + std::to_string(submitted_);
    out += ",\"completed\":" + std::to_string(completed_);
    out += ",\"resubmitted\":" + std::to_string(resubmitted_);
    out += ",\"migrations\":" + std::to_string(migrations_);
    out += ",\"failovers\":" + std::to_string(failovers_);
    out += "},\"reuse\":{";
    out += "\"hits\":" + std::to_string(hits);
    out += ",\"misses\":" + std::to_string(misses);
    out += ",\"stores\":" + std::to_string(stores);
    out += ",\"steps_saved\":" + std::to_string(saved);
    out += ",\"hit_rate\":" + std::to_string(rate);
    out += "},\"workers\":[";
    for (size_t i = 0; i < workers_.size(); ++i) {
        if (i)
            out += ",";
        out += workerJson[i].empty() ? "null" : workerJson[i];
    }
    out += "]}";
    return out;
}

bool
ShardRouter::serve(const std::string &socketPath, std::string *why)
{
    Endpoint::Handlers h;
    {
        std::lock_guard<std::mutex> lk(mu_);
        h.info = info_;
    }
    h.submit = [this](const DenoiseRequest &req) { return submit(req); };
    h.poll = [this](uint64_t gid, DenoiseResult *out) {
        return poll(gid, out);
    };
    h.cancel = [this](uint64_t gid) { return cancel(gid); };
    h.queryState = [this](uint64_t gid) { return queryState(gid); };
    h.metrics = [this] { return metricsJson(); };
    h.drain = [this] { drainAll(); };
    frontDoor_ = std::make_unique<Endpoint>(std::move(h));
    return frontDoor_->start(socketPath, why);
}

void
ShardRouter::stopServing()
{
    frontDoor_.reset();
}

} // namespace shard
} // namespace ditto
