/**
 * @file
 * ShardWorker implementation (design notes in worker.h).
 */
#include "shard/worker.h"

#include <utility>

#include "common/logging.h"
#include "shard/slab_codec.h"

namespace ditto {
namespace shard {

namespace {

WorkerInfo
modelInfo(const CompiledModel &model)
{
    WorkerInfo info;
    info.specHash = model.spec().hash();
    info.calibDigest = model.calibrationDigest();
    info.defaultSteps = model.defaultSteps();
    info.stateInSlots = model.numStateInSlots();
    info.stateOutSlots = model.numStateOutSlots();
    return info;
}

} // namespace

ShardWorker::ShardWorker(const CompiledModel &model, std::string socketPath,
                         ServerConfig cfg, std::shared_ptr<ReuseCache> cache)
    : model_(model), socketPath_(std::move(socketPath)),
      info_(modelInfo(model)), server_(model, cfg, std::move(cache)),
      endpoint_(handlers())
{
}

Endpoint::Handlers
ShardWorker::handlers()
{
    Endpoint::Handlers h;
    h.info = info_;
    h.submit = [this](const DenoiseRequest &req) {
        return server_.submit(req);
    };
    h.poll = [this](uint64_t id, DenoiseResult *out) {
        return server_.poll(id, out);
    };
    h.cancel = [this](uint64_t id) { return server_.cancel(id); };
    h.queryState = [this](uint64_t id) { return server_.queryState(id); };
    h.metrics = [this] { return server_.metricsJson(); };
    h.drain = [this] { server_.shutdown(); };
    h.migrateOut = [this](uint64_t id, MigratedWire *out, std::string *why) {
        return migrateOut(id, out, why);
    };
    h.migrateIn = [this](const MigratedWire &wire, uint64_t *id,
                         std::string *why) {
        return migrateIn(wire, id, why);
    };
    return h;
}

bool
ShardWorker::migrateOut(uint64_t id, MigratedWire *out, std::string *why)
{
    DenoiseServer::MigratedRequest m;
    if (!server_.exportForMigration(id, &m)) {
        *why = "migration declined";
        return false;
    }
    // Consume the local Migrated sentinel result so the ticket's record
    // is released on this side.
    DenoiseResult sink;
    DITTO_ASSERT(server_.poll(id, &sink), "migrated ticket must be terminal");
    out->specHash = info_.specHash;
    out->calibDigest = info_.calibDigest;
    out->req = m.req;
    out->slab = encodeParked(m.state);
    return true;
}

bool
ShardWorker::migrateIn(const MigratedWire &wire, uint64_t *id,
                       std::string *why)
{
    if (wire.specHash != info_.specHash ||
        wire.calibDigest != info_.calibDigest) {
        *why = "model identity mismatch";
        return false;
    }
    DenoiseServer::MigratedRequest m;
    m.req = wire.req;
    // Everything a join would assert on, or read or write out of
    // bounds for, is rejected here, at the wire.
    if (!decodeParked(wire.slab, &m.state, why) ||
        !model_.acceptsSlab(m.state.image, m.state.stepsDone,
                            m.state.hasState ? &m.state.state : nullptr,
                            why))
        return false;
    *id = server_.importMigrated(m);
    return true;
}

} // namespace shard
} // namespace ditto
