/**
 * @file
 * ShardWorker: one replica of the serving stack behind a socket.
 *
 * A worker owns a DenoiseServer over one CompiledModel and serves the
 * shard RPC protocol (src/shard/protocol.h) on a Unix-domain socket:
 * submit/poll/cancel/query, migrate-out/migrate-in of relocatable
 * request state, a metrics export, and drain. The front-door router
 * (src/shard/router.h) treats a set of workers as one serving tier;
 * `examples/shard_worker.cpp` wraps this class as a standalone
 * process.
 *
 * Design points:
 *  - The socket, its threads, the frame decoder and the ticket screen
 *    are a shard::Endpoint (src/shard/endpoint.h), the same one the
 *    router's front door serves through. The worker passes its
 *    DenoiseServer's operations in as handlers, plus the two
 *    migration handlers only a worker has.
 *  - The endpoint answers unknown or delivered tickets with Error
 *    frames, so no remote peer reaches DenoiseServer::poll's loud
 *    failure, and it refuses Submit/MigrateIn after a Drain.
 *  - MigrateIn validates the slab before it reaches the server: the
 *    model identity (spec hash + calibration digest), the codec's
 *    checksum, headers and step bounds (shard/slab_codec.h), then
 *    CompiledModel::acceptsSlab — the image shape, one tensor of the
 *    model's single-slab shape per state slot, and skip counters that
 *    are empty or hold one entry per node. A slab failing any check is
 *    answered with an Error frame carrying the reason; one that passes
 *    installs and executes within the batch's buffers
 *    (tests/test_shard.cc ShardTier.WorkerScreensHostileTicketsAndSlabs).
 */
#ifndef DITTO_SHARD_WORKER_H
#define DITTO_SHARD_WORKER_H

#include <cstdint>
#include <memory>
#include <string>

#include "serve/server.h"
#include "shard/endpoint.h"

namespace ditto {
namespace shard {

/** One serving replica: DenoiseServer + protocol endpoint. */
class ShardWorker
{
  public:
    /**
     * The model must outlive the worker. Workers behind one router
     * must serve the same compiled model (identity is checked at
     * addWorker and on every MigrateIn).
     */
    ShardWorker(const CompiledModel &model, std::string socketPath,
                ServerConfig cfg = ServerConfig::fromEnv(),
                std::shared_ptr<ReuseCache> cache = nullptr);

    ShardWorker(const ShardWorker &) = delete;
    ShardWorker &operator=(const ShardWorker &) = delete;

    /** Bind the socket and start accepting. False (with why) on error. */
    bool start(std::string *why = nullptr)
    {
        return endpoint_.start(socketPath_, why);
    }

    /**
     * Stop accepting and close every connection, then join the
     * connection threads. Does NOT drain the server — an abrupt stop
     * models a dying worker (the router's failover path); a graceful
     * exit drains first (Drain RPC or server().shutdown()). The
     * destructor stops; in-flight work is then finished by the server
     * destructor.
     */
    void stop() { endpoint_.stop(); }

    /** True once a Drain RPC has arrived (Submit/MigrateIn refused). */
    bool drained() const { return endpoint_.drained(); }

    const std::string &socketPath() const { return socketPath_; }
    const WorkerInfo &info() const { return info_; }
    DenoiseServer &server() { return server_; }

  private:
    Endpoint::Handlers handlers();
    bool migrateOut(uint64_t id, MigratedWire *out, std::string *why);
    bool migrateIn(const MigratedWire &wire, uint64_t *id, std::string *why);

    const CompiledModel &model_;
    const std::string socketPath_;
    const WorkerInfo info_;
    DenoiseServer server_;
    Endpoint endpoint_; //!< last: its threads call into the members above
};

} // namespace shard
} // namespace ditto

#endif // DITTO_SHARD_WORKER_H
