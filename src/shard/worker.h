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
 *  - Thread-per-connection, sequential frames per connection. The
 *    DenoiseServer underneath is already fully thread-safe, so
 *    handlers call straight into it; the worker only guards its own
 *    connection list and live-ticket set.
 *  - The live-ticket set exists because DenoiseServer::poll fails
 *    loudly (DITTO_FATAL) on unknown/consumed tickets — correct for
 *    in-process misuse, wrong for untrusted bytes. The worker screens
 *    every wire ticket against the set and answers Error frames for
 *    unknown ones, so no remote peer can abort a worker.
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

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/net.h"
#include "serve/server.h"
#include "shard/protocol.h"

namespace ditto {
namespace shard {

/**
 * Directory for shard sockets (DITTO_SHARD_SOCKET_DIR, default
 * $TMPDIR or /tmp). Kept short: AF_UNIX paths cap at ~107 bytes.
 */
std::string defaultSocketDir();

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

    /** stop()s; in-flight work is finished by the server destructor. */
    ~ShardWorker();

    ShardWorker(const ShardWorker &) = delete;
    ShardWorker &operator=(const ShardWorker &) = delete;

    /** Bind the socket and start accepting. False (with why) on error. */
    bool start(std::string *why = nullptr);

    /**
     * Stop accepting and close every connection, then join the
     * connection threads. Does NOT drain the server — an abrupt stop
     * models a dying worker (the router's failover path); a graceful
     * exit drains first (Drain RPC or server().shutdown()).
     */
    void stop();

    /** True once a Drain RPC has completed the server's shutdown. */
    bool drained() const { return drained_.load(); }

    const std::string &socketPath() const { return socketPath_; }
    const WorkerInfo &info() const { return info_; }
    DenoiseServer &server() { return server_; }

  private:
    void acceptLoop();
    void serveConnection(int fd);

    /** Handle one frame; false closes the connection (drain/EOF). */
    bool handleFrame(int fd, const net::Frame &frame);

    bool sendError(int fd, const std::string &why);

    const CompiledModel &model_;
    const std::string socketPath_;
    WorkerInfo info_;
    DenoiseServer server_;
    net::UnixListener listener_;
    std::thread acceptThread_;

    /**
     * Guards conns_, connFds_ and live_, and orders drained_ against
     * the handlers that admit work: Drain sets the flag under it, and
     * Submit/MigrateIn check it under it before reaching the server.
     */
    std::mutex mu_;
    std::vector<std::thread> conns_;
    std::vector<int> connFds_;

    /**
     * Tickets issued over the wire whose results have not yet been
     * delivered — the screen that keeps hostile ticket ids away from
     * the server's fail-loudly accessors.
     */
    std::unordered_set<uint64_t> live_;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> drained_{false};
};

} // namespace shard
} // namespace ditto

#endif // DITTO_SHARD_WORKER_H
