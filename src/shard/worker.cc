/**
 * @file
 * ShardWorker implementation (design notes in worker.h).
 */
#include "shard/worker.h"

#include <sys/socket.h>

#include <utility>

#include "common/env.h"
#include "common/logging.h"
#include "shard/slab_codec.h"

namespace ditto {
namespace shard {

std::string
defaultSocketDir()
{
    return env::readString("DITTO_SHARD_SOCKET_DIR", "/tmp");
}

ShardWorker::ShardWorker(const CompiledModel &model, std::string socketPath,
                         ServerConfig cfg, std::shared_ptr<ReuseCache> cache)
    : model_(model), socketPath_(std::move(socketPath)),
      server_(model, cfg, std::move(cache))
{
    info_.specHash = model.spec().hash();
    info_.calibDigest = model.calibrationDigest();
    info_.defaultSteps = model.defaultSteps();
    info_.stateInSlots = model.numStateInSlots();
    info_.stateOutSlots = model.numStateOutSlots();
}

ShardWorker::~ShardWorker()
{
    stop();
}

bool
ShardWorker::start(std::string *why)
{
    if (!listener_.listen(socketPath_, why))
        return false;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
ShardWorker::stop()
{
    if (stopping_.exchange(true))
        return;
    listener_.close();
    if (acceptThread_.joinable())
        acceptThread_.join();

    std::vector<std::thread> conns;
    {
        std::lock_guard<std::mutex> lk(mu_);
        // Unblock every connection thread's recv; each thread owns
        // (and closes) its fd on the way out.
        for (int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
        conns = std::move(conns_);
        conns_.clear();
    }
    for (auto &t : conns)
        if (t.joinable())
            t.join();
}

void
ShardWorker::acceptLoop()
{
    while (!stopping_.load()) {
        const int fd = listener_.accept();
        if (fd < 0)
            return; // listener closed
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_.load()) {
            net::closeFd(fd);
            return;
        }
        connFds_.push_back(fd);
        conns_.emplace_back([this, fd] { serveConnection(fd); });
    }
}

void
ShardWorker::serveConnection(int fd)
{
    net::Frame frame;
    while (!stopping_.load() && net::recvFrame(fd, &frame)) {
        if (!handleFrame(fd, frame))
            break;
    }
    net::closeFd(fd);
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = connFds_.begin(); it != connFds_.end(); ++it) {
        if (*it == fd) {
            connFds_.erase(it);
            break;
        }
    }
}

bool
ShardWorker::sendError(int fd, const std::string &why)
{
    ByteWriter w;
    w.str(why);
    return net::sendFrame(fd, static_cast<uint32_t>(Msg::Error), w.take());
}

bool
ShardWorker::handleFrame(int fd, const net::Frame &frame)
{
    ByteReader r(frame.payload.data(), frame.payload.size());
    const auto msg = static_cast<Msg>(frame.type);
    switch (msg) {
      case Msg::Ping:
        return net::sendFrame(fd, static_cast<uint32_t>(Msg::PingOk), {});

      case Msg::Info: {
        ByteWriter w;
        putInfo(w, info_);
        return net::sendFrame(fd, static_cast<uint32_t>(Msg::InfoRe),
                              w.take());
      }

      case Msg::Submit: {
        DenoiseRequest req;
        if (!getRequest(r, &req) || r.remaining() != 0)
            return sendError(fd, "malformed submit");
        uint64_t id = 0;
        {
            // Checked under mu_, which Drain holds to set the flag: a
            // Submit is either refused or reaches the server before
            // its shutdown.
            std::lock_guard<std::mutex> lk(mu_);
            if (drained_.load())
                return sendError(fd, "worker drained");
            id = server_.submit(req);
            live_.insert(id);
        }
        ByteWriter w;
        w.u64(id);
        return net::sendFrame(fd, static_cast<uint32_t>(Msg::SubmitOk),
                              w.take());
      }

      case Msg::Poll: {
        uint64_t id = 0;
        if (!r.u64(&id) || r.remaining() != 0)
            return sendError(fd, "malformed poll");
        ByteWriter w;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!live_.count(id))
                return sendError(fd, "unknown ticket");
            DenoiseResult res;
            if (server_.poll(id, &res)) {
                live_.erase(id);
                w.u8(1);
                putResult(w, res);
            } else {
                w.u8(0);
            }
        }
        return net::sendFrame(fd, static_cast<uint32_t>(Msg::PollRe),
                              w.take());
      }

      case Msg::Cancel: {
        uint64_t id = 0;
        if (!r.u64(&id) || r.remaining() != 0)
            return sendError(fd, "malformed cancel");
        bool ok = false;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!live_.count(id))
                return sendError(fd, "unknown ticket");
            ok = server_.cancel(id);
        }
        ByteWriter w;
        w.u8(ok ? 1 : 0);
        return net::sendFrame(fd, static_cast<uint32_t>(Msg::CancelRe),
                              w.take());
      }

      case Msg::QueryState: {
        uint64_t id = 0;
        if (!r.u64(&id) || r.remaining() != 0)
            return sendError(fd, "malformed query");
        uint8_t state = 0;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!live_.count(id))
                return sendError(fd, "unknown ticket");
            state = static_cast<uint8_t>(server_.queryState(id));
        }
        ByteWriter w;
        w.u8(state);
        return net::sendFrame(fd, static_cast<uint32_t>(Msg::StateRe),
                              w.take());
      }

      case Msg::MigrateOut: {
        uint64_t id = 0;
        if (!r.u64(&id) || r.remaining() != 0)
            return sendError(fd, "malformed migrate-out");
        MigratedWire wire;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!live_.count(id))
                return sendError(fd, "unknown ticket");
            DenoiseServer::MigratedRequest m;
            if (!server_.exportForMigration(id, &m))
                return sendError(fd, "migration declined");
            // Consume the local Migrated sentinel result so the
            // ticket's record is released on this side.
            DenoiseResult sink;
            DITTO_ASSERT(server_.poll(id, &sink),
                         "migrated ticket must be terminal");
            live_.erase(id);
            wire.specHash = info_.specHash;
            wire.calibDigest = info_.calibDigest;
            wire.req = m.req;
            wire.slab = encodeParked(m.state);
        }
        ByteWriter w;
        putMigratedWire(w, wire);
        return net::sendFrame(fd, static_cast<uint32_t>(Msg::MigrateOutRe),
                              w.take());
      }

      case Msg::MigrateIn: {
        MigratedWire wire;
        if (!getMigratedWire(r, &wire) || r.remaining() != 0)
            return sendError(fd, "malformed migrate-in");
        if (wire.specHash != info_.specHash ||
            wire.calibDigest != info_.calibDigest)
            return sendError(fd, "model identity mismatch");
        DenoiseServer::MigratedRequest m;
        m.req = wire.req;
        std::string why;
        if (!decodeParked(wire.slab, &m.state, &why))
            return sendError(fd, why);
        // Everything a join would assert on, or read or write out of
        // bounds for, is rejected here, at the wire.
        if (!model_.acceptsSlab(m.state.image, m.state.stepsDone,
                                m.state.hasState ? &m.state.state : nullptr,
                                &why))
            return sendError(fd, why);
        uint64_t id = 0;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (drained_.load())
                return sendError(fd, "worker drained");
            id = server_.importMigrated(m);
            live_.insert(id);
        }
        ByteWriter w;
        w.u64(id);
        return net::sendFrame(fd, static_cast<uint32_t>(Msg::MigrateInRe),
                              w.take());
      }

      case Msg::Metrics: {
        ByteWriter w;
        w.str(server_.metricsJson());
        return net::sendFrame(fd, static_cast<uint32_t>(Msg::MetricsRe),
                              w.take());
      }

      case Msg::Drain: {
        // Finish everything accepted, then confirm. Results stay
        // retrievable (Poll keeps working); Submit/MigrateIn are
        // refused from here on. The flag is set under mu_, so a
        // Submit/MigrateIn past its check finishes reaching the server
        // before shutdown() starts.
        {
            std::lock_guard<std::mutex> lk(mu_);
            drained_.store(true);
        }
        server_.shutdown();
        return net::sendFrame(fd, static_cast<uint32_t>(Msg::DrainRe), {});
      }

      default:
        return sendError(fd, "unknown message type");
    }
}

} // namespace shard
} // namespace ditto
