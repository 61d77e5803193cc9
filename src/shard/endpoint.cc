/**
 * @file
 * Endpoint implementation (rules in endpoint.h).
 */
#include "shard/endpoint.h"

#include <sys/socket.h>

#include <utility>

namespace ditto {
namespace shard {

namespace {

bool
reply(int fd, Msg type, ByteWriter &w)
{
    return net::sendFrame(fd, static_cast<uint32_t>(type), w.take());
}

bool
replyError(int fd, const std::string &why)
{
    ByteWriter w;
    w.str(why);
    return reply(fd, Msg::Error, w);
}

constexpr const char *kNoMigration = "migration is not served here";

} // namespace

bool
Endpoint::start(const std::string &socketPath, std::string *why)
{
    if (!listener_.listen(socketPath, why))
        return false;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Endpoint::stop()
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
        t.join();
}

void
Endpoint::acceptLoop()
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
Endpoint::serveConnection(int fd)
{
    net::Frame frame;
    while (!stopping_.load() && net::recvFrame(fd, &frame) &&
           handleFrame(fd, frame)) {
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
Endpoint::handleFrame(int fd, const net::Frame &frame)
{
    ByteReader r(frame.payload.data(), frame.payload.size());
    ByteWriter w;
    const auto msg = static_cast<Msg>(frame.type);
    switch (msg) {
      case Msg::Ping:
        return reply(fd, Msg::PingOk, w);

      case Msg::Info:
        putInfo(w, h_.info);
        return reply(fd, Msg::InfoRe, w);

      case Msg::Submit: {
        DenoiseRequest req;
        if (!getRequest(r, &req) || r.remaining() != 0)
            return replyError(fd, "malformed submit");
        return admit(fd, Msg::SubmitOk, [&](uint64_t *id, std::string *) {
            *id = h_.submit(req);
            return true;
        });
      }

      case Msg::MigrateIn: {
        if (!h_.migrateIn)
            return replyError(fd, kNoMigration);
        MigratedWire wire;
        if (!getMigratedWire(r, &wire) || r.remaining() != 0)
            return replyError(fd, "malformed migrate-in");
        return admit(fd, Msg::MigrateInRe,
                     [&](uint64_t *id, std::string *why) {
                         return h_.migrateIn(wire, id, why);
                     });
      }

      case Msg::Poll:
      case Msg::Cancel:
      case Msg::QueryState:
      case Msg::MigrateOut:
        return onTicket(fd, msg, r);

      case Msg::Metrics:
        w.str(h_.metrics());
        return reply(fd, Msg::MetricsRe, w);

      case Msg::Drain: {
        // From here on admissions are refused; the ones already past
        // the check reach the owner before its drain starts.
        {
            std::unique_lock<std::mutex> lk(mu_);
            drained_.store(true);
            cv_.wait(lk, [this] { return admitting_ == 0; });
        }
        h_.drain();
        return reply(fd, Msg::DrainRe, w);
      }

      default:
        return replyError(fd, "unknown message type");
    }
}

bool
Endpoint::admit(int fd, Msg re,
                const std::function<bool(uint64_t *, std::string *)> &op)
{
    bool open = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        open = !drained_.load();
        admitting_ += open ? 1 : 0;
    }
    if (!open)
        return replyError(fd, "drained");
    uint64_t id = 0;
    std::string why;
    const bool ok = op(&id, &why);
    {
        std::lock_guard<std::mutex> lk(mu_);
        --admitting_;
        if (ok)
            live_.insert(id);
    }
    cv_.notify_all();
    if (!ok)
        return replyError(fd, why);
    ByteWriter w;
    w.u64(id);
    return reply(fd, re, w);
}

bool
Endpoint::onTicket(int fd, Msg msg, ByteReader &r)
{
    if (msg == Msg::MigrateOut && !h_.migrateOut)
        return replyError(fd, kNoMigration);
    uint64_t id = 0;
    if (!r.u64(&id) || r.remaining() != 0)
        return replyError(fd, "malformed ticket");
    bool live = false;
    {
        // Wait out another connection's operation on this ticket, then
        // claim it if it is still live.
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return busy_.count(id) == 0; });
        live = live_.count(id) != 0;
        if (live)
            busy_.insert(id);
    }
    if (!live)
        return replyError(fd, "unknown ticket");

    ByteWriter w;
    Msg re = Msg::Error;
    bool delivered = false;
    std::string why;
    switch (msg) {
      case Msg::Poll: {
        DenoiseResult res;
        delivered = h_.poll(id, &res);
        w.u8(delivered ? 1 : 0);
        if (delivered)
            putResult(w, res);
        re = Msg::PollRe;
        break;
      }
      case Msg::Cancel:
        w.u8(h_.cancel(id) ? 1 : 0);
        re = Msg::CancelRe;
        break;
      case Msg::QueryState:
        w.u8(static_cast<uint8_t>(h_.queryState(id)));
        re = Msg::StateRe;
        break;
      default: { // MigrateOut
        MigratedWire wire;
        delivered = h_.migrateOut(id, &wire, &why);
        if (delivered) {
            putMigratedWire(w, wire);
            re = Msg::MigrateOutRe;
        }
        break;
      }
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        busy_.erase(id);
        if (delivered)
            live_.erase(id);
    }
    cv_.notify_all();
    return re == Msg::Error ? replyError(fd, why) : reply(fd, re, w);
}

} // namespace shard
} // namespace ditto
