/**
 * @file
 * Endpoint: the server side of the shard protocol.
 *
 * A ShardWorker (src/shard/worker.h) and the ShardRouter's front door
 * (src/shard/router.h) serve the same request frames
 * (src/shard/protocol.h) through this one class. An Endpoint owns the
 * Unix-domain listener, the accept thread and one thread per
 * connection; it decodes every request frame and answers it with
 * exactly one reply frame. The operations behind the frames are its
 * owner's handlers: a worker passes its DenoiseServer's, the router
 * its own, whose tickets are router gids. Only a worker passes the
 * migration handlers.
 *
 * One set of rules holds for every peer, so no frame can reach a
 * handler that fails loudly (DenoiseServer::poll and ShardRouter::poll
 * abort on a consumed ticket, which is right for in-process misuse and
 * wrong for untrusted bytes):
 *  - a ticket frame (Poll, Cancel, QueryState, MigrateOut) is exactly
 *    one u64;
 *  - a ticket must have been issued by this endpoint (Submit,
 *    MigrateIn) and not yet delivered (a ready Poll or a MigrateOut
 *    delivers it); any other ticket is answered with an Error
 *    "unknown ticket";
 *  - operations on one ticket run one at a time, so when two
 *    connections poll one finished ticket, exactly one gets the result;
 *  - after a Drain, Submit and MigrateIn are refused with an Error.
 *    Drain waits for every admission already past that check, so none
 *    reaches the owner after its drain handler has started;
 *  - without migration handlers, MigrateOut and MigrateIn are refused.
 *
 * The endpoint's lock is taken only to check and record tickets and
 * connections, never across a handler: a Submit waiting for queue
 * space inside the server does not hold up a Poll on another
 * connection (ShardTier.PollIsNotHeldBehindASlowSubmit).
 */
#ifndef DITTO_SHARD_ENDPOINT_H
#define DITTO_SHARD_ENDPOINT_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/net.h"
#include "shard/protocol.h"

namespace ditto {
namespace shard {

/** Shard-protocol server over one socket. Thread-safe. */
class Endpoint
{
  public:
    /**
     * The owner's operations. Each runs on a connection thread,
     * concurrently with the others (never two on one ticket at once),
     * and only for a ticket this endpoint issued and has not delivered.
     */
    struct Handlers
    {
        WorkerInfo info; //!< the Info reply
        std::function<uint64_t(const DenoiseRequest &)> submit;
        /** True, with *out filled, once the result is ready. */
        std::function<bool(uint64_t, DenoiseResult *)> poll;
        std::function<bool(uint64_t)> cancel;
        std::function<RequestStatus(uint64_t)> queryState;
        std::function<std::string()> metrics;
        /** Finish all accepted work; results stay retrievable. */
        std::function<void()> drain;
        /** Give a ticket up as portable state; false with *why if not. */
        std::function<bool(uint64_t, MigratedWire *, std::string *)>
            migrateOut;
        /** Adopt migrated state under a new ticket; false with *why. */
        std::function<bool(const MigratedWire &, uint64_t *, std::string *)>
            migrateIn;
    };

    explicit Endpoint(Handlers handlers) : h_(std::move(handlers)) {}

    /** stop()s. */
    ~Endpoint() { stop(); }

    Endpoint(const Endpoint &) = delete;
    Endpoint &operator=(const Endpoint &) = delete;

    /** Bind the socket and start accepting. False (with why) on error. */
    bool start(const std::string &socketPath, std::string *why = nullptr);

    /**
     * Stop accepting, close every connection and join the connection
     * threads. Idempotent. Does not drain the owner.
     */
    void stop();

    /** True once a Drain has been received. */
    bool drained() const { return drained_.load(); }

  private:
    void acceptLoop();
    void serveConnection(int fd);

    /** Answer one frame; false closes the connection (peer gone). */
    bool handleFrame(int fd, const net::Frame &frame);

    /**
     * Run an admission (Submit, MigrateIn) unless drained, record the
     * ticket it issues and send it in an `re` frame.
     */
    bool admit(int fd, Msg re,
               const std::function<bool(uint64_t *, std::string *)> &op);

    /** Poll, Cancel, QueryState or MigrateOut on one live ticket. */
    bool onTicket(int fd, Msg msg, ByteReader &r);

    const Handlers h_;
    net::UnixListener listener_;
    std::atomic<bool> stopping_{false};

    /** Guards the members below it; never held across a handler. */
    std::mutex mu_;
    /** Signalled when a ticket is released or an admission ends. */
    std::condition_variable cv_;
    std::unordered_set<uint64_t> live_; //!< issued, not yet delivered
    std::unordered_set<uint64_t> busy_; //!< live, with a handler running
    int admitting_ = 0;                 //!< admissions past the drain check
    std::atomic<bool> drained_{false};  //!< set under mu_
    std::vector<int> connFds_;
    std::vector<std::thread> conns_; //!< after what their threads use

    std::thread acceptThread_; //!< after what it uses
};

} // namespace shard
} // namespace ditto

#endif // DITTO_SHARD_ENDPOINT_H
