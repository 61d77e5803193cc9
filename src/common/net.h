/**
 * @file
 * Unix-domain stream sockets and length-prefixed frame transport.
 *
 * The shard tier (src/shard/) is processes on one host, so transport
 * is AF_UNIX SOCK_STREAM: kernel-ordered, reliable, no TLS or
 * addressing concerns, and `kill -9` of a peer surfaces as EOF — the
 * router's failure detector. Everything here is EINTR-safe and
 * returns false on error instead of throwing; callers treat any
 * false as "peer gone".
 *
 * Frame format (little-endian):
 *
 *   u32 magic 'DSRP'  | u32 type | u64 payloadLen | payload bytes
 *
 * recvFrame validates the magic and caps payloadLen so a corrupt or
 * hostile peer cannot drive an allocation bomb.
 */
#ifndef DITTO_COMMON_NET_H
#define DITTO_COMMON_NET_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ditto {
namespace net {

/** Frame magic: "DSRP" (Ditto Shard RPc) little-endian. */
inline constexpr uint32_t kFrameMagic = 0x50525344u;

/** Largest accepted frame payload (a full slab fits far below this). */
inline constexpr uint64_t kMaxFrameBytes = 1ull << 30;

/** One parsed frame. */
struct Frame
{
    uint32_t type = 0;
    std::vector<uint8_t> payload;
};

/**
 * Listening Unix-domain socket bound to `path` (unlinked first so a
 * stale socket file from a crashed worker does not block rebinding).
 * close() unblocks a concurrent accept(); the destructor closes and
 * unlinks.
 */
class UnixListener
{
  public:
    UnixListener() = default;
    ~UnixListener();

    UnixListener(const UnixListener &) = delete;
    UnixListener &operator=(const UnixListener &) = delete;

    /** Bind + listen; false (with why) on failure. */
    bool listen(const std::string &path, std::string *why = nullptr);

    /**
     * Block for one connection; returns the connected fd or -1 once
     * the listener is closed.
     */
    int accept();

    /** Shut the listener down; safe from another thread. */
    void close();

    bool listening() const { return fd_.load() >= 0; }
    const std::string &path() const { return path_; }

  private:
    /** Atomic: close() on one thread races accept() on another. */
    std::atomic<int> fd_{-1};
    std::string path_;
};

/**
 * Connect to a Unix-domain socket, retrying for up to `timeoutMs`
 * while the path does not exist / refuses (covers the worker-startup
 * race). Returns the fd or -1.
 */
int connectUnix(const std::string &path, int64_t timeoutMs,
                std::string *why = nullptr);

/** EINTR-safe full write; false on any error (peer gone). */
bool sendAll(int fd, const void *buf, size_t n);

/** EINTR-safe full read; false on EOF or error. */
bool recvAll(int fd, void *buf, size_t n);

/** Write one frame (header + payload). */
bool sendFrame(int fd, uint32_t type, const std::vector<uint8_t> &payload);

/** Read one frame; false on EOF, bad magic or oversized payload. */
bool recvFrame(int fd, Frame *out);

/** close(2), EINTR-safe, ignores errors. -1 is a no-op. */
void closeFd(int fd);

} // namespace net
} // namespace ditto

#endif // DITTO_COMMON_NET_H
