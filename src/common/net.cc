/**
 * @file
 * Unix-domain socket and frame-transport implementation.
 */
#include "common/net.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/bytes.h"

namespace ditto {
namespace net {

namespace {

/** SIGPIPE-free socket write flag. */
#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

bool
fillSockaddr(const std::string &path, sockaddr_un *addr, std::string *why)
{
    if (path.size() >= sizeof(addr->sun_path)) {
        if (why)
            *why = "socket path too long: " + path;
        return false;
    }
    std::memset(addr, 0, sizeof *addr);
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

UnixListener::~UnixListener()
{
    close();
}

bool
UnixListener::listen(const std::string &path, std::string *why)
{
    sockaddr_un addr;
    if (!fillSockaddr(path, &addr, why))
        return false;
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        if (why)
            *why = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) != 0) {
        if (why)
            *why = "bind " + path + ": " + std::strerror(errno);
        closeFd(fd);
        return false;
    }
    if (::listen(fd, 64) != 0) {
        if (why)
            *why = "listen " + path + ": " + std::strerror(errno);
        closeFd(fd);
        ::unlink(path.c_str());
        return false;
    }
    fd_.store(fd);
    path_ = path;
    return true;
}

int
UnixListener::accept()
{
    for (;;) {
        const int lfd = fd_.load();
        if (lfd < 0)
            return -1;
        int cfd = ::accept(lfd, nullptr, nullptr);
        if (cfd >= 0)
            return cfd;
        if (errno == EINTR)
            continue;
        return -1;
    }
}

void
UnixListener::close()
{
    const int fd = fd_.exchange(-1);
    if (fd >= 0) {
        // shutdown() unblocks a concurrent accept() before close.
        ::shutdown(fd, SHUT_RDWR);
        closeFd(fd);
    }
    if (!path_.empty()) {
        ::unlink(path_.c_str());
        path_.clear();
    }
}

int
connectUnix(const std::string &path, int64_t timeoutMs, std::string *why)
{
    sockaddr_un addr;
    if (!fillSockaddr(path, &addr, why))
        return -1;
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(timeoutMs);
    for (;;) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            if (why)
                *why = std::string("socket: ") + std::strerror(errno);
            return -1;
        }
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) == 0)
            return fd;
        const int err = errno;
        closeFd(fd);
        if (err != ENOENT && err != ECONNREFUSED && err != EINTR) {
            if (why)
                *why = "connect " + path + ": " + std::strerror(err);
            return -1;
        }
        if (std::chrono::steady_clock::now() >= give_up) {
            if (why)
                *why = "connect " + path + ": timed out (" +
                       std::strerror(err) + ")";
            return -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

bool
sendAll(int fd, const void *buf, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(buf);
    while (n > 0) {
        const ssize_t w = ::send(fd, p, n, kSendFlags);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

bool
recvAll(int fd, void *buf, size_t n)
{
    auto *p = static_cast<uint8_t *>(buf);
    while (n > 0) {
        const ssize_t r = ::recv(fd, p, n, 0);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (r == 0)
            return false; // EOF mid-frame: peer gone
        p += r;
        n -= static_cast<size_t>(r);
    }
    return true;
}

bool
sendFrame(int fd, uint32_t type, const std::vector<uint8_t> &payload)
{
    ByteWriter header;
    header.u32(kFrameMagic);
    header.u32(type);
    header.u64(payload.size());
    if (!sendAll(fd, header.data().data(), header.size()))
        return false;
    return payload.empty() || sendAll(fd, payload.data(), payload.size());
}

bool
recvFrame(int fd, Frame *out)
{
    uint8_t header[16];
    if (!recvAll(fd, header, sizeof header))
        return false;
    ByteReader r(header, sizeof header);
    uint32_t magic = 0;
    uint64_t len = 0;
    r.u32(&magic);
    r.u32(&out->type);
    r.u64(&len);
    if (!r.ok() || magic != kFrameMagic || len > kMaxFrameBytes)
        return false;
    out->payload.resize(len);
    return len == 0 || recvAll(fd, out->payload.data(), len);
}

void
closeFd(int fd)
{
    if (fd < 0)
        return;
    while (::close(fd) != 0 && errno == EINTR) {
    }
}

} // namespace net
} // namespace ditto
