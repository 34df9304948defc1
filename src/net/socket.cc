#include "net/socket.hh"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/grammar.hh"

namespace mondrian {

std::string
Endpoint::name() const
{
    return host + ":" + std::to_string(port);
}

bool
parseEndpoint(const std::string &spec, Endpoint &out, std::string &error)
{
    // The port starts after the LAST colon, so a future bracketed-IPv6
    // host form stays representable; today hosts are names or IPv4.
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
        error = "endpoint '" + spec + "': expected HOST:PORT";
        return false;
    }
    const std::string host = spec.substr(0, colon);
    const std::string port_text = spec.substr(colon + 1);
    if (host.empty()) {
        error = "endpoint '" + spec + "': empty host";
        return false;
    }
    if (port_text.empty() ||
        port_text.find_first_not_of("0123456789") != std::string::npos) {
        error = "endpoint '" + spec + "': '" + port_text +
                "' is not a port number";
        return false;
    }
    std::uint64_t port = 0;
    if (!parseUint(port_text, 65535, port)) {
        error = "endpoint '" + spec + "': port " + port_text +
                " out of range [0, 65535]";
        return false;
    }
    out.host = host;
    out.port = static_cast<std::uint16_t>(port);
    return true;
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

int
Socket::release()
{
    const int fd = fd_;
    fd_ = -1;
    return fd;
}

namespace {

void
setNoDelay(int fd)
{
    // Best effort: the protocol is small framed messages and a delayed
    // ACK interaction would add 40 ms to every heartbeat/result.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

struct AddrList
{
    addrinfo *head = nullptr;
    ~AddrList()
    {
        if (head)
            ::freeaddrinfo(head);
    }
};

bool
resolve(const Endpoint &ep, int ai_flags, AddrList &list, std::string &error)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = ai_flags;
    const std::string port_text = std::to_string(ep.port);
    const int rc =
        ::getaddrinfo(ep.host.c_str(), port_text.c_str(), &hints, &list.head);
    if (rc != 0) {
        error = "cannot resolve '" + ep.name() + "': " + ::gai_strerror(rc);
        return false;
    }
    return true;
}

} // namespace

Socket
Socket::listen(const Endpoint &ep, std::string &error)
{
    AddrList addrs;
    if (!resolve(ep, AI_PASSIVE, addrs, error))
        return Socket{};

    int last_errno = 0;
    for (addrinfo *ai = addrs.head; ai; ai = ai->ai_next) {
        const int fd =
            ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            last_errno = errno;
            continue;
        }
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, 64) == 0)
            return Socket(fd);
        last_errno = errno;
        ::close(fd);
    }
    error = "cannot listen on '" + ep.name() +
            "': " + std::strerror(last_errno ? last_errno : EINVAL);
    return Socket{};
}

Socket
Socket::connect(const Endpoint &ep, std::string &error)
{
    AddrList addrs;
    if (!resolve(ep, 0, addrs, error))
        return Socket{};

    int last_errno = 0;
    for (addrinfo *ai = addrs.head; ai; ai = ai->ai_next) {
        const int fd =
            ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            last_errno = errno;
            continue;
        }
        int rc;
        do {
            rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
        } while (rc < 0 && errno == EINTR);
        if (rc == 0) {
            setNoDelay(fd);
            return Socket(fd);
        }
        last_errno = errno;
        ::close(fd);
    }
    error = "cannot connect to '" + ep.name() +
            "': " + std::strerror(last_errno ? last_errno : EINVAL);
    return Socket{};
}

Socket
Socket::accept(std::string &error) const
{
    error.clear();
    for (;;) {
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd >= 0) {
            setNoDelay(fd);
            return Socket(fd);
        }
        if (errno == EINTR)
            continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != ECONNABORTED)
            error = std::string("accept: ") + std::strerror(errno);
        return Socket{};
    }
}

bool
Socket::setNonBlocking(std::string &error) const
{
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
        error = std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno);
        return false;
    }
    return true;
}

std::uint16_t
Socket::localPort() const
{
    sockaddr_storage addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr), &len) < 0)
        return 0;
    if (addr.ss_family == AF_INET)
        return ntohs(reinterpret_cast<sockaddr_in *>(&addr)->sin_port);
    if (addr.ss_family == AF_INET6)
        return ntohs(reinterpret_cast<sockaddr_in6 *>(&addr)->sin6_port);
    return 0;
}

bool
writeAll(int fd, const void *buf, std::size_t size)
{
    const char *p = static_cast<const char *>(buf);
    std::size_t off = 0;
    bool socket = true;
    while (off < size) {
        // send(MSG_NOSIGNAL) keeps a reset TCP peer from raising SIGPIPE;
        // a pipe answers ENOTSOCK once and is written with write() after.
        ssize_t n = socket ? ::send(fd, p + off, size - off, MSG_NOSIGNAL)
                           : ::write(fd, p + off, size - off);
        if (n < 0 && errno == ENOTSOCK) {
            socket = false;
            continue;
        }
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // Non-blocking coordinator-side socket with a full kernel
            // buffer (a worker that stopped reading). Messages are small,
            // so a short writability wait is enough; a peer that stays
            // unwritable is treated as gone and lands on the ordinary
            // kill/requeue path.
            pollfd pfd{fd, POLLOUT, 0};
            if (::poll(&pfd, 1, 5000) > 0)
                continue;
            errno = ETIMEDOUT;
            return false;
        }
        return false;
    }
    return true;
}

} // namespace mondrian
