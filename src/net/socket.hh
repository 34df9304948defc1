/**
 * @file
 * Small non-blocking TCP socket layer for distributed campaigns.
 *
 * The coordinator's event loop is a single-threaded poll() reactor; this
 * layer gives it exactly what it needs and nothing more: an RAII fd
 * wrapper, listen/connect/accept, and the one write-all loop every
 * channel uses, with the EINTR and partial-transfer handling done once
 * instead of at every call site. No frames, no protocol — that is
 * src/net/transport.hh's job.
 *
 * Endpoint grammar (shared by --listen and --worker-connect):
 * `HOST:PORT` where HOST is a hostname or numeric address resolved via
 * getaddrinfo and PORT is a decimal port (0 = kernel-assigned, used by
 * tests to bind an ephemeral listener and read it back via localPort()).
 */

#ifndef MONDRIAN_NET_SOCKET_HH
#define MONDRIAN_NET_SOCKET_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace mondrian {

/**
 * Write all @p size bytes to @p fd (pipe or socket), retrying EINTR and
 * partial writes. On a non-blocking fd with a full kernel buffer it
 * waits up to five seconds for writability; a peer that stays
 * unwritable is treated as gone. A socket is written with
 * send(MSG_NOSIGNAL), so a reset peer fails with EPIPE whatever the
 * caller's SIGPIPE disposition; a pipe has no such flag, so a write to
 * a pipe whose reader is gone raises SIGPIPE unless the caller ignores it.
 * @return false with errno set when the peer is gone or the write fails.
 */
bool writeAll(int fd, const void *buf, std::size_t size);

/** A parsed HOST:PORT endpoint. */
struct Endpoint
{
    std::string host;
    std::uint16_t port = 0;

    /** Canonical display form, "host:port". */
    std::string name() const;
};

/**
 * Parse a `HOST:PORT` spec (the --listen / --worker-connect grammar).
 * The port is decimal in [0, 65535]; the host must be non-empty (use
 * 0.0.0.0 to listen on every interface).
 * @return false with @p error set on malformed specs.
 */
bool parseEndpoint(const std::string &spec, Endpoint &out,
                   std::string &error);

/**
 * Move-only RAII wrapper of one TCP socket fd.
 *
 * All factory functions report failure by returning an invalid Socket
 * with @p error set (never by throwing — the callers are event loops
 * and CLI front ends that map failures to requeue paths or exit codes).
 */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Socket &
    operator=(Socket &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** Close now (idempotent; EINTR-safe per POSIX close semantics). */
    void close();

    /** Release ownership of the fd without closing it. */
    int release();

    /**
     * Bind and listen on @p ep (SO_REUSEADDR so restarted coordinators
     * do not trip TIME_WAIT). Port 0 binds an ephemeral port readable
     * via localPort().
     */
    static Socket listen(const Endpoint &ep, std::string &error);

    /**
     * Blocking connect to @p ep; resolves the host and tries every
     * returned address in order. TCP_NODELAY is set (the protocol is
     * small request/response messages).
     */
    static Socket connect(const Endpoint &ep, std::string &error);

    /**
     * Accept one pending connection from a listening socket.
     * Returns an invalid Socket with an EMPTY @p error when no
     * connection is pending (the non-blocking accept's EAGAIN) and an
     * invalid Socket with @p error set on real failures. Accepted
     * sockets get TCP_NODELAY.
     */
    Socket accept(std::string &error) const;

    /** Switch the fd to O_NONBLOCK (coordinator-side sockets). */
    bool setNonBlocking(std::string &error) const;

    /** Locally bound port (0 on error) — how tests recover a port-0 bind. */
    std::uint16_t localPort() const;

  private:
    int fd_ = -1;
};

} // namespace mondrian

#endif // MONDRIAN_NET_SOCKET_HH
