/**
 * @file
 * Channel: the message channel between a campaign coordinator and one
 * worker, over a pipe pair or a TCP socket.
 *
 * Every channel carries the same frames in both directions:
 * "<decimal length> <8-hex crc32>\n<payload>\n". The CRC means a bit
 * flip on the wire is detected at the transport layer (next() returns a
 * desync, which maps to the coordinator's kill/requeue path) instead of
 * surfacing as a JSON parse error deep in result handling. Pipes and
 * sockets differ only in their file descriptors: a local worker's
 * channel reads one pipe and writes another, a socket reads and writes
 * the same fd.
 *
 * Threading: send() is serialized by an internal mutex — the worker's
 * dedicated heartbeat thread writes concurrently with the job loop.
 * pump()/next() are single-consumer: only the owning event loop reads.
 */

#ifndef MONDRIAN_NET_TRANSPORT_HH
#define MONDRIAN_NET_TRANSPORT_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "net/socket.hh"

namespace mondrian {

/** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of @p data. */
std::uint32_t crc32(const void *data, std::size_t size);

/** Encode one payload as "<decimal length> <8-hex crc32>\n<payload>\n". */
std::string encodeFrame(const std::string &payload);

/**
 * Extract the next complete frame from @p buf, consuming it.
 * @return 1 on a frame (payload out), 0 when more bytes are needed, -1
 * on a framing violation — unparseable header, nonsense length, missing
 * trailer or a CRC mismatch. -1 means the stream is no longer
 * trustworthy: the caller must drop the channel.
 */
int decodeFrame(std::string &buf, std::string &payload);

/**
 * Bidirectional framed message channel between a coordinator and one
 * worker. Owns its fds and closes them on destruction.
 */
class Channel
{
  public:
    /** pump() outcome. */
    enum class Pump
    {
        kData, ///< bytes were appended to the reassembly buffer
        kIdle, ///< nothing available right now (non-blocking fd only)
        kEof,  ///< peer closed the channel in an orderly way
        kError ///< read error: channel dead
    };

    /** A pipe pair (or any two fds): read one, write the other. */
    Channel(int read_fd, int write_fd)
        : read_fd_(read_fd), write_fd_(write_fd)
    {}

    /** A socket: the same fd both ways. */
    explicit Channel(Socket socket)
        : read_fd_(socket.fd()), write_fd_(socket.release())
    {}

    ~Channel() { close(); }

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /**
     * Send one protocol message (thread-safe).
     * @return false when the peer is gone or the write fails.
     */
    bool send(const std::string &payload);

    /** Read available bytes from the fd into the reassembly buffer.
     *  Blocking fds block until data/EOF; non-blocking fds drain until
     *  EAGAIN and report kIdle when nothing was pending. */
    Pump pump();

    /**
     * Extract the next complete inbound message from the reassembly
     * buffer. @return 1 with the message in @p payload, 0 when more
     * bytes are needed (pump() again), -1 on a framing violation or CRC
     * mismatch (drop the channel).
     */
    int next(std::string &payload) { return decodeFrame(buf_, payload); }

    /** poll()able fd of the receive side. */
    int fd() const { return read_fd_; }

    /**
     * Half-close the send direction only (idempotent): the peer sees
     * EOF on its read side while our receive side stays open. This is
     * how the coordinator's shutdown works — after the exit message the
     * command direction closes, but replies stay readable until the
     * worker is reaped. A socket is shut down for writing; a pipe's
     * write end is closed.
     */
    void shutdownSend();

    /** Close both directions (idempotent). */
    void close();

  private:
    int read_fd_;
    int write_fd_;
    std::string buf_;
    std::mutex send_mutex_;
};

} // namespace mondrian

#endif // MONDRIAN_NET_TRANSPORT_HH
