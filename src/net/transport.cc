#include "net/transport.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>

#include "common/grammar.hh"

namespace mondrian {

namespace {

constexpr std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        table[i] = c;
    }
    return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = makeCrcTable();

std::string
crcHex(std::uint32_t crc)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(8, '0');
    for (int i = 7; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[crc & 0xF];
        crc >>= 4;
    }
    return out;
}

/** Maximum sane payload; anything larger is a desynced length field. */
constexpr std::size_t kMaxPayload = std::size_t{64} << 20;

/** A frame header line is short; a longer run without '\n' is desync. */
constexpr std::size_t kMaxHeaderLine = 32;

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
        crc = kCrcTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

std::string
encodeFrame(const std::string &payload)
{
    std::string out = std::to_string(payload.size());
    out += ' ';
    out += crcHex(crc32(payload.data(), payload.size()));
    out += '\n';
    out += payload;
    out += '\n';
    return out;
}

int
decodeFrame(std::string &buf, std::string &payload)
{
    const std::size_t nl = buf.find('\n');
    if (nl == std::string::npos)
        return buf.size() > kMaxHeaderLine ? -1 : 0;
    std::string header = buf.substr(0, nl);

    const std::size_t space = header.find(' ');
    if (space == std::string::npos)
        return -1;
    const std::string crc_text = header.substr(space + 1);
    header.resize(space);
    if (crc_text.size() != 8 ||
        crc_text.find_first_not_of("0123456789abcdef") != std::string::npos)
        return -1;
    std::uint64_t len = 0;
    if (!parseUint(header, kMaxPayload, len))
        return -1;
    if (buf.size() < nl + 1 + len + 1)
        return 0;
    if (buf[nl + 1 + len] != '\n')
        return -1;
    payload = buf.substr(nl + 1, len);
    buf.erase(0, nl + 1 + len + 1);
    if (crcHex(crc32(payload.data(), payload.size())) != crc_text)
        return -1;
    return 1;
}

bool
Channel::send(const std::string &payload)
{
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (write_fd_ < 0)
        return false;
    const std::string wire = encodeFrame(payload);
    return writeAll(write_fd_, wire.data(), wire.size());
}

Channel::Pump
Channel::pump()
{
    if (read_fd_ < 0)
        return Pump::kEof;
    bool got_data = false;
    char chunk[65536];
    for (;;) {
        const ssize_t n = ::read(read_fd_, chunk, sizeof(chunk));
        if (n > 0) {
            buf_.append(chunk, static_cast<std::size_t>(n));
            got_data = true;
            // The fd may be in blocking mode (a worker's stdin or
            // socket): keep reading only while bytes are already
            // waiting, never block a second time inside one pump —
            // the caller must get a chance to decode what arrived.
            pollfd pfd{read_fd_, POLLIN, 0};
            if (::poll(&pfd, 1, 0) <= 0 ||
                !(pfd.revents & (POLLIN | POLLHUP)))
                return Pump::kData;
            continue;
        }
        if (n == 0)
            return got_data ? Pump::kData : Pump::kEof;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return got_data ? Pump::kData : Pump::kIdle;
        return got_data ? Pump::kData : Pump::kError;
    }
}

void
Channel::shutdownSend()
{
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (write_fd_ < 0)
        return;
    if (write_fd_ == read_fd_)
        ::shutdown(write_fd_, SHUT_WR);
    else
        ::close(write_fd_);
    write_fd_ = -1;
}

void
Channel::close()
{
    // Serialized against send(): the worker's heartbeat thread may be
    // mid-write when the job loop tears the channel down.
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (read_fd_ >= 0)
        ::close(read_fd_);
    if (write_fd_ >= 0 && write_fd_ != read_fd_)
        ::close(write_fd_);
    read_fd_ = write_fd_ = -1;
}

} // namespace mondrian
