#include "serve/protocol.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace sns::serve {

const char *
statusName(Status status)
{
    switch (status) {
    case Status::Ok:
        return "OK";
    case Status::Overloaded:
        return "OVERLOADED";
    case Status::DeadlineExceeded:
        return "DEADLINE_EXCEEDED";
    case Status::Error:
        return "ERROR";
    case Status::Draining:
        return "DRAINING";
    case Status::Unsupported:
        return "UNSUPPORTED";
    }
    return "UNKNOWN";
}

void
WireWriter::u32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
WireWriter::u64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
WireWriter::f64(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
WireWriter::str(const std::string &s)
{
    u32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
WireReader::need(size_t bytes) const
{
    if (size_ - pos_ < bytes)
        throw ProtocolError("truncated payload");
}

uint8_t
WireReader::u8()
{
    need(1);
    return data_[pos_++];
}

uint32_t
WireReader::u32()
{
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
    return v;
}

uint64_t
WireReader::u64()
{
    need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    return v;
}

double
WireReader::f64()
{
    const uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
WireReader::str()
{
    const uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char *>(data_ + pos_), len);
    pos_ += len;
    return s;
}

void
WireReader::expectEnd() const
{
    if (pos_ != size_)
        throw ProtocolError("trailing bytes in payload");
}

namespace {

void
writeAll(int fd, const uint8_t *data, size_t size)
{
    size_t done = 0;
    while (done < size) {
        // MSG_NOSIGNAL: a peer that vanished mid-frame must surface
        // as EPIPE -> ProtocolError, not SIGPIPE — the router's
        // health loop and in-process embedders (tests) have no
        // signal handler to hide behind.
        const ssize_t n = ::send(fd, data + done, size - done,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ProtocolError(std::string("write failed: ") +
                                std::strerror(errno));
        }
        done += static_cast<size_t>(n);
    }
}

/** Full read; returns false on EOF before the first byte. */
bool
readAll(int fd, uint8_t *data, size_t size)
{
    size_t done = 0;
    while (done < size) {
        const ssize_t n = ::read(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ProtocolError(std::string("read failed: ") +
                                std::strerror(errno));
        }
        if (n == 0) {
            if (done == 0)
                return false;
            throw ProtocolError("truncated frame (EOF mid-frame)");
        }
        done += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

void
sendFrame(int fd, const std::vector<uint8_t> &payload)
{
    uint8_t header[4];
    const auto len = static_cast<uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
        header[i] = static_cast<uint8_t>(len >> (8 * i));
    writeAll(fd, header, sizeof(header));
    if (!payload.empty())
        writeAll(fd, payload.data(), payload.size());
}

std::optional<std::vector<uint8_t>>
recvFrame(int fd, size_t max_bytes)
{
    uint8_t header[4];
    if (!readAll(fd, header, sizeof(header)))
        return std::nullopt;
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<uint32_t>(header[i]) << (8 * i);
    if (len > max_bytes)
        throw ProtocolError("frame length " + std::to_string(len) +
                            " exceeds limit " +
                            std::to_string(max_bytes));
    std::vector<uint8_t> payload(len);
    if (len > 0 && !readAll(fd, payload.data(), len))
        throw ProtocolError("truncated frame (EOF mid-frame)");
    return payload;
}

} // namespace sns::serve
