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
WireWriter::str(const std::string &s)
{
    u32(static_cast<uint32_t>(s.size()));
    ByteWriter::bytes(s.data(), s.size());
}

WireReader::WireReader(const uint8_t *data, size_t size)
    : ByteReader(data, size, 0, [](const ByteReader &, const void *) {
          throw ProtocolError("truncated payload");
      })
{
}

std::string
WireReader::str()
{
    const uint32_t len = u32();
    const uint8_t *data = bytes(len);
    return std::string(reinterpret_cast<const char *>(data), len);
}

void
WireReader::expectEnd() const
{
    if (remaining() != 0)
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
    const auto len = static_cast<uint32_t>(payload.size());
    writeAll(fd, reinterpret_cast<const uint8_t *>(&len), sizeof(len));
    if (!payload.empty())
        writeAll(fd, payload.data(), payload.size());
}

std::optional<std::vector<uint8_t>>
recvFrame(int fd, size_t max_bytes)
{
    uint8_t header[4];
    if (!readAll(fd, header, sizeof(header)))
        return std::nullopt;
    const uint32_t len = ByteReader(header, sizeof(header)).u32();
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
