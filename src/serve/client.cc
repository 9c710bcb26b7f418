#include "serve/client.hh"

#include <utility>

#include <unistd.h>

#include "serve/codec.hh"

namespace sns::serve {

Client
Client::connect(const Endpoint &endpoint, const ConnectRetryOptions &retry)
{
    return Client(connectTo(endpoint, retry));
}

Client
Client::connectUnix(const std::string &path,
                    const ConnectRetryOptions &retry)
{
    return connect(Endpoint{path}, retry);
}

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

Client::Client(Client &&other) noexcept
    : fd_(std::exchange(other.fd_, -1))
{
}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
}

std::vector<uint8_t>
Client::roundTrip(const std::vector<uint8_t> &payload)
{
    sendFrame(fd_, payload);
    auto reply = recvFrame(fd_, kMaxReplyFrameBytes);
    if (!reply)
        throw ProtocolError("server closed the connection");
    return std::move(*reply);
}

std::string
Client::statusRoundTrip(const WireWriter &request)
{
    const auto payload = roundTrip(request.bytes());
    WireReader reader(payload);
    const auto status = static_cast<Status>(reader.u8());
    const std::string message = reader.str();
    reader.expectEnd();
    return status == Status::Ok ? "" : message;
}

PredictReply
Client::predict(const std::string &design_source, DesignFormat format,
                uint32_t deadline_ms, core::Precision precision)
{
    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Verb::Predict));
    writer.u32(deadline_ms);
    writer.u8(static_cast<uint8_t>(precision));
    writer.u8(static_cast<uint8_t>(format));
    writer.str(design_source);

    const auto payload = roundTrip(writer.bytes());
    WireReader reader(payload);
    PredictReply reply;
    reply.status = static_cast<Status>(reader.u8());
    if (reply.status != Status::Ok)
        reply.message = reader.str();
    else
        reply.prediction = readPrediction(reader);
    reader.expectEnd();
    return reply;
}

std::string
Client::stats()
{
    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Verb::Stats));
    const auto payload = roundTrip(writer.bytes());
    WireReader reader(payload);
    const auto status = static_cast<Status>(reader.u8());
    if (status != Status::Ok)
        throw ProtocolError("STATS failed: " + reader.str());
    std::string text = reader.str();
    reader.expectEnd();
    return text;
}

std::string
Client::reload(const std::string &directory)
{
    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Verb::Reload));
    writer.str(directory);
    return statusRoundTrip(writer);
}

void
Client::ping()
{
    health();
}

void
Client::hello()
{
    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Verb::Hello));
    writer.u32(kProtocolVersion);
    const auto payload = roundTrip(writer.bytes());
    WireReader reader(payload);
    if (static_cast<Status>(reader.u8()) != Status::Ok)
        throw ProtocolError("HELLO refused: " + reader.str());
    const uint32_t server_version = reader.u32();
    reader.expectEnd();
    if (server_version != kProtocolVersion)
        throw ProtocolError(
            "protocol version mismatch: peer speaks " +
            std::to_string(server_version) + ", this client speaks " +
            std::to_string(kProtocolVersion));
}

std::string
Client::drain()
{
    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Verb::Drain));
    return statusRoundTrip(writer);
}

std::string
Client::resume()
{
    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Verb::Resume));
    return statusRoundTrip(writer);
}

bool
Client::health()
{
    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Verb::Ping));
    const auto payload = roundTrip(writer.bytes());
    WireReader reader(payload);
    if (static_cast<Status>(reader.u8()) != Status::Ok)
        throw ProtocolError("PING failed");
    reader.str(); // (empty) message
    const bool draining = reader.u8() != 0;
    reader.expectEnd();
    return draining;
}

WorkersReply
Client::workers()
{
    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Verb::Workers));
    const auto payload = roundTrip(writer.bytes());
    WireReader reader(payload);
    WorkersReply reply;
    reply.status = static_cast<Status>(reader.u8());
    if (reply.status != Status::Ok) {
        reply.message = reader.str();
        reader.expectEnd();
        return reply;
    }
    // Each entry is at least a u32-length address and a state byte.
    const uint32_t count = reader.count(sizeof(uint32_t) + 1);
    reply.workers.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        WorkerEndpoint endpoint;
        endpoint.address = reader.str();
        endpoint.state = reader.u8();
        reply.workers.push_back(std::move(endpoint));
    }
    reader.expectEnd();
    return reply;
}

SessionReply
Client::sessionRoundTrip(const WireWriter &request, bool expect_session_id)
{
    const auto payload = roundTrip(request.bytes());
    WireReader reader(payload);
    SessionReply reply;
    reply.status = static_cast<Status>(reader.u8());
    if (reply.status != Status::Ok) {
        reply.message = reader.str();
    } else {
        if (expect_session_id)
            reply.session_id = reader.u64();
        reply.prediction = readPrediction(reader);
        reply.diff = readDiff(reader);
    }
    reader.expectEnd();
    return reply;
}

SessionReply
Client::openSession(const std::string &design_source,
                    DesignFormat format, core::Precision precision)
{
    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Verb::Open));
    writer.u8(static_cast<uint8_t>(precision));
    writer.u8(static_cast<uint8_t>(format));
    writer.str(design_source);
    return sessionRoundTrip(writer, /*expect_session_id=*/true);
}

SessionReply
Client::updateSession(uint64_t session_id,
                      const std::string &design_source,
                      DesignFormat format, core::Precision precision)
{
    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Verb::Update));
    writer.u64(session_id);
    writer.u8(static_cast<uint8_t>(precision));
    writer.u8(static_cast<uint8_t>(format));
    writer.str(design_source);
    SessionReply reply =
        sessionRoundTrip(writer, /*expect_session_id=*/false);
    reply.session_id = session_id;
    return reply;
}

std::string
Client::closeSession(uint64_t session_id)
{
    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Verb::Close));
    writer.u64(session_id);
    return statusRoundTrip(writer);
}

} // namespace sns::serve
