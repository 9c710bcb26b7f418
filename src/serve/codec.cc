#include "serve/codec.hh"

namespace sns::serve {

std::vector<uint8_t>
statusReply(Status status, const std::string &message)
{
    WireWriter writer;
    writer.u8(static_cast<uint8_t>(status));
    writer.str(message);
    return writer.bytes();
}

core::Precision
readPrecision(WireReader &reader)
{
    const uint8_t byte = reader.u8();
    const auto precision = static_cast<core::Precision>(byte);
    if (precision != core::Precision::Fp64 &&
        precision != core::Precision::Int8)
        throw ProtocolError("unknown precision byte " +
                            std::to_string(byte) + " (0 fp64, 1 int8)");
    return precision;
}

void
writePrediction(WireWriter &writer, const core::SnsPrediction &prediction)
{
    writer.f64(prediction.timing_ps);
    writer.f64(prediction.area_um2);
    writer.f64(prediction.power_mw);
    writer.u64(prediction.paths_sampled);
    writer.u32(static_cast<uint32_t>(prediction.critical_path.size()));
    for (const graphir::NodeId node : prediction.critical_path)
        writer.u32(node);
}

core::SnsPrediction
readPrediction(WireReader &reader)
{
    core::SnsPrediction prediction;
    prediction.timing_ps = reader.f64();
    prediction.area_um2 = reader.f64();
    prediction.power_mw = reader.f64();
    prediction.paths_sampled = reader.u64();
    const uint32_t nodes = reader.count(sizeof(uint32_t));
    prediction.critical_path.reserve(nodes);
    for (uint32_t i = 0; i < nodes; ++i)
        prediction.critical_path.push_back(reader.u32());
    return prediction;
}

void
writeDiff(WireWriter &writer, const core::DiffStats &diff)
{
    writer.u8(diff.noop ? 1 : 0);
    writer.u64(diff.modules_changed);
    writer.u64(diff.modules_added);
    writer.u64(diff.modules_removed);
    writer.u64(diff.modules_total);
    writer.u64(diff.nodes_affected);
    writer.u64(diff.endpoints_affected);
    writer.u64(diff.paths_total);
    writer.u64(diff.paths_reused);
    writer.u64(diff.paths_recomputed);
}

core::DiffStats
readDiff(WireReader &reader)
{
    core::DiffStats diff;
    diff.noop = reader.u8() != 0;
    diff.modules_changed = reader.u64();
    diff.modules_added = reader.u64();
    diff.modules_removed = reader.u64();
    diff.modules_total = reader.u64();
    diff.nodes_affected = reader.u64();
    diff.endpoints_affected = reader.u64();
    diff.paths_total = reader.u64();
    diff.paths_reused = reader.u64();
    diff.paths_recomputed = reader.u64();
    return diff;
}

std::vector<uint8_t>
answerHello(WireReader &reader)
{
    const uint32_t version = reader.u32();
    if (version == kProtocolVersion && reader.remaining() == 0) {
        WireWriter writer;
        writer.u8(static_cast<uint8_t>(Status::Ok));
        writer.u32(kProtocolVersion);
        return writer.bytes();
    }
    std::string message = "protocol version mismatch: client sent " +
                          std::to_string(version);
    if (reader.remaining() > 0)
        message += " plus " + std::to_string(reader.remaining()) +
                   " trailing byte(s)";
    return statusReply(Status::Error,
                       message + "; this peer speaks exactly version " +
                           std::to_string(kProtocolVersion));
}

} // namespace sns::serve
