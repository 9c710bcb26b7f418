/**
 * @file
 * The serve protocol's shared payload blocks (protocol.hh): status
 * replies, the precision byte, <prediction>, <diff>, and the HELLO
 * version check.
 * The server writes them, the client reads them, and the router does
 * both — one definition keeps all three ends byte-identical, which is
 * what makes routed and remote replies bitwise equal to a local
 * predictBatch.
 */

#ifndef SNS_SERVE_CODEC_HH
#define SNS_SERVE_CODEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/design_session.hh"
#include "core/predictor.hh"
#include "serve/protocol.hh"

namespace sns::serve {

/** A reply that is a status byte plus its message string. */
std::vector<uint8_t> statusReply(Status status, const std::string &message);

/** Read a precision byte; throws ProtocolError "unknown precision
 * byte N (0 fp64, 1 int8)" on any other value. */
core::Precision readPrecision(WireReader &reader);

void writePrediction(WireWriter &writer,
                     const core::SnsPrediction &prediction);
core::SnsPrediction readPrediction(WireReader &reader);

void writeDiff(WireWriter &writer, const core::DiffStats &diff);
core::DiffStats readDiff(WireReader &reader);

/**
 * Answer a HELLO payload: OK + kProtocolVersion when it is exactly
 * the u32 kProtocolVersion, otherwise ERROR naming the client's number
 * (and any trailing bytes) next to this build's.
 */
std::vector<uint8_t> answerHello(WireReader &reader);

} // namespace sns::serve

#endif // SNS_SERVE_CODEC_HH
