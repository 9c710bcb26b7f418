/**
 * @file
 * The .snsp serialized execution-plan container.
 *
 * Layout (little-endian, fixed-width fields):
 *
 *   header, 24 bytes:
 *     "SNSP"            4-byte magic
 *     u32 version       currently 2 (1 still readable)
 *     u64 payload_len   bytes following the header
 *     u64 payload_hash  FNV-1a over the payload bytes
 *
 *   payload:
 *     u64 fingerprint
 *     i32 x 8           vocab, max_positions, d_model, heads, layers,
 *                       d_ff, head_hidden, batch_max
 *     u32 nbuffers      then per buffer: u8 ndim,
 *                       ndim x { u8 dim_kind, i32 value }
 *     u32 nweights      then per weight: u32 param_index, u8 role,
 *                       i32 rows, i32 cols
 *     u32 nops          then per op: u8 kind, u8 epilogue, u8 n_in,
 *                       u8 n_w, n_in x u32 inputs, n_w x u32 weights,
 *                       u32 out, f32 fattr, i32 iattr
 *     u32 nquant        (version >= 2) then per entry: u32 op_index,
 *                       f32 x_scale, u32 nscales, nscales x f32
 *
 * Version 1 files (pre-quantization) simply lack the quant section and
 * parse into a plan with an empty side table; version 2 is always
 * written, with nquant = 0 for pure fp64 plans.
 *
 * readPlanFile() performs the container checks (rules P-OPEN, P-MAGIC,
 * P-VERSION, P-TRUNCATED, P-HASH) and an offset-tracked payload parse:
 * every diagnostic carries the absolute byte offset and the field
 * being decoded (verify::atByte). It deliberately reports *into* a
 * Report instead of throwing, so sns_lint can keep going; enforcement
 * policy stays with the caller (verify::checkPlanFile, model load,
 * sns-serve RELOAD).
 */

#ifndef SNS_PLAN_SNSP_HH
#define SNS_PLAN_SNSP_HH

#include <string>
#include <vector>

#include "plan/ir.hh"
#include "verify/diagnostics.hh"

namespace sns::plan {

inline constexpr char kSnspMagic[4] = {'S', 'N', 'S', 'P'};
inline constexpr uint32_t kSnspVersion = 2;
/** Oldest container version readPlanFile still accepts. */
inline constexpr uint32_t kSnspMinVersion = 1;
inline constexpr size_t kSnspHeaderBytes = 24;

/** Serialize a plan's payload (everything after the 24-byte header). */
std::vector<unsigned char> serializePlanPayload(const Plan &plan);

/** Serialize header + payload into one buffer. */
std::vector<unsigned char> serializePlan(const Plan &plan);

/** Write a plan to disk; throws std::runtime_error on I/O failure. */
void writePlanFile(const Plan &plan, const std::string &path);

/**
 * Parse a payload (header already stripped) into `out`. `version` is
 * the container version from the header and selects which sections to
 * expect (the quant side table exists from version 2). Diagnostics
 * carry byte offsets relative to the *file* start, i.e. payload
 * offsets shifted by kSnspHeaderBytes. Returns false — with at least
 * one error in `report` — when the payload is malformed.
 */
bool parsePlanPayload(const unsigned char *data, size_t size,
                      uint32_t version, Plan &out,
                      verify::Report &report, const std::string &where);

/**
 * Read + container-check + parse one .snsp file. Returns false when
 * `out` is unusable; `report` holds the P-* findings either way.
 */
bool readPlanFile(const std::string &path, Plan &out,
                  verify::Report &report);

} // namespace sns::plan

#endif // SNS_PLAN_SNSP_HH
