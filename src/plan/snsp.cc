#include "plan/snsp.hh"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/fnv.hh"

namespace sns::plan {

namespace {

using verify::Report;
using verify::atByte;
namespace rules = verify::rules;

/** Element-count sanity cap: a valid plan has a few dozen records per
 * table; anything past this is garbage input, not a big plan. */
constexpr uint32_t kMaxTableEntries = 1u << 20;

void
appendRaw(std::vector<unsigned char> &out, const void *data, size_t bytes)
{
    const size_t at = out.size();
    out.resize(at + bytes);
    std::memcpy(out.data() + at, data, bytes);
}

template <typename T>
void
append(std::vector<unsigned char> &out, T value)
{
    appendRaw(out, &value, sizeof(T));
}

/**
 * Offset-tracked payload reader. `base` is the file offset of payload
 * byte 0, so every diagnostic points at an absolute file position.
 */
struct Cursor
{
    const unsigned char *data;
    size_t size;
    size_t pos = 0;
    size_t base;
    const std::string &where;
    Report &report;
    bool failed = false;

    size_t fileOffset() const { return base + pos; }

    /** Read one fixed-width value; reports P-TRUNCATED and latches
     * `failed` when the payload ends early. */
    template <typename T>
    bool
    read(T &out_value, const char *field)
    {
        if (failed)
            return false;
        if (pos + sizeof(T) > size) {
            report.error(rules::kPlanTruncated,
                         atByte(where, fileOffset(), field),
                         "payload ends early while decoding this field",
                         "re-trace the plan with `sns-cli plan`");
            failed = true;
            return false;
        }
        std::memcpy(&out_value, data + pos, sizeof(T));
        pos += sizeof(T);
        return true;
    }

    /** Read a table length and range-check it. */
    bool
    readCount(uint32_t &out_value, const char *field)
    {
        const size_t at = fileOffset();
        if (!read(out_value, field))
            return false;
        if (out_value > kMaxTableEntries) {
            report.error(rules::kPlanTruncated, atByte(where, at, field),
                         "implausible table length " +
                             std::to_string(out_value),
                         "the payload is not a serialized plan");
            failed = true;
            return false;
        }
        return true;
    }

    /** Read + range-check an enum byte. */
    template <typename E>
    bool
    readEnum(E &out_value, uint8_t limit, const char *field)
    {
        const size_t at = fileOffset();
        uint8_t raw = 0;
        if (!read(raw, field))
            return false;
        if (raw >= limit) {
            report.error(rules::kPlanTruncated, atByte(where, at, field),
                         "invalid enum value " + std::to_string(raw));
            failed = true;
            return false;
        }
        out_value = static_cast<E>(raw);
        return true;
    }
};

} // namespace

std::vector<unsigned char>
serializePlanPayload(const Plan &plan)
{
    std::vector<unsigned char> out;
    append(out, plan.fingerprint);
    const int32_t config[8] = {
        plan.config.vocab,   plan.config.max_positions,
        plan.config.d_model, plan.config.heads,
        plan.config.layers,  plan.config.d_ff,
        plan.config.head_hidden, plan.config.batch_max,
    };
    appendRaw(out, config, sizeof(config));

    append(out, static_cast<uint32_t>(plan.buffers.size()));
    for (const Shape &shape : plan.buffers) {
        append(out, shape.ndim);
        for (uint8_t i = 0; i < shape.ndim; ++i) {
            append(out, static_cast<uint8_t>(shape.dims[i].kind));
            append(out, shape.dims[i].value);
        }
    }

    append(out, static_cast<uint32_t>(plan.weights.size()));
    for (const WeightRef &weight : plan.weights) {
        append(out, weight.param_index);
        append(out, static_cast<uint8_t>(weight.role));
        append(out, weight.rows);
        append(out, weight.cols);
    }

    append(out, static_cast<uint32_t>(plan.ops.size()));
    for (const Op &op : plan.ops) {
        append(out, static_cast<uint8_t>(op.kind));
        append(out, static_cast<uint8_t>(op.epilogue));
        append(out, static_cast<uint8_t>(op.inputs.size()));
        append(out, static_cast<uint8_t>(op.weights.size()));
        for (uint32_t input : op.inputs)
            append(out, input);
        for (uint32_t weight : op.weights)
            append(out, weight);
        append(out, op.out);
        append(out, op.fattr);
        append(out, op.iattr);
    }

    // Version-2 quant side table; nquant = 0 for pure fp64 plans.
    append(out, static_cast<uint32_t>(plan.quant.size()));
    for (const QuantizedGemm &entry : plan.quant) {
        append(out, entry.op_index);
        append(out, entry.x_scale);
        append(out, static_cast<uint32_t>(entry.w_scales.size()));
        for (float scale : entry.w_scales)
            append(out, scale);
    }
    return out;
}

std::vector<unsigned char>
serializePlan(const Plan &plan)
{
    const std::vector<unsigned char> payload = serializePlanPayload(plan);
    std::vector<unsigned char> out;
    out.reserve(kSnspHeaderBytes + payload.size());
    appendRaw(out, kSnspMagic, sizeof(kSnspMagic));
    append(out, kSnspVersion);
    append(out, static_cast<uint64_t>(payload.size()));
    append(out, fnv1a(payload.data(), payload.size()));
    appendRaw(out, payload.data(), payload.size());
    return out;
}

void
writePlanFile(const Plan &plan, const std::string &path)
{
    const std::vector<unsigned char> bytes = serializePlan(plan);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot open plan file for writing: " +
                                 path);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out)
        throw std::runtime_error("short write to plan file: " + path);
}

bool
parsePlanPayload(const unsigned char *data, size_t size,
                 uint32_t version, Plan &out, verify::Report &report,
                 const std::string &where)
{
    Cursor cur{data, size, 0, kSnspHeaderBytes, where, report};

    cur.read(out.fingerprint, "model fingerprint");
    int32_t *config[8] = {
        &out.config.vocab,   &out.config.max_positions,
        &out.config.d_model, &out.config.heads,
        &out.config.layers,  &out.config.d_ff,
        &out.config.head_hidden, &out.config.batch_max,
    };
    for (int32_t *field : config)
        cur.read(*field, "plan config");

    uint32_t nbuffers = 0;
    cur.readCount(nbuffers, "buffer table length");
    for (uint32_t i = 0; !cur.failed && i < nbuffers; ++i) {
        Shape shape;
        const size_t at = cur.fileOffset();
        if (!cur.read(shape.ndim, "buffer ndim"))
            break;
        if (shape.ndim < 1 || shape.ndim > 3) {
            report.error(rules::kPlanTruncated,
                         atByte(where, at,
                                "buffer " + std::to_string(i) + " ndim"),
                         "buffer rank " + std::to_string(shape.ndim) +
                             " out of range (1..3)");
            cur.failed = true;
            break;
        }
        for (uint8_t j = 0; j < shape.ndim; ++j) {
            cur.readEnum(shape.dims[j].kind, 4, "buffer dim kind");
            cur.read(shape.dims[j].value, "buffer dim extent");
        }
        out.buffers.push_back(shape);
    }

    uint32_t nweights = 0;
    cur.readCount(nweights, "weight table length");
    for (uint32_t i = 0; !cur.failed && i < nweights; ++i) {
        WeightRef weight;
        cur.read(weight.param_index, "weight param index");
        cur.readEnum(weight.role, 5, "weight role");
        cur.read(weight.rows, "weight rows");
        cur.read(weight.cols, "weight cols");
        out.weights.push_back(weight);
    }

    uint32_t nops = 0;
    cur.readCount(nops, "op table length");
    for (uint32_t i = 0; !cur.failed && i < nops; ++i) {
        Op op;
        const std::string field = "op " + std::to_string(i);
        cur.readEnum(op.kind, 10, "op kind");
        cur.readEnum(op.epilogue, 5, "op epilogue");
        uint8_t n_in = 0;
        uint8_t n_w = 0;
        cur.read(n_in, field.c_str());
        cur.read(n_w, field.c_str());
        op.inputs.resize(n_in);
        for (uint8_t j = 0; j < n_in; ++j)
            cur.read(op.inputs[j], "op input id");
        op.weights.resize(n_w);
        for (uint8_t j = 0; j < n_w; ++j)
            cur.read(op.weights[j], "op weight index");
        cur.read(op.out, "op output id");
        cur.read(op.fattr, "op float attribute");
        cur.read(op.iattr, "op int attribute");
        if (!cur.failed)
            out.ops.push_back(std::move(op));
    }

    // The quant side table exists from container version 2; version-1
    // files end at the op table and parse with an empty side table.
    if (version >= 2) {
        uint32_t nquant = 0;
        cur.readCount(nquant, "quant table length");
        for (uint32_t i = 0; !cur.failed && i < nquant; ++i) {
            QuantizedGemm entry;
            cur.read(entry.op_index, "quant op index");
            cur.read(entry.x_scale, "quant activation scale");
            uint32_t nscales = 0;
            cur.readCount(nscales, "quant scale count");
            entry.w_scales.resize(nscales);
            for (uint32_t j = 0; !cur.failed && j < nscales; ++j)
                cur.read(entry.w_scales[j], "quant weight scale");
            if (!cur.failed)
                out.quant.push_back(std::move(entry));
        }
    }

    if (!cur.failed && cur.pos != size) {
        report.warning(rules::kPlanTruncated,
                       atByte(where, cur.fileOffset(), "payload tail"),
                       std::to_string(size - cur.pos) +
                           " unparsed byte(s) after the op table");
    }
    return !cur.failed;
}

bool
readPlanFile(const std::string &path, Plan &out, verify::Report &report)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        report.error(rules::kPlanOpen, path, "cannot open plan file");
        return false;
    }
    std::vector<unsigned char> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());

    if (bytes.size() < kSnspHeaderBytes) {
        report.error(rules::kPlanTruncated,
                     atByte(path, bytes.size(), "header"),
                     "file shorter than the 24-byte SNSP header",
                     "re-trace the plan with `sns-cli plan`");
        return false;
    }
    if (std::memcmp(bytes.data(), kSnspMagic, sizeof(kSnspMagic)) != 0) {
        report.error(rules::kPlanMagic, atByte(path, 0, "magic"),
                     "bad container magic (expected \"SNSP\")",
                     "this is not a serialized execution plan");
        return false;
    }
    uint32_t version = 0;
    uint64_t length = 0;
    uint64_t expected_hash = 0;
    std::memcpy(&version, bytes.data() + 4, sizeof(version));
    std::memcpy(&length, bytes.data() + 8, sizeof(length));
    std::memcpy(&expected_hash, bytes.data() + 16, sizeof(expected_hash));
    if (version < kSnspMinVersion || version > kSnspVersion) {
        report.error(rules::kPlanVersion, atByte(path, 4, "version"),
                     "unsupported plan version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kSnspMinVersion) + ".." +
                         std::to_string(kSnspVersion) + ")",
                     "re-trace the plan with this build's `sns-cli plan`");
        return false;
    }
    const size_t available = bytes.size() - kSnspHeaderBytes;
    if (length > available) {
        report.error(rules::kPlanTruncated,
                     atByte(path, 8, "payload length"),
                     "header declares " + std::to_string(length) +
                         " payload bytes but only " +
                         std::to_string(available) + " follow",
                     "the plan write was interrupted; re-trace it");
        return false;
    }
    if (length < available) {
        report.warning(rules::kPlanTruncated,
                       atByte(path, kSnspHeaderBytes + length,
                              "payload tail"),
                       std::to_string(available - length) +
                           " trailing byte(s) after the declared payload");
    }
    const unsigned char *payload = bytes.data() + kSnspHeaderBytes;
    const uint64_t hash = fnv1a(payload, length);
    if (hash != expected_hash) {
        report.error(rules::kPlanHash,
                     atByte(path, 16, "payload hash"),
                     "payload hash mismatch (plan file is corrupt)",
                     "re-trace the plan with `sns-cli plan`");
        return false;
    }
    return parsePlanPayload(payload, length, version, out, report, path);
}

} // namespace sns::plan
