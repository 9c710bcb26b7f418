#include "plan/snsp.hh"

#include <fstream>
#include <stdexcept>

#include "util/container.hh"

namespace sns::plan {

namespace {

using verify::Report;
using verify::atByte;
namespace rules = verify::rules;

/**
 * Field-naming P-TRUNCATED reporter over the shared ByteReader (based
 * at the file offset of payload byte 0). Once a field fails, `failed`
 * latches and every later read is a no-op.
 */
struct Cursor
{
    ByteReader in;
    const std::string &where;
    Report &report;
    bool failed = false;

    /** Report `message` at `at` against `field` and latch. */
    bool
    fail(uint64_t at, const std::string &field, const std::string &message)
    {
        report.error(rules::kPlanTruncated, atByte(where, at, field),
                     message, "re-trace the plan with `sns-cli plan`");
        failed = true;
        return false;
    }

    /** Report a failed read of `field` as `message` and latch. */
    bool
    check(const char *field, const char *message)
    {
        return !in.failed() || fail(in.failOffset(), field, message);
    }

    template <typename T>
    bool
    read(T &out_value, const char *field)
    {
        if (failed)
            return false;
        out_value = in.read<T>();
        return check(field, "payload ends early while decoding this field");
    }

    /** A table length whose entries (at least `elem_bytes` each) must
     * fit in the rest of the payload. */
    bool
    readCount(uint32_t &out_value, size_t elem_bytes, const char *field)
    {
        if (failed)
            return false;
        out_value = in.count(elem_bytes);
        return check(field, "payload ends before this table's entries");
    }

    /** Read + range-check an enum byte. */
    template <typename E>
    bool
    readEnum(E &out_value, uint8_t limit, const char *field)
    {
        const uint64_t at = in.offset();
        uint8_t raw = 0;
        if (!read(raw, field))
            return false;
        if (raw >= limit)
            return fail(at, field,
                        "invalid enum value " + std::to_string(raw));
        out_value = static_cast<E>(raw);
        return true;
    }
};

} // namespace

std::vector<unsigned char>
serializePlanPayload(const Plan &plan)
{
    ByteWriter out;
    out.write(plan.fingerprint);
    for (int32_t field : {plan.config.vocab, plan.config.max_positions,
                          plan.config.d_model, plan.config.heads,
                          plan.config.layers, plan.config.d_ff,
                          plan.config.head_hidden, plan.config.batch_max})
        out.write(field);

    out.u32(static_cast<uint32_t>(plan.buffers.size()));
    for (const Shape &shape : plan.buffers) {
        out.u8(shape.ndim);
        for (uint8_t i = 0; i < shape.ndim; ++i) {
            out.u8(static_cast<uint8_t>(shape.dims[i].kind));
            out.write(shape.dims[i].value);
        }
    }

    out.u32(static_cast<uint32_t>(plan.weights.size()));
    for (const WeightRef &weight : plan.weights) {
        out.u32(weight.param_index);
        out.u8(static_cast<uint8_t>(weight.role));
        out.write(weight.rows);
        out.write(weight.cols);
    }

    out.u32(static_cast<uint32_t>(plan.ops.size()));
    for (const Op &op : plan.ops) {
        out.u8(static_cast<uint8_t>(op.kind));
        out.u8(static_cast<uint8_t>(op.epilogue));
        out.u8(static_cast<uint8_t>(op.inputs.size()));
        out.u8(static_cast<uint8_t>(op.weights.size()));
        for (uint32_t input : op.inputs)
            out.u32(input);
        for (uint32_t weight : op.weights)
            out.u32(weight);
        out.u32(op.out);
        out.write(op.fattr);
        out.write(op.iattr);
    }

    // Version-2 quant side table; nquant = 0 for pure fp64 plans.
    out.u32(static_cast<uint32_t>(plan.quant.size()));
    for (const QuantizedGemm &entry : plan.quant) {
        out.u32(entry.op_index);
        out.write(entry.x_scale);
        out.u32(static_cast<uint32_t>(entry.w_scales.size()));
        for (float scale : entry.w_scales)
            out.write(scale);
    }
    return out.take();
}

std::vector<unsigned char>
serializePlan(const Plan &plan)
{
    std::vector<unsigned char> out = serializePlanPayload(plan);
    const auto header = containerHeader(kPlanFormat, out.data(), out.size());
    out.insert(out.begin(), header.begin(), header.end());
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
    Cursor cur{ByteReader(data, size, kContainerHeaderBytes), where,
               report};

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
    // Table lengths are bounded by each entry's smallest encoding.
    cur.readCount(nbuffers, 1 + 5, "buffer table length");
    for (uint32_t i = 0; !cur.failed && i < nbuffers; ++i) {
        Shape shape;
        const uint64_t at = cur.in.offset();
        if (!cur.read(shape.ndim, "buffer ndim"))
            break;
        if (shape.ndim < 1 || shape.ndim > 3) {
            cur.fail(at, "buffer " + std::to_string(i) + " ndim",
                     "buffer rank " + std::to_string(shape.ndim) +
                         " out of range (1..3)");
            break;
        }
        for (uint8_t j = 0; j < shape.ndim; ++j) {
            cur.readEnum(shape.dims[j].kind, 4, "buffer dim kind");
            cur.read(shape.dims[j].value, "buffer dim extent");
        }
        out.buffers.push_back(shape);
    }

    uint32_t nweights = 0;
    cur.readCount(nweights, 4 + 1 + 4 + 4, "weight table length");
    for (uint32_t i = 0; !cur.failed && i < nweights; ++i) {
        WeightRef weight;
        cur.read(weight.param_index, "weight param index");
        cur.readEnum(weight.role, 5, "weight role");
        cur.read(weight.rows, "weight rows");
        cur.read(weight.cols, "weight cols");
        out.weights.push_back(weight);
    }

    uint32_t nops = 0;
    cur.readCount(nops, 4 + 4 * 3, "op table length");
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
        cur.readCount(nquant, 4 * 3, "quant table length");
        for (uint32_t i = 0; !cur.failed && i < nquant; ++i) {
            QuantizedGemm entry;
            cur.read(entry.op_index, "quant op index");
            cur.read(entry.x_scale, "quant activation scale");
            uint32_t nscales = 0;
            cur.readCount(nscales, 4, "quant scale count");
            entry.w_scales.resize(nscales);
            for (uint32_t j = 0; !cur.failed && j < nscales; ++j)
                cur.read(entry.w_scales[j], "quant weight scale");
            if (!cur.failed)
                out.quant.push_back(std::move(entry));
        }
    }

    if (!cur.failed && cur.in.remaining() != 0) {
        report.warning(rules::kPlanTruncated,
                       atByte(where, cur.in.offset(), "payload tail"),
                       std::to_string(cur.in.remaining()) +
                           " unparsed byte(s) after the op table");
    }
    return !cur.failed;
}

bool
readPlanFile(const std::string &path, Plan &out, verify::Report &report)
{
    static const verify::ContainerRules kRules{
        kPlanFormat, "plan", rules::kPlanOpen, rules::kPlanMagic,
        rules::kPlanVersion, rules::kPlanTruncated, rules::kPlanHash,
        "this is not a serialized execution plan",
        "re-trace the plan with `sns-cli plan`"};
    const Container file = readContainer(path, kPlanFormat);
    if (!verify::reportContainer(file, path, kRules, report))
        return false;
    const std::string_view payload = file.payload();
    return parsePlanPayload(
        reinterpret_cast<const unsigned char *>(payload.data()),
        payload.size(), file.version, out, report, path);
}

} // namespace sns::plan
