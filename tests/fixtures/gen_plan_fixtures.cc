/**
 * @file
 * Generator for the corrupted .snsp fixtures committed next to this
 * file. Each fixture trips exactly one rule family of the plan
 * checker, from the container layer down to the analysis passes:
 *
 *   plan_bad_magic.snsp        wrong 4-byte magic           P-MAGIC
 *   plan_truncated.snsp        op table cut mid-record      P-TRUNCATED
 *   plan_dangling_buffer.snsp  op input names no buffer     P-BUFFER
 *   plan_shape_mismatch.snsp   declared buffer dim off by 1 P-SHAPE
 *   plan_hash_flip.snsp        payload byte flipped         P-HASH
 *   plan_bad_scales.snsp       zero weight scale            P-QUANT-SCALE
 *
 * The dangling/shape corpus entries are corrupted at the Plan level
 * and re-serialized, so their container hashes are *valid* — they
 * prove the analysis passes run behind an intact container. The
 * truncated entry re-hashes its cut payload so only the cursor-level
 * truncation check can catch it. Regenerate after an IR or container
 * format change:
 *
 *   cmake --build build --target gen_plan_fixtures
 *   ./build/tests/gen_plan_fixtures tests/fixtures
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "plan/ir.hh"
#include "plan/snsp.hh"

namespace {

using namespace sns;

/** The small-architecture plan every fixture starts from. */
plan::Plan
basePlan()
{
    plan::PlanConfig config;
    config.vocab = 64;
    config.max_positions = 32;
    config.d_model = 16;
    config.heads = 2;
    config.layers = 1;
    config.d_ff = 32;
    config.head_hidden = 8;
    config.batch_max = 4;
    return plan::buildCanonicalPlan(config, 0x515e6edu);
}

void
writeBytes(const std::string &path,
           const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: gen_plan_fixtures FIXTURE_DIR\n");
        return 2;
    }
    const std::string dir = argv[1];
    const plan::Plan base = basePlan();

    // P-MAGIC: valid file, wrong magic.
    {
        std::vector<unsigned char> bytes = plan::serializePlan(base);
        bytes[3] = 'X'; // "SNSP" -> "SNSX"
        writeBytes(dir + "/plan_bad_magic.snsp", bytes);
    }

    // P-TRUNCATED: cut the payload mid-op-table, then write a header
    // that honestly describes (and correctly hashes) the cut payload,
    // so only the payload cursor can detect the damage.
    {
        std::vector<unsigned char> payload =
            plan::serializePlanPayload(base);
        payload.resize(payload.size() - payload.size() / 3);
        const auto header = containerHeader(kPlanFormat, payload.data(),
                                            payload.size());
        std::vector<unsigned char> bytes(header.begin(), header.end());
        bytes.insert(bytes.end(), payload.begin(), payload.end());
        writeBytes(dir + "/plan_truncated.snsp", bytes);
    }

    // P-BUFFER: intact container, one op input pointing at a buffer id
    // that no op defines.
    {
        plan::Plan bad = base;
        bad.ops.back().inputs[0] = 999;
        writeBytes(dir + "/plan_dangling_buffer.snsp",
                   plan::serializePlan(bad));
    }

    // P-SHAPE: intact container, one declared buffer extent off by
    // one against what shape inference derives.
    {
        plan::Plan bad = base;
        bad.buffers[2].dims[2].value += 1;
        writeBytes(dir + "/plan_shape_mismatch.snsp",
                   plan::serializePlan(bad));
    }

    // P-HASH: one payload byte flipped after the (now stale) header
    // hash was computed.
    {
        std::vector<unsigned char> bytes = plan::serializePlan(base);
        bytes[kContainerHeaderBytes + 40] ^= 0x10;
        writeBytes(dir + "/plan_hash_flip.snsp", bytes);
    }

    // P-QUANT-SCALE: intact v2 container, a quantized Gemm whose
    // weight-scale tensor carries a zero entry — the side table was
    // "corrupted" after calibration, and only the quant pass sees it.
    {
        plan::Plan bad = base;
        for (size_t i = 0; i + 1 < bad.ops.size(); ++i) {
            const plan::Op &op = bad.ops[i];
            if (op.kind != plan::OpKind::Gemm || op.weights.empty())
                continue;
            plan::QuantizedGemm entry;
            entry.op_index = static_cast<uint32_t>(i);
            entry.x_scale = 0.25f;
            entry.w_scales.assign(
                static_cast<size_t>(
                    bad.weights[op.weights[0]].cols),
                0.5f);
            entry.w_scales.back() = 0.0f; // trips P-QUANT-SCALE
            bad.quant.push_back(entry);
            break;
        }
        writeBytes(dir + "/plan_bad_scales.snsp",
                   plan::serializePlan(bad));
    }
    return 0;
}
