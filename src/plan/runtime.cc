#include "plan/runtime.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "perf/arena.hh"
#include "plan/calibrate.hh"
#include "tensor/autograd.hh"
#include "tensor/gemm.hh"
#include "util/logging.hh"

namespace sns::plan {

namespace {

std::atomic<bool> &
planFlag()
{
    static std::atomic<bool> flag{[] {
        const char *env = std::getenv("SNS_PLAN");
        if (env == nullptr)
            return true;
        const std::string value(env);
        return !(value == "0" || value == "off" || value == "OFF" ||
                 value == "false" || value == "FALSE");
    }()};
    return flag;
}

} // namespace

bool
planEnabled()
{
    return planFlag().load(std::memory_order_relaxed);
}

void
setPlanEnabled(bool enabled)
{
    planFlag().store(enabled, std::memory_order_relaxed);
}

std::shared_ptr<const CompiledPlan>
compilePlan(const Plan &plan, const std::vector<tensor::Variable> &params)
{
    verify::Report report = verify::checkPlan(plan);
    verify::PlanLayout layout;
    if (!report.hasErrors())
        layout = verify::computePlanLayout(plan, report);

    // Bind each WeightRef to the actual parameter tensor and pre-pack
    // the matrices. A plan traced from a different architecture (or a
    // stale .snsp) fails here with P-MODEL.
    std::vector<const float *> weight_data;
    std::vector<std::vector<float>> packed(plan.weights.size());
    weight_data.reserve(plan.weights.size());
    for (size_t i = 0; i < plan.weights.size(); ++i) {
        const WeightRef &ref = plan.weights[i];
        const std::string where =
            "weight ref " + std::to_string(i) + " (parameter " +
            std::to_string(ref.param_index) + ")";
        if (ref.param_index >= params.size() ||
            !params[ref.param_index].defined()) {
            report.error(verify::rules::kPlanModel, where,
                         "plan references a parameter the model does "
                         "not have (model exposes " +
                             std::to_string(params.size()) + ")",
                         "re-trace the plan from this model");
            weight_data.push_back(nullptr);
            continue;
        }
        const tensor::Tensor &value = params[ref.param_index].value();
        const bool matches =
            ref.cols > 0 ? value.ndim() == 2 && value.dim(0) == ref.rows &&
                               value.dim(1) == ref.cols
                         : value.ndim() == 1 && value.dim(0) == ref.rows;
        if (!matches) {
            std::string actual = "[";
            for (int dim = 0; dim < value.ndim(); ++dim) {
                if (dim > 0)
                    actual += ", ";
                actual += std::to_string(value.dim(dim));
            }
            report.error(verify::rules::kPlanModel, where,
                         "parameter tensor is " + actual +
                             "], plan expects [" +
                             std::to_string(ref.rows) +
                             (ref.cols > 0
                                  ? ", " + std::to_string(ref.cols) + "]"
                                  : "]"),
                         "the plan was traced from a different "
                         "architecture");
            weight_data.push_back(nullptr);
            continue;
        }
        weight_data.push_back(value.data());
        if (ref.role == WeightRole::Matrix) {
            const size_t floats =
                tensor::gemmPackedFloats(ref.cols, ref.rows);
            packed[i].resize(floats);
            tensor::gemmPackB(value.data(), ref.cols, ref.rows, false,
                              packed[i].data());
        }
    }

    verify::enforce(report, "plan::compilePlan");
    // In Count/Off enforcement modes execution must still not proceed
    // through a plan that failed analysis.
    SNS_ASSERT(!report.hasErrors(),
               "compilePlan: plan failed static analysis");

    auto compiled = std::make_shared<CompiledPlan>();
    compiled->plan_ = plan;
    compiled->layout_ = std::move(layout);
    compiled->params_ = params;
    compiled->weight_data_ = std::move(weight_data);
    compiled->packed_ = std::move(packed);

    // Compile the int8 side table: re-quantize each referenced weight
    // matrix with its per-column scales and pack it for qgemmI32. The
    // P-QUANT pass (inside checkPlan above) already proved the table
    // well-formed, so indexing is safe here.
    if (!plan.quant.empty()) {
        compiled->qkernels_.resize(plan.ops.size());
        for (const QuantizedGemm &entry : plan.quant) {
            const Op &op = plan.ops[entry.op_index];
            const uint32_t w = op.weights[0];
            const WeightRef &ref = plan.weights[w];
            const float *wdata = compiled->weight_data_[w];
            const int k = ref.rows;
            const int n = ref.cols;
            auto kernel = std::make_unique<CompiledPlan::QuantKernel>();
            kernel->inv_x_scale = 1.0f / entry.x_scale;
            kernel->mult.resize(static_cast<size_t>(n));
            std::vector<int8_t> wq(static_cast<size_t>(k) * n);
            for (int j = 0; j < n; ++j) {
                const float inv = 1.0f / entry.w_scales[j];
                for (int p = 0; p < k; ++p) {
                    const float v =
                        wdata[static_cast<size_t>(p) * n + j] * inv;
                    const int q = std::clamp(
                        static_cast<int>(std::nearbyintf(v)), -127, 127);
                    wq[static_cast<size_t>(p) * n + j] =
                        static_cast<int8_t>(q);
                }
                kernel->mult[j] = entry.x_scale * entry.w_scales[j];
            }
            tensor::qgemmPackB(wq.data(), k, n, kernel->panels);
            compiled->qkernels_[entry.op_index] = std::move(kernel);
        }
    }
    return compiled;
}

const float *
CompiledPlan::run(const std::vector<int> &ids,
                  const std::vector<int> &lengths, int batch,
                  int time) const
{
    const PlanConfig &config = plan_.config;
    SNS_ASSERT(batch > 0 && batch <= config.batch_max,
               "plan run: batch out of range: ", batch);
    SNS_ASSERT(time > 0 && time <= config.max_positions,
               "plan run: time out of range: ", time);
    SNS_ASSERT(ids.size() == static_cast<size_t>(batch) * time &&
                   lengths.size() == static_cast<size_t>(batch),
               "plan run: ids/lengths size mismatch");
    for (int bi = 0; bi < batch; ++bi) {
        SNS_ASSERT(lengths[bi] >= 0 && lengths[bi] <= time,
                   "plan run: length ", lengths[bi], " of row ", bi,
                   " outside [0, ", time, "]");
    }
    const int heads = config.heads;
    Calibrator *const calibrator =
        calibrator_.load(std::memory_order_acquire);

    // Ragged execution (docs/plan.md): sequence bi runs over its own
    // span of positions, not the batch's padded `time`. Padded
    // positions never reach a real row, so skipping them changes no
    // output bit. A zero-length row attends uniformly over every
    // padded key, so it keeps the full span, and so does every row
    // while a calibrator observes: calibration scales are defined over
    // the padded batch (docs/quantization.md).
    const auto span = [&](int bi) {
        return calibrator != nullptr || lengths[bi] == 0 ? time
                                                         : lengths[bi];
    };
    size_t tokens = 0;
    for (int bi = 0; bi < batch; ++bi)
        tokens += static_cast<size_t>(span(bi));

    thread_local perf::FloatArena arena;
    float *base = arena.ensure(layout_.total_floats);
    float *scratch = base + layout_.scratch_offset;

    const auto buffer = [&](uint32_t id) {
        return base + layout_.offsets[id];
    };
    // Static last dimension (the shape pass proved it static wherever
    // the executor relies on it).
    const auto lastDim = [&](uint32_t id) {
        const Shape &shape = plan_.buffers[id];
        return shape.dims[shape.ndim - 1].value;
    };
    // Rows of a [B, T, d] buffer are the packed token rows, sequence
    // after sequence; a [B, d] buffer has one row per sequence.
    const auto rows = [&](uint32_t id) {
        const Shape &shape = plan_.buffers[id];
        return shape.ndim == 3 ? tokens : static_cast<size_t>(batch);
    };

    for (size_t opi = 0; opi < plan_.ops.size(); ++opi) {
        const Op &op = plan_.ops[opi];
        float *out = buffer(op.out);
        switch (op.kind) {
          case OpKind::TokenEmbed:
          case OpKind::PosEmbed: {
            const WeightRef &table = plan_.weights[op.weights[0]];
            const float *w = weight_data_[op.weights[0]];
            const int d = table.cols;
            const bool token = op.kind == OpKind::TokenEmbed;
            float *dst = out;
            for (int bi = 0; bi < batch; ++bi) {
                const int s = span(bi);
                for (int ti = 0; ti < s; ++ti) {
                    int row = ti;
                    if (token) {
                        row = ids[static_cast<size_t>(bi) * time + ti];
                        SNS_ASSERT(row >= 0 && row < table.rows,
                                   "plan run: token id out of range: ",
                                   row);
                    }
                    const float *src = w + static_cast<size_t>(row) * d;
                    dst = std::copy(src, src + d, dst);
                }
            }
            break;
          }
          case OpKind::Add: {
            const float *a = buffer(op.inputs[0]);
            const float *b = buffer(op.inputs[1]);
            const size_t count = rows(op.out) * lastDim(op.out);
            // add() in the walk is copy + addScaled(alpha = 1).
            for (size_t i = 0; i < count; ++i)
                out[i] = a[i] + 1.0f * b[i];
            break;
          }
          case OpKind::LayerNorm: {
            const float *src_base = buffer(op.inputs[0]);
            const float *g = weight_data_[op.weights[0]];
            const float *bb = weight_data_[op.weights[1]];
            const int d = lastDim(op.out);
            const size_t count = rows(op.out);
            const float eps = op.fattr;
            for (size_t r = 0; r < count; ++r) {
                const float *src = src_base + r * d;
                float mu = 0.0f;
                for (int j = 0; j < d; ++j)
                    mu += src[j];
                mu /= d;
                float var = 0.0f;
                for (int j = 0; j < d; ++j) {
                    const float delta = src[j] - mu;
                    var += delta * delta;
                }
                var /= d;
                const float inv = 1.0f / std::sqrt(var + eps);
                float *dst = out + r * d;
                for (int j = 0; j < d; ++j)
                    dst[j] = (src[j] - mu) * inv * g[j] + bb[j];
            }
            break;
          }
          case OpKind::Gemm: {
            const uint32_t w = op.weights[0];
            const WeightRef &matrix = plan_.weights[w];
            const int k = matrix.rows;
            const int n = matrix.cols;
            const float *a = buffer(op.inputs[0]);
            const size_t m = rows(op.inputs[0]);
            if (calibrator != nullptr) {
                calibrator->observe(static_cast<uint32_t>(opi), a,
                                    m * static_cast<size_t>(k));
            }
            if (const QuantKernel *qk = qkernels_.empty()
                                            ? nullptr
                                            : qkernels_[opi].get()) {
                // Int8 path (docs/quantization.md): scalar u7
                // activation quantize -> exact integer GEMM (the only
                // SIMD-dispatched stage; identical bits at every
                // level) -> scalar dequantize with the zero-point
                // correction and the fused bias/activation epilogue.
                const int kp = qk->panels.k_padded;
                thread_local std::vector<uint8_t> qa;
                thread_local std::vector<int32_t> qc;
                if (qa.size() < m * static_cast<size_t>(kp))
                    qa.resize(m * static_cast<size_t>(kp));
                for (size_t r = 0; r < m; ++r) {
                    const float *src = a + r * static_cast<size_t>(k);
                    uint8_t *dst = qa.data() + r * static_cast<size_t>(kp);
                    for (int p = 0; p < k; ++p) {
                        const int q =
                            static_cast<int>(std::nearbyintf(
                                src[p] * qk->inv_x_scale)) +
                            64;
                        dst[p] = static_cast<uint8_t>(
                            std::clamp(q, 0, 127));
                    }
                    // Only the k-padding tail needs zeros; the row
                    // itself was just overwritten.
                    std::fill(dst + k, dst + kp, uint8_t{0});
                }
                if (qc.size() < m * static_cast<size_t>(n))
                    qc.resize(m * static_cast<size_t>(n));
                tensor::qgemmI32(qa.data(), qk->panels, qc.data(),
                                 static_cast<int>(m));
                const float *bias =
                    op.epilogue != Epilogue::None
                        ? weight_data_[op.weights[1]]
                        : nullptr;
                for (size_t r = 0; r < m; ++r) {
                    const int32_t *acc = qc.data() + r * n;
                    float *dst = out + r * n;
                    for (int j = 0; j < n; ++j) {
                        float v = static_cast<float>(
                                      acc[j] -
                                      64 * qk->panels.colsum[j]) *
                                  qk->mult[j];
                        if (bias != nullptr)
                            v += bias[j];
                        dst[j] = v;
                    }
                }
                const size_t count = m * static_cast<size_t>(n);
                if (op.epilogue == Epilogue::BiasGelu) {
                    tensor::geluInPlace(out, count);
                } else if (op.epilogue == Epilogue::BiasRelu) {
                    tensor::reluInPlace(out, count);
                }
                break;
            }
            std::fill(out, out + m * n, 0.0f);
            const float *bt =
                packed_[w].empty() ? nullptr : packed_[w].data();
            tensor::gemmAccPacked(a, weight_data_[w], bt, out,
                                  static_cast<int>(m), n, k, false,
                                  false);
            if (op.epilogue != Epilogue::None) {
                const float *bias = weight_data_[op.weights[1]];
                for (size_t r = 0; r < m; ++r) {
                    float *dst = out + r * n;
                    for (int j = 0; j < n; ++j)
                        dst[j] += bias[j];
                }
            }
            const size_t count = m * static_cast<size_t>(n);
            if (op.epilogue == Epilogue::BiasGelu) {
                tensor::geluInPlace(out, count);
            } else if (op.epilogue == Epilogue::BiasRelu) {
                tensor::reluInPlace(out, count);
            }
            break;
          }
          case OpKind::SplitHeads:
          case OpKind::MergeHeads: {
            // Sequence bi's packed rows [first, first + s) of d floats
            // map to `heads` contiguous [s, dh] blocks in the same
            // floats, head after head.
            const bool split = op.kind == OpKind::SplitHeads;
            const int d = split ? lastDim(op.inputs[0]) : lastDim(op.out);
            const int dh = d / heads;
            const float *src_base = buffer(op.inputs[0]);
            size_t first = 0;
            for (int bi = 0; bi < batch; ++bi) {
                const int s = span(bi);
                for (int ti = 0; ti < s; ++ti) {
                    const size_t row = (first + ti) * d;
                    for (int h = 0; h < heads; ++h) {
                        const size_t head =
                            (first * heads +
                             static_cast<size_t>(h) * s + ti) * dh;
                        const float *src =
                            src_base + (split ? row + h * dh : head);
                        float *dst = out + (split ? head : row + h * dh);
                        std::copy(src, src + dh, dst);
                    }
                }
                first += static_cast<size_t>(s);
            }
            break;
          }
          case OpKind::BmmTransB: {
            // scores = q x k^T per (sequence, head) block of s x s,
            // exactly like bmmTransB's per-batch gemmAcc loop.
            const int dh = lastDim(op.inputs[0]);
            const float *q_base = buffer(op.inputs[0]);
            const float *k_base = buffer(op.inputs[1]);
            const bool simd = tensor::gemmSimdActive();
            constexpr float kNegInf = -1e9f;
            size_t in_off = 0;
            size_t out_off = 0;
            for (int bi = 0; bi < batch; ++bi) {
                const int s = span(bi);
                const int len = lengths[bi];
                const size_t in_stride = static_cast<size_t>(s) * dh;
                const size_t out_stride = static_cast<size_t>(s) * s;
                for (int h = 0; h < heads; ++h) {
                    float *c = out + out_off;
                    std::fill(c, c + out_stride, 0.0f);
                    const float *b = k_base + in_off;
                    const float *bt = nullptr;
                    if (simd) {
                        tensor::gemmPackB(b, s, dh, true, scratch);
                        bt = scratch;
                    }
                    tensor::gemmAccPacked(q_base + in_off, b, bt, c, s, s,
                                          dh, false, true);
                    in_off += in_stride;
                    out_off += out_stride;
                    if (op.epilogue != Epilogue::ScaleMaskSoftmax)
                        continue;
                    // The walk's per-element pass order: scale, assign
                    // the padding mask (keys j >= len; none when the
                    // span is the length), then per-row softmax.
                    for (size_t i = 0; i < out_stride; ++i)
                        c[i] *= op.fattr;
                    for (int qi = 0; qi < s; ++qi) {
                        float *row = c + static_cast<size_t>(qi) * s;
                        for (int j = len; j < s; ++j)
                            row[j] = kNegInf;
                        float max_val = row[0];
                        for (int j = 1; j < s; ++j)
                            max_val = std::max(max_val, row[j]);
                        float sum = 0.0f;
                        for (int j = 0; j < s; ++j) {
                            row[j] = std::exp(row[j] - max_val);
                            sum += row[j];
                        }
                        const float inv = 1.0f / sum;
                        for (int j = 0; j < s; ++j)
                            row[j] *= inv;
                    }
                }
            }
            break;
          }
          case OpKind::Bmm: {
            // ctx = attn x v per (sequence, head) block.
            const int dh = lastDim(op.inputs[1]);
            const float *a_base = buffer(op.inputs[0]);
            const float *v_base = buffer(op.inputs[1]);
            const bool simd = tensor::gemmSimdActive();
            size_t a_off = 0;
            size_t v_off = 0;
            for (int bi = 0; bi < batch; ++bi) {
                const int s = span(bi);
                const size_t a_stride = static_cast<size_t>(s) * s;
                const size_t v_stride = static_cast<size_t>(s) * dh;
                for (int h = 0; h < heads; ++h) {
                    float *c = out + v_off;
                    std::fill(c, c + v_stride, 0.0f);
                    const float *b = v_base + v_off;
                    const float *bt = nullptr;
                    if (simd) {
                        tensor::gemmPackB(b, dh, s, false, scratch);
                        bt = scratch;
                    }
                    tensor::gemmAccPacked(a_base + a_off, b, bt, c, s, dh,
                                          s, false, false);
                    a_off += a_stride;
                    v_off += v_stride;
                }
            }
            break;
          }
          case OpKind::MeanPool: {
            const int d = lastDim(op.inputs[0]);
            const float *src = buffer(op.inputs[0]);
            for (int bi = 0; bi < batch; ++bi) {
                const int len = std::max(1, lengths[bi]);
                float *dst = out + static_cast<size_t>(bi) * d;
                std::fill(dst, dst + d, 0.0f);
                for (int ti = 0; ti < len; ++ti) {
                    for (int j = 0; j < d; ++j)
                        dst[j] += src[static_cast<size_t>(ti) * d + j];
                }
                const float inv = 1.0f / len;
                for (int j = 0; j < d; ++j)
                    dst[j] *= inv;
                src += static_cast<size_t>(span(bi)) * d;
            }
            break;
          }
        }
    }
    return buffer(plan_.ops.back().out);
}

} // namespace sns::plan
