#include "tensor/autograd.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_set>

#include "tensor/gemm.hh"
#include "tensor/tanh.hh"
#include "verify/diagnostics.hh"

namespace sns::tensor {

using detail::VarImpl;

namespace {

/**
 * Debug-mode tensor sentinel (rule T-NONFINITE): scan a tensor for
 * NaN/Inf at an autograd boundary. Active only when
 * verify::tensorSentinelEnabled(); the scan is O(numel), which is why
 * it is opt-in rather than always-on.
 */
void
sentinelScan(const Tensor &tensor, const std::string &where)
{
    if (!verify::tensorSentinelEnabled())
        return;
    for (size_t i = 0; i < tensor.numel(); ++i) {
        if (std::isfinite(tensor[i]))
            continue;
        verify::Report report;
        report.error(verify::rules::kTensorNotFinite,
                     where + " " + tensor.shapeString(),
                     "non-finite value at flat index " + std::to_string(i),
                     "enable SNS_TENSOR_SENTINEL earlier in the pipeline "
                     "to find where the NaN/Inf is first produced");
        verify::enforce(std::move(report), "tensor sentinel");
        return; // Count mode: one diagnostic per tensor is enough.
    }
}

} // namespace

Variable::Variable(Tensor value, bool requires_grad)
{
    impl_ = std::make_shared<VarImpl>();
    impl_->value = std::move(value);
    impl_->requires_grad = requires_grad;
}

const Tensor &
Variable::value() const
{
    SNS_ASSERT(impl_, "value() on undefined Variable");
    return impl_->value;
}

Tensor &
Variable::valueMutable()
{
    SNS_ASSERT(impl_, "valueMutable() on undefined Variable");
    return impl_->value;
}

const Tensor &
Variable::grad() const
{
    SNS_ASSERT(impl_ && impl_->grad_ready, "grad() before backward()");
    return impl_->grad;
}

bool
Variable::hasGrad() const
{
    return impl_ && impl_->grad_ready;
}

bool
Variable::requiresGrad() const
{
    return impl_ && impl_->requires_grad;
}

void
Variable::zeroGrad()
{
    if (impl_ && impl_->grad_ready)
        impl_->grad.fill(0.0f);
}

void
Variable::scaleGrad(double factor)
{
    if (impl_ && impl_->grad_ready)
        impl_->grad.scaleInPlace(static_cast<float>(factor));
}

void
Variable::backward()
{
    SNS_ASSERT(impl_, "backward() on undefined Variable");
    SNS_ASSERT(impl_->value.numel() == 1,
               "backward() must start from a scalar, got shape ",
               impl_->value.shapeString());

    // Iterative DFS postorder; reversed it is a topological order with
    // the root first, so every node's gradient is complete before the
    // node pushes it into its parents.
    std::vector<VarImpl *> postorder;
    std::unordered_set<VarImpl *> visited;
    std::vector<std::pair<VarImpl *, size_t>> stack;
    stack.emplace_back(impl_.get(), 0);
    visited.insert(impl_.get());
    while (!stack.empty()) {
        auto &[node, idx] = stack.back();
        if (idx < node->parents.size()) {
            VarImpl *parent = node->parents[idx++].get();
            if (!visited.count(parent)) {
                visited.insert(parent);
                stack.emplace_back(parent, 0);
            }
        } else {
            postorder.push_back(node);
            stack.pop_back();
        }
    }

    impl_->ensureGrad().fill(1.0f);
    const bool sentinel = verify::tensorSentinelEnabled();
    for (auto it = postorder.rbegin(); it != postorder.rend(); ++it) {
        VarImpl *node = *it;
        if (!node->backward_fn || !node->grad_ready)
            continue;
        if (sentinel) {
            // Shape drift between a value and its gradient corrupts
            // every accumulation downstream of this node (T-SHAPE).
            if (!node->grad.sameShape(node->value)) {
                verify::Report report;
                report.error(verify::rules::kTensorShape,
                             "backward node " + node->value.shapeString(),
                             "gradient shape " + node->grad.shapeString() +
                                 " does not match value shape",
                             "check the op's backward closure");
                verify::enforce(std::move(report), "tensor sentinel");
            }
            sentinelScan(node->grad, "gradient");
        }
        node->backward_fn(*node);
    }
}

Variable
constant(Tensor value)
{
    return Variable(std::move(value), false);
}

namespace {

thread_local bool grad_mode_enabled = true;

} // namespace

NoGradGuard::NoGradGuard() : previous_(grad_mode_enabled)
{
    grad_mode_enabled = false;
}

NoGradGuard::~NoGradGuard()
{
    grad_mode_enabled = previous_;
}

bool
NoGradGuard::gradEnabled()
{
    return grad_mode_enabled;
}

namespace {

/** Build a result node wired to its inputs with a backward closure. */
Variable
makeNode(Tensor value, const std::vector<Variable> &inputs,
         std::function<void(VarImpl &)> backward_fn)
{
    bool needs_grad = false;
    for (const auto &input : inputs) {
        SNS_ASSERT(input.defined(), "op on undefined Variable");
        needs_grad |= input.requiresGrad();
    }
    needs_grad &= grad_mode_enabled;
    Variable result(std::move(value), needs_grad);
    sentinelScan(result.value(), "op result");
    if (needs_grad) {
        auto &impl = *result.impl();
        impl.parents.reserve(inputs.size());
        for (const auto &input : inputs)
            impl.parents.push_back(input.impl());
        impl.backward_fn = std::move(backward_fn);
    }
    return result;
}

/** Accumulate src into parent's grad if it participates. */
void
accumulate(VarImpl &parent, const Tensor &delta)
{
    if (parent.requires_grad || !parent.parents.empty())
        parent.ensureGrad().addScaled(delta, 1.0f);
}

bool
wantsGrad(const VarImpl &node)
{
    return node.requires_grad || !node.parents.empty();
}

} // namespace

Variable
matmul(const Variable &a, const Variable &b)
{
    const Tensor &av = a.value();
    const Tensor &bv = b.value();
    SNS_ASSERT(av.ndim() == 2 && bv.ndim() == 2 && av.dim(1) == bv.dim(0),
               "matmul shape mismatch: ", av.shapeString(), " x ",
               bv.shapeString());
    const int m = av.dim(0);
    const int k = av.dim(1);
    const int n = bv.dim(1);

    Tensor out({m, n});
    gemmAcc(av.data(), bv.data(), out.data(), m, n, k, false, false);

    return makeNode(std::move(out), {a, b}, [m, n, k](VarImpl &self) {
        auto &pa = *self.parents[0];
        auto &pb = *self.parents[1];
        if (wantsGrad(pa)) {
            // dA = dC * B^T : [m,n] x [k,n]^T.
            gemmAcc(self.grad.data(), pb.value.data(),
                    pa.ensureGrad().data(), m, k, n, false, true);
        }
        if (wantsGrad(pb)) {
            // dB = A^T * dC : [m,k]^T x [m,n].
            gemmAcc(pa.value.data(), self.grad.data(),
                    pb.ensureGrad().data(), k, n, m, true, false);
        }
    });
}

Variable
add(const Variable &a, const Variable &b)
{
    SNS_ASSERT(a.value().sameShape(b.value()), "add shape mismatch");
    Tensor out = a.value();
    out.addScaled(b.value(), 1.0f);
    return makeNode(std::move(out), {a, b}, [](VarImpl &self) {
        accumulate(*self.parents[0], self.grad);
        accumulate(*self.parents[1], self.grad);
    });
}

Variable
sub(const Variable &a, const Variable &b)
{
    SNS_ASSERT(a.value().sameShape(b.value()), "sub shape mismatch");
    Tensor out = a.value();
    out.addScaled(b.value(), -1.0f);
    return makeNode(std::move(out), {a, b}, [](VarImpl &self) {
        accumulate(*self.parents[0], self.grad);
        auto &pb = *self.parents[1];
        if (wantsGrad(pb))
            pb.ensureGrad().addScaled(self.grad, -1.0f);
    });
}

Variable
mul(const Variable &a, const Variable &b)
{
    SNS_ASSERT(a.value().sameShape(b.value()), "mul shape mismatch");
    Tensor out = a.value();
    for (size_t i = 0; i < out.numel(); ++i)
        out[i] *= b.value()[i];
    return makeNode(std::move(out), {a, b}, [](VarImpl &self) {
        auto &pa = *self.parents[0];
        auto &pb = *self.parents[1];
        if (wantsGrad(pa)) {
            Tensor &da = pa.ensureGrad();
            for (size_t i = 0; i < da.numel(); ++i)
                da[i] += self.grad[i] * pb.value[i];
        }
        if (wantsGrad(pb)) {
            Tensor &db = pb.ensureGrad();
            for (size_t i = 0; i < db.numel(); ++i)
                db[i] += self.grad[i] * pa.value[i];
        }
    });
}

Variable
addBias(const Variable &x, const Variable &bias)
{
    const Tensor &xv = x.value();
    const Tensor &bv = bias.value();
    SNS_ASSERT(bv.ndim() == 1, "bias must be 1-D");
    const int d = bv.dim(0);
    SNS_ASSERT(xv.dim(xv.ndim() - 1) == d, "bias width mismatch");
    const size_t rows = xv.numel() / d;

    Tensor out = xv;
    for (size_t r = 0; r < rows; ++r) {
        float *dst = out.data() + r * d;
        for (int j = 0; j < d; ++j)
            dst[j] += bv[j];
    }
    return makeNode(std::move(out), {x, bias}, [rows, d](VarImpl &self) {
        accumulate(*self.parents[0], self.grad);
        auto &pb = *self.parents[1];
        if (wantsGrad(pb)) {
            Tensor &db = pb.ensureGrad();
            for (size_t r = 0; r < rows; ++r) {
                const float *src = self.grad.data() + r * d;
                for (int j = 0; j < d; ++j)
                    db[j] += src[j];
            }
        }
    });
}

Variable
scale(const Variable &x, double factor)
{
    Tensor out = x.value();
    out.scaleInPlace(static_cast<float>(factor));
    return makeNode(std::move(out), {x}, [factor](VarImpl &self) {
        auto &px = *self.parents[0];
        if (wantsGrad(px)) {
            px.ensureGrad().addScaled(self.grad,
                                      static_cast<float>(factor));
        }
    });
}

Variable
addScalar(const Variable &x, double value)
{
    Tensor out = x.value();
    for (size_t i = 0; i < out.numel(); ++i)
        out[i] += static_cast<float>(value);
    return makeNode(std::move(out), {x}, [](VarImpl &self) {
        accumulate(*self.parents[0], self.grad);
    });
}

void
reluInPlace(float *x, size_t count)
{
    for (size_t i = 0; i < count; ++i)
        x[i] = std::max(x[i], 0.0f);
}

Variable
relu(const Variable &x)
{
    Tensor out = x.value();
    reluInPlace(out.data(), out.numel());
    return makeNode(std::move(out), {x}, [](VarImpl &self) {
        auto &px = *self.parents[0];
        if (!wantsGrad(px))
            return;
        Tensor &dx = px.ensureGrad();
        for (size_t i = 0; i < dx.numel(); ++i) {
            if (px.value[i] > 0.0f)
                dx[i] += self.grad[i];
        }
    });
}

namespace {

// tanh-approximation GELU: 0.5 v (1 + tanh(c (v + 0.044715 v^3))). The
// polynomial and the outer expressions stay in this translation unit
// so GCC contracts them into the same FMAs as ever; only tanh moves to
// the vectorized kernel, one chunk of inner arguments at a time.
constexpr float kGeluC = 0.7978845608f; // sqrt(2/pi)
constexpr size_t kGeluChunk = 256;

/** inner[i] = c * (v + 0.044715 v^3) for v = x[i], i < len. */
void
geluInner(const float *x, float *inner, size_t len)
{
    for (size_t i = 0; i < len; ++i) {
        const float v = x[i];
        inner[i] = kGeluC * (v + 0.044715f * v * v * v);
    }
}

/** d gelu / dv at v, given t = tanh(inner(v)). */
float
geluBackward(float v, float t)
{
    const float sech2 = 1.0f - t * t;
    return 0.5f * (1.0f + t) +
           0.5f * v * sech2 * kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
}

} // namespace

void
geluInPlace(float *x, size_t count)
{
    float t[kGeluChunk];
    for (size_t base = 0; base < count; base += kGeluChunk) {
        const size_t len = std::min(kGeluChunk, count - base);
        float *chunk = x + base;
        geluInner(chunk, t, len);
        tanhArray(t, t, len);
        for (size_t i = 0; i < len; ++i) {
            const float v = chunk[i];
            chunk[i] = 0.5f * v * (1.0f + t[i]);
        }
    }
}

Variable
gelu(const Variable &x)
{
    Tensor out = x.value();
    geluInPlace(out.data(), out.numel());
    return makeNode(std::move(out), {x}, [](VarImpl &self) {
        auto &px = *self.parents[0];
        if (!wantsGrad(px))
            return;
        Tensor &dx = px.ensureGrad();
        const size_t count = dx.numel();
        float t[kGeluChunk];
        for (size_t base = 0; base < count; base += kGeluChunk) {
            const size_t len = std::min(kGeluChunk, count - base);
            const float *v = px.value.data() + base;
            const float *up = self.grad.data() + base;
            float *down = dx.data() + base;
            geluInner(v, t, len);
            tanhArray(t, t, len);
            for (size_t i = 0; i < len; ++i)
                down[i] += up[i] * geluBackward(v[i], t[i]);
        }
    });
}

Variable
tanhOp(const Variable &x)
{
    Tensor out = x.value();
    tanhArray(out.data(), out.data(), out.numel());
    return makeNode(std::move(out), {x}, [](VarImpl &self) {
        auto &px = *self.parents[0];
        if (!wantsGrad(px))
            return;
        Tensor &dx = px.ensureGrad();
        for (size_t i = 0; i < dx.numel(); ++i) {
            const float y = self.value[i];
            dx[i] += self.grad[i] * (1.0f - y * y);
        }
    });
}

Variable
sigmoidOp(const Variable &x)
{
    Tensor out = x.value();
    for (size_t i = 0; i < out.numel(); ++i)
        out[i] = 1.0f / (1.0f + std::exp(-out[i]));
    return makeNode(std::move(out), {x}, [](VarImpl &self) {
        auto &px = *self.parents[0];
        if (!wantsGrad(px))
            return;
        Tensor &dx = px.ensureGrad();
        for (size_t i = 0; i < dx.numel(); ++i) {
            const float y = self.value[i];
            dx[i] += self.grad[i] * y * (1.0f - y);
        }
    });
}

namespace {

/** Softmax of one row of d logits, in place. */
void
softmaxRow(float *row_data, int d)
{
    float max_val = row_data[0];
    for (int j = 1; j < d; ++j)
        max_val = std::max(max_val, row_data[j]);
    float total = 0.0f;
    for (int j = 0; j < d; ++j) {
        row_data[j] = std::exp(row_data[j] - max_val);
        total += row_data[j];
    }
    const float inv = 1.0f / total;
    for (int j = 0; j < d; ++j)
        row_data[j] *= inv;
}

/**
 * sum_j y[j] * dy[j] over j < d, the softmax backward's reduction.
 * GCC vectorizes it in order with unfused vector products and a fused
 * scalar tail (src/CMakeLists.txt), so with FMA its bits depend on d
 * and not only on the nonzero terms.
 */
float
softmaxDot(const float *y, const float *dy, int d)
{
    float dot = 0.0f;
    for (int j = 0; j < d; ++j)
        dot += y[j] * dy[j];
    return dot;
}

/** dst += softmax Jacobian^T dy for one row of d columns. */
void
softmaxRowBackward(const float *y, const float *dy, float dot, float *dst,
                   int d)
{
    for (int j = 0; j < d; ++j)
        dst[j] += y[j] * (dy[j] - dot);
}

} // namespace

Variable
softmaxLastDim(const Variable &x)
{
    const Tensor &xv = x.value();
    const int d = xv.dim(xv.ndim() - 1);
    const size_t rows = xv.numel() / d;

    Tensor out = xv;
    for (size_t r = 0; r < rows; ++r)
        softmaxRow(out.data() + r * d, d);
    return makeNode(std::move(out), {x}, [rows, d](VarImpl &self) {
        auto &px = *self.parents[0];
        if (!wantsGrad(px))
            return;
        Tensor &dx = px.ensureGrad();
        for (size_t r = 0; r < rows; ++r) {
            const float *y = self.value.data() + r * d;
            const float *dy = self.grad.data() + r * d;
            softmaxRowBackward(y, dy, softmaxDot(y, dy, d),
                               dx.data() + r * d, d);
        }
    });
}

Variable
layerNorm(const Variable &x, const Variable &gamma, const Variable &beta,
          double eps)
{
    const Tensor &xv = x.value();
    const int d = xv.dim(xv.ndim() - 1);
    SNS_ASSERT(gamma.value().numel() == size_t(d) &&
                   beta.value().numel() == size_t(d),
               "layerNorm parameter size mismatch");
    const size_t rows = xv.numel() / d;

    Tensor out(xv.shape());
    std::vector<float> mean(rows);
    std::vector<float> inv_std(rows);
    for (size_t r = 0; r < rows; ++r) {
        const float *src = xv.data() + r * d;
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
        const float inv = 1.0f / std::sqrt(var + static_cast<float>(eps));
        mean[r] = mu;
        inv_std[r] = inv;
        float *dst = out.data() + r * d;
        const float *g = gamma.value().data();
        const float *bb = beta.value().data();
        for (int j = 0; j < d; ++j)
            dst[j] = (src[j] - mu) * inv * g[j] + bb[j];
    }

    return makeNode(
        std::move(out), {x, gamma, beta},
        [rows, d, mean = std::move(mean),
         inv_std = std::move(inv_std)](VarImpl &self) {
            auto &px = *self.parents[0];
            auto &pg = *self.parents[1];
            auto &pb = *self.parents[2];
            const float *g = pg.value.data();
            for (size_t r = 0; r < rows; ++r) {
                const float *src = px.value.data() + r * d;
                const float *dy = self.grad.data() + r * d;
                const float mu = mean[r];
                const float inv = inv_std[r];

                if (wantsGrad(pg) || wantsGrad(pb)) {
                    Tensor &dgamma = pg.ensureGrad();
                    Tensor &dbeta = pb.ensureGrad();
                    for (int j = 0; j < d; ++j) {
                        const float xhat = (src[j] - mu) * inv;
                        if (wantsGrad(pg))
                            dgamma[j] += dy[j] * xhat;
                        if (wantsGrad(pb))
                            dbeta[j] += dy[j];
                    }
                }
                if (wantsGrad(px)) {
                    // dx = inv * (dxhat - mean(dxhat)
                    //             - xhat * mean(dxhat * xhat)).
                    float sum_dxhat = 0.0f;
                    float sum_dxhat_xhat = 0.0f;
                    for (int j = 0; j < d; ++j) {
                        const float xhat = (src[j] - mu) * inv;
                        const float dxhat = dy[j] * g[j];
                        sum_dxhat += dxhat;
                        sum_dxhat_xhat += dxhat * xhat;
                    }
                    const float m1 = sum_dxhat / d;
                    const float m2 = sum_dxhat_xhat / d;
                    Tensor &dx = px.ensureGrad();
                    float *dst = dx.data() + r * d;
                    for (int j = 0; j < d; ++j) {
                        const float xhat = (src[j] - mu) * inv;
                        const float dxhat = dy[j] * g[j];
                        dst[j] += inv * (dxhat - m1 - xhat * m2);
                    }
                }
            }
        });
}

Variable
embedding(const Variable &weight, const std::vector<int> &ids,
          std::vector<int> out_shape)
{
    const Tensor &wv = weight.value();
    SNS_ASSERT(wv.ndim() == 2, "embedding weight must be [V, D]");
    const int vocab = wv.dim(0);
    const int d = wv.dim(1);
    SNS_ASSERT(shapeNumel(out_shape) == ids.size(),
               "embedding out_shape / ids mismatch");

    out_shape.push_back(d);
    Tensor out(out_shape);
    for (size_t i = 0; i < ids.size(); ++i) {
        SNS_ASSERT(ids[i] >= 0 && ids[i] < vocab,
                   "embedding id out of range: ", ids[i]);
        const float *src = wv.data() + static_cast<size_t>(ids[i]) * d;
        float *dst = out.data() + i * d;
        std::copy(src, src + d, dst);
    }
    return makeNode(std::move(out), {weight}, [ids, d](VarImpl &self) {
        auto &pw = *self.parents[0];
        if (!wantsGrad(pw))
            return;
        Tensor &dw = pw.ensureGrad();
        for (size_t i = 0; i < ids.size(); ++i) {
            const float *src = self.grad.data() + i * d;
            float *dst = dw.data() + static_cast<size_t>(ids[i]) * d;
            for (int j = 0; j < d; ++j)
                dst[j] += src[j];
        }
    });
}

RaggedLayout::RaggedLayout(std::vector<int> lengths_in)
    : lengths(std::move(lengths_in))
{
    // A negative length would index rows before its sequence's span.
    for (const int len : lengths) {
        SNS_ASSERT(len >= 0, "sequence length must be non-negative: ", len);
        time = std::max(time, len);
    }
    spans.resize(lengths.size());
    offsets.assign(lengths.size() + 1, 0);
    for (size_t b = 0; b < lengths.size(); ++b) {
        spans[b] = lengths[b] == 0 ? time : lengths[b];
        offsets[b + 1] = offsets[b] + static_cast<size_t>(spans[b]);
    }
}

namespace {

/**
 * Calls f(b, s, head_offset, score_offset) for every (sequence, head)
 * block of a ragged batch, in storage order: s = spans[b], the block's
 * first float in a per-head tensor of width dh, and in the scores.
 */
template <typename Fn>
void
forEachBlock(const RaggedLayout &layout, int heads, int dh, Fn &&f)
{
    size_t head_offset = 0;
    size_t score_offset = 0;
    for (int b = 0; b < layout.batch(); ++b) {
        const int s = layout.spans[b];
        for (int h = 0; h < heads; ++h) {
            f(b, s, head_offset, score_offset);
            head_offset += static_cast<size_t>(s) * dh;
            score_offset += static_cast<size_t>(s) * s;
        }
    }
}

/** Floats of the score blocks of a ragged batch. */
size_t
scoreFloats(const RaggedLayout &layout, int heads)
{
    size_t total = 0;
    for (const int s : layout.spans)
        total += static_cast<size_t>(heads) * s * s;
    return total;
}

/**
 * Calls f(row, head) for every (token row, head) pair of a ragged
 * batch: token row t of sequence b holds head h's dh floats at `row` =
 * ((offsets[b] + t) * heads + h) * dh, and the per-head layout holds
 * them at `head` = (offsets[b] * heads + h * s + t) * dh.
 */
template <typename Fn>
void
forEachHeadRow(const RaggedLayout &layout, int heads, int dh, Fn &&f)
{
    for (int b = 0; b < layout.batch(); ++b) {
        const size_t first = layout.offsets[b];
        const int s = layout.spans[b];
        for (int t = 0; t < s; ++t) {
            for (int h = 0; h < heads; ++h) {
                f(((first + t) * heads + h) * dh,
                  (first * heads + static_cast<size_t>(h) * s + t) * dh);
            }
        }
    }
}

/** splitHeads (split) or mergeHeads. */
Variable
permuteHeads(const Variable &x, const RaggedLayout &layout, int heads,
             bool split)
{
    const Tensor &xv = x.value();
    const int last = xv.dim(xv.ndim() - 1);
    const int d = split ? last : last * heads;
    SNS_ASSERT(d % heads == 0, "model width not divisible by heads");
    const int dh = d / heads;
    const int rows = static_cast<int>(layout.rows());
    SNS_ASSERT(xv.numel() == static_cast<size_t>(rows) * d,
               "head permutation rows do not match the layout");

    Tensor out(split ? std::vector<int>{rows * heads, dh}
                     : std::vector<int>{1, rows, d});
    forEachHeadRow(layout, heads, dh, [&](size_t row, size_t head) {
        const float *src = xv.data() + (split ? row : head);
        std::copy(src, src + dh, out.data() + (split ? head : row));
    });
    return makeNode(std::move(out), {x},
                    [layout, heads, dh, split](VarImpl &self) {
        auto &px = *self.parents[0];
        if (!wantsGrad(px))
            return;
        Tensor &dx = px.ensureGrad();
        forEachHeadRow(layout, heads, dh, [&](size_t row, size_t head) {
            const float *src = self.grad.data() + (split ? head : row);
            float *dst = dx.data() + (split ? row : head);
            for (int j = 0; j < dh; ++j)
                dst[j] += src[j];
        });
    });
}

} // namespace

Variable
splitHeads(const Variable &x, const RaggedLayout &layout, int heads)
{
    return permuteHeads(x, layout, heads, true);
}

Variable
mergeHeads(const Variable &x, const RaggedLayout &layout, int heads)
{
    return permuteHeads(x, layout, heads, false);
}

namespace {

/**
 * One gemmAcc per (sequence, head) block: scores = q k^T when trans_b
 * (q and k per-head), else context = a v (a score blocks, v per-head).
 */
Variable
blockProduct(const Variable &a, const Variable &b,
             const RaggedLayout &layout, int heads, bool trans_b)
{
    const Tensor &bv = b.value();
    SNS_ASSERT(bv.ndim() == 2 &&
                   bv.dim(0) == static_cast<int>(layout.rows()) * heads,
               "block product: right operand must be per-head [rows*H, dh]");
    const int dh = bv.dim(1);
    const size_t scores = scoreFloats(layout, heads);
    SNS_ASSERT(a.value().numel() == (trans_b ? bv.numel() : scores),
               "block product: left operand does not match the layout");
    // A, B and C block offsets: each operand is per-head or scores.
    const auto offsets = [trans_b](size_t head, size_t score) {
        return std::array<size_t, 3>{trans_b ? head : score, head,
                                     trans_b ? score : head};
    };

    Tensor out(trans_b ? std::vector<int>{static_cast<int>(scores)}
                       : bv.shape());
    forEachBlock(layout, heads, dh,
                 [&](int, int s, size_t head, size_t score) {
        const auto [ao, bo, co] = offsets(head, score);
        gemmAcc(a.value().data() + ao, bv.data() + bo, out.data() + co, s,
                trans_b ? s : dh, trans_b ? dh : s, false, trans_b);
    });
    return makeNode(std::move(out), {a, b},
                    [layout, heads, dh, trans_b, offsets](VarImpl &self) {
        auto &pa = *self.parents[0];
        auto &pb = *self.parents[1];
        forEachBlock(layout, heads, dh,
                     [&](int, int m, size_t head, size_t score) {
            const auto [ao, bo, co] = offsets(head, score);
            const int n = trans_b ? m : dh;
            const int k = trans_b ? dh : m;
            const float *dc = self.grad.data() + co;
            if (wantsGrad(pa)) {
                // !trans_b: dA = dC * B^T; trans_b: dA = dC * B.
                gemmAcc(dc, pb.value.data() + bo,
                        pa.ensureGrad().data() + ao, m, k, n, false,
                        !trans_b);
            }
            if (wantsGrad(pb)) {
                float *db = pb.ensureGrad().data() + bo;
                const float *avp = pa.value.data() + ao;
                if (!trans_b) {
                    // dB = A^T * dC : [k,n].
                    gemmAcc(avp, dc, db, k, n, m, true, false);
                } else {
                    // B is [n,k]; dB = dC^T * A : [n,m] x [m,k].
                    gemmAcc(dc, avp, db, n, k, m, true, false);
                }
            }
        });
    });
}

} // namespace

Variable
bmmTransB(const Variable &q, const Variable &k, const RaggedLayout &layout,
          int heads)
{
    return blockProduct(q, k, layout, heads, true);
}

Variable
bmm(const Variable &a, const Variable &v, const RaggedLayout &layout,
    int heads)
{
    return blockProduct(a, v, layout, heads, false);
}

Variable
maskedSoftmax(const Variable &scores, const RaggedLayout &layout, int heads)
{
    SNS_ASSERT(scores.value().numel() == scoreFloats(layout, heads),
               "maskedSoftmax: scores do not match the layout");
    constexpr float kNegInf = -1e9f;
    Tensor out = scores.value();
    forEachBlock(layout, heads, 0, [&](int b, int s, size_t, size_t score) {
        for (int q = 0; q < s; ++q) {
            float *row_data = out.data() + score + static_cast<size_t>(q) * s;
            for (int j = layout.lengths[b]; j < s; ++j)
                row_data[j] = kNegInf;
            softmaxRow(row_data, s);
        }
    });
    return makeNode(std::move(out), {scores},
                    [layout, heads](VarImpl &self) {
        auto &ps = *self.parents[0];
        if (!wantsGrad(ps))
            return;
        Tensor &dx = ps.ensureGrad();
        // The pinned training numerics reduce each row over the batch's
        // padded width `time`, masked columns holding y = 0, and the
        // reduction's bits depend on its length (softmaxDot): so rows
        // are zero-extended to `time` (docs/training.md).
        const int time = layout.time;
        std::vector<float> padded(2 * static_cast<size_t>(time), 0.0f);
        float *y_pad = padded.data();
        float *dy_pad = padded.data() + time;
        forEachBlock(layout, heads, 0,
                     [&](int b, int s, size_t, size_t score) {
            const int len = layout.lengths[b];
            if (len == 0)
                return; // every key masked: no gradient reaches scores
            std::fill(y_pad + s, y_pad + time, 0.0f);
            std::fill(dy_pad + s, dy_pad + time, 0.0f);
            for (int q = 0; q < s; ++q) {
                const size_t row = score + static_cast<size_t>(q) * s;
                const float *y = self.value.data() + row;
                const float *dy = self.grad.data() + row;
                std::copy(y, y + s, y_pad);
                std::copy(dy, dy + s, dy_pad);
                softmaxRowBackward(y, dy, softmaxDot(y_pad, dy_pad, time),
                                   dx.data() + row, len);
            }
        });
    });
}

Variable
meanPoolMasked(const Variable &x, const RaggedLayout &layout)
{
    const Tensor &xv = x.value();
    const int batch = layout.batch();
    const int d = xv.dim(xv.ndim() - 1);
    SNS_ASSERT(xv.numel() == layout.rows() * d,
               "meanPoolMasked input must hold the layout's rows");

    Tensor out({batch, d});
    for (int bi = 0; bi < batch; ++bi) {
        const int len = std::max(1, layout.lengths[bi]);
        float *dst = out.data() + static_cast<size_t>(bi) * d;
        for (int ti = 0; ti < len; ++ti) {
            const float *src = xv.data() + (layout.offsets[bi] + ti) * d;
            for (int j = 0; j < d; ++j)
                dst[j] += src[j];
        }
        const float inv = 1.0f / len;
        for (int j = 0; j < d; ++j)
            dst[j] *= inv;
    }
    return makeNode(std::move(out), {x}, [layout, d](VarImpl &self) {
        auto &px = *self.parents[0];
        if (!wantsGrad(px))
            return;
        Tensor &dx = px.ensureGrad();
        for (int bi = 0; bi < layout.batch(); ++bi) {
            const int len = std::max(1, layout.lengths[bi]);
            const float inv = 1.0f / len;
            const float *dy = self.grad.data() + static_cast<size_t>(bi) * d;
            for (int ti = 0; ti < len; ++ti) {
                float *dst = dx.data() + (layout.offsets[bi] + ti) * d;
                for (int j = 0; j < d; ++j)
                    dst[j] += dy[j] * inv;
            }
        }
    });
}

Variable
dropout(const Variable &x, double p, Rng &rng, bool train)
{
    if (!train || p <= 0.0)
        return x;
    SNS_ASSERT(p < 1.0, "dropout probability must be < 1");
    const float keep = static_cast<float>(1.0 - p);
    Tensor mask(x.value().shape());
    for (size_t i = 0; i < mask.numel(); ++i)
        mask[i] = rng.bernoulli(keep) ? 1.0f / keep : 0.0f;

    Tensor out = x.value();
    for (size_t i = 0; i < out.numel(); ++i)
        out[i] *= mask[i];
    return makeNode(std::move(out), {x},
                    [mask = std::move(mask)](VarImpl &self) {
                        auto &px = *self.parents[0];
                        if (!wantsGrad(px))
                            return;
                        Tensor &dx = px.ensureGrad();
                        for (size_t i = 0; i < dx.numel(); ++i)
                            dx[i] += self.grad[i] * mask[i];
                    });
}

Variable
sumAll(const Variable &x)
{
    Tensor out = Tensor::scalar(static_cast<float>(x.value().sum()));
    return makeNode(std::move(out), {x}, [](VarImpl &self) {
        auto &px = *self.parents[0];
        if (!wantsGrad(px)) {
            return;
        }
        Tensor &dx = px.ensureGrad();
        const float g = self.grad[0];
        for (size_t i = 0; i < dx.numel(); ++i)
            dx[i] += g;
    });
}

Variable
meanAll(const Variable &x)
{
    const double inv = 1.0 / static_cast<double>(x.value().numel());
    return scale(sumAll(x), inv);
}

Variable
mseLoss(const Variable &pred, const Tensor &target)
{
    const Tensor &pv = pred.value();
    SNS_ASSERT(pv.sameShape(target), "mseLoss shape mismatch");
    const size_t n = pv.numel();
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double err = pv[i] - target[i];
        total += err * err;
    }
    Tensor out = Tensor::scalar(static_cast<float>(total / n));
    return makeNode(std::move(out), {pred}, [target, n](VarImpl &self) {
        auto &pp = *self.parents[0];
        if (!wantsGrad(pp))
            return;
        Tensor &dp = pp.ensureGrad();
        const float g = self.grad[0] * 2.0f / static_cast<float>(n);
        for (size_t i = 0; i < n; ++i)
            dp[i] += g * (pp.value[i] - target[i]);
    });
}

Variable
bceWithLogitsLoss(const Variable &logits, const Tensor &targets)
{
    const Tensor &zv = logits.value();
    SNS_ASSERT(zv.sameShape(targets), "bce shape mismatch");
    const size_t n = zv.numel();
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double z = zv[i];
        const double t = targets[i];
        total += std::max(z, 0.0) - z * t + std::log1p(std::exp(-std::abs(z)));
    }
    Tensor out = Tensor::scalar(static_cast<float>(total / n));
    return makeNode(std::move(out), {logits}, [targets, n](VarImpl &self) {
        auto &pz = *self.parents[0];
        if (!wantsGrad(pz))
            return;
        Tensor &dz = pz.ensureGrad();
        const float g = self.grad[0] / static_cast<float>(n);
        for (size_t i = 0; i < n; ++i) {
            const float s = 1.0f / (1.0f + std::exp(-pz.value[i]));
            dz[i] += g * (s - targets[i]);
        }
    });
}

Variable
weightedNllLoss(const Variable &logits, const std::vector<int> &labels,
                const std::vector<float> &weights)
{
    const Tensor &zv = logits.value();
    SNS_ASSERT(zv.ndim() == 2, "weightedNllLoss logits must be [B, C]");
    const int b = zv.dim(0);
    const int c = zv.dim(1);
    SNS_ASSERT(labels.size() == static_cast<size_t>(b) &&
                   weights.size() == static_cast<size_t>(b),
               "labels/weights batch mismatch");

    // Stable log-softmax rows; save the softmax for backward.
    std::vector<float> probs(static_cast<size_t>(b) * c);
    double total = 0.0;
    for (int i = 0; i < b; ++i) {
        const float *row_data = zv.data() + static_cast<size_t>(i) * c;
        float max_val = row_data[0];
        for (int j = 1; j < c; ++j)
            max_val = std::max(max_val, row_data[j]);
        double lse = 0.0;
        for (int j = 0; j < c; ++j)
            lse += std::exp(row_data[j] - max_val);
        lse = std::log(lse) + max_val;
        SNS_ASSERT(labels[i] >= 0 && labels[i] < c, "label out of range");
        total += weights[i] * (lse - row_data[labels[i]]);
        float *prow = probs.data() + static_cast<size_t>(i) * c;
        for (int j = 0; j < c; ++j)
            prow[j] = std::exp(row_data[j] - static_cast<float>(lse));
    }
    Tensor out = Tensor::scalar(static_cast<float>(total / b));
    return makeNode(std::move(out), {logits},
                    [labels, weights, probs = std::move(probs), b,
                     c](VarImpl &self) {
                        auto &pz = *self.parents[0];
                        if (!wantsGrad(pz))
                            return;
                        Tensor &dz = pz.ensureGrad();
                        const float g = self.grad[0] / static_cast<float>(b);
                        for (int i = 0; i < b; ++i) {
                            const float w = weights[i] * g;
                            const float *prow =
                                probs.data() + static_cast<size_t>(i) * c;
                            float *drow =
                                dz.data() + static_cast<size_t>(i) * c;
                            for (int j = 0; j < c; ++j)
                                drow[j] += w * prow[j];
                            drow[labels[i]] -= w;
                        }
                    });
}

Variable
crossEntropyLoss(const Variable &logits, const std::vector<int> &labels)
{
    return weightedNllLoss(logits, labels,
                           std::vector<float>(labels.size(), 1.0f));
}

Variable
gatherMeanRows(const Variable &x,
               const std::vector<std::vector<int>> &groups)
{
    const Tensor &xv = x.value();
    SNS_ASSERT(xv.ndim() == 2, "gatherMeanRows input must be [N, D]");
    const int n = xv.dim(0);
    const int d = xv.dim(1);
    const int g = static_cast<int>(groups.size());

    Tensor out({g, d});
    for (int gi = 0; gi < g; ++gi) {
        if (groups[gi].empty())
            continue;
        float *dst = out.data() + static_cast<size_t>(gi) * d;
        for (int row_idx : groups[gi]) {
            SNS_ASSERT(row_idx >= 0 && row_idx < n,
                       "gatherMeanRows index out of range");
            const float *src =
                xv.data() + static_cast<size_t>(row_idx) * d;
            for (int j = 0; j < d; ++j)
                dst[j] += src[j];
        }
        const float inv = 1.0f / static_cast<float>(groups[gi].size());
        for (int j = 0; j < d; ++j)
            dst[j] *= inv;
    }
    return makeNode(std::move(out), {x}, [groups, d](VarImpl &self) {
        auto &px = *self.parents[0];
        if (!wantsGrad(px))
            return;
        Tensor &dx = px.ensureGrad();
        for (size_t gi = 0; gi < groups.size(); ++gi) {
            if (groups[gi].empty())
                continue;
            const float inv = 1.0f / static_cast<float>(groups[gi].size());
            const float *dy = self.grad.data() + gi * d;
            for (int row_idx : groups[gi]) {
                float *dst = dx.data() + static_cast<size_t>(row_idx) * d;
                for (int j = 0; j < d; ++j)
                    dst[j] += dy[j] * inv;
            }
        }
    });
}

Variable
im2col(const Variable &x, int channels, int height, int width,
       int kernel_h, int kernel_w, int pad)
{
    const Tensor &xv = x.value();
    SNS_ASSERT(xv.ndim() == 2 &&
                   xv.dim(1) == channels * height * width,
               "im2col input must be [B, C*H*W]");
    const int batch = xv.dim(0);
    const int out_h = height + 2 * pad - kernel_h + 1;
    const int out_w = width + 2 * pad - kernel_w + 1;
    SNS_ASSERT(out_h > 0 && out_w > 0, "kernel larger than padded input");
    const int cols = channels * kernel_h * kernel_w;

    // Precompute the source index (or -1 for padding) of every output
    // element of one batch row; forward and backward both replay it.
    // Images are HWC (position-major, channel-last), so convolution
    // chains compose without layout shuffles.
    std::vector<int> mapping(
        static_cast<size_t>(out_h) * out_w * cols, -1);
    {
        size_t slot = 0;
        for (int oy = 0; oy < out_h; ++oy) {
            for (int ox = 0; ox < out_w; ++ox) {
                for (int ky = 0; ky < kernel_h; ++ky) {
                    for (int kx = 0; kx < kernel_w; ++kx) {
                        for (int c = 0; c < channels; ++c) {
                            const int iy = oy + ky - pad;
                            const int ix = ox + kx - pad;
                            if (iy >= 0 && iy < height && ix >= 0 &&
                                ix < width) {
                                mapping[slot] =
                                    (iy * width + ix) * channels + c;
                            }
                            ++slot;
                        }
                    }
                }
            }
        }
    }

    Tensor out({batch * out_h * out_w, cols});
    const size_t row_elems = static_cast<size_t>(out_h) * out_w * cols;
    for (int b = 0; b < batch; ++b) {
        const float *src =
            xv.data() + static_cast<size_t>(b) * channels * height * width;
        float *dst = out.data() + static_cast<size_t>(b) * row_elems;
        for (size_t i = 0; i < row_elems; ++i)
            dst[i] = mapping[i] >= 0 ? src[mapping[i]] : 0.0f;
    }

    return makeNode(
        std::move(out), {x},
        [batch, channels, height, width, row_elems,
         mapping = std::move(mapping)](VarImpl &self) {
            auto &px = *self.parents[0];
            if (!wantsGrad(px))
                return;
            Tensor &dx = px.ensureGrad();
            const size_t image = static_cast<size_t>(channels) * height *
                                 width;
            for (int b = 0; b < batch; ++b) {
                const float *dy =
                    self.grad.data() + static_cast<size_t>(b) * row_elems;
                float *dst = dx.data() + static_cast<size_t>(b) * image;
                for (size_t i = 0; i < row_elems; ++i) {
                    if (mapping[i] >= 0)
                        dst[mapping[i]] += dy[i];
                }
            }
        });
}

Variable
avgPool2x2(const Variable &x, int channels, int height, int width)
{
    const Tensor &xv = x.value();
    SNS_ASSERT(xv.ndim() == 2 &&
                   xv.dim(1) == channels * height * width,
               "avgPool2x2 input must be [B, C*H*W]");
    SNS_ASSERT(height % 2 == 0 && width % 2 == 0,
               "avgPool2x2 needs even spatial dims");
    const int batch = xv.dim(0);
    const int out_h = height / 2;
    const int out_w = width / 2;

    Tensor out({batch, channels * out_h * out_w});
    for (int b = 0; b < batch; ++b) {
        const float *src =
            xv.data() + static_cast<size_t>(b) * channels * height * width;
        float *dst = out.data() +
                     static_cast<size_t>(b) * channels * out_h * out_w;
        for (int oy = 0; oy < out_h; ++oy) {
            for (int ox = 0; ox < out_w; ++ox) {
                for (int c = 0; c < channels; ++c) {
                    const int base =
                        ((2 * oy) * width + 2 * ox) * channels + c;
                    const int right = channels;
                    const int down = width * channels;
                    dst[(oy * out_w + ox) * channels + c] =
                        0.25f * (src[base] + src[base + right] +
                                 src[base + down] +
                                 src[base + down + right]);
                }
            }
        }
    }
    return makeNode(
        std::move(out), {x},
        [batch, channels, height, width, out_h, out_w](VarImpl &self) {
            auto &px = *self.parents[0];
            if (!wantsGrad(px))
                return;
            Tensor &dx = px.ensureGrad();
            for (int b = 0; b < batch; ++b) {
                const float *dy =
                    self.grad.data() +
                    static_cast<size_t>(b) * channels * out_h * out_w;
                float *dst = dx.data() + static_cast<size_t>(b) *
                                             channels * height * width;
                for (int oy = 0; oy < out_h; ++oy) {
                    for (int ox = 0; ox < out_w; ++ox) {
                        for (int c = 0; c < channels; ++c) {
                            const float g =
                                0.25f *
                                dy[(oy * out_w + ox) * channels + c];
                            const int base =
                                ((2 * oy) * width + 2 * ox) * channels +
                                c;
                            const int right = channels;
                            const int down = width * channels;
                            dst[base] += g;
                            dst[base + right] += g;
                            dst[base + down] += g;
                            dst[base + down + right] += g;
                        }
                    }
                }
            }
        });
}

Variable
reshape(const Variable &x, std::vector<int> shape)
{
    Tensor out = x.value().reshaped(std::move(shape));
    return makeNode(std::move(out), {x}, [](VarImpl &self) {
        auto &px = *self.parents[0];
        if (!wantsGrad(px))
            return;
        Tensor &dx = px.ensureGrad();
        for (size_t i = 0; i < dx.numel(); ++i)
            dx[i] += self.grad[i];
    });
}

Variable
concatCols(const Variable &a, const Variable &b)
{
    const Tensor &av = a.value();
    const Tensor &bv = b.value();
    SNS_ASSERT(av.ndim() == 2 && bv.ndim() == 2 && av.dim(0) == bv.dim(0),
               "concatCols needs 2-D inputs with equal row counts");
    const int rows = av.dim(0);
    const int da = av.dim(1);
    const int db = bv.dim(1);

    Tensor out({rows, da + db});
    for (int i = 0; i < rows; ++i) {
        std::copy(av.data() + static_cast<size_t>(i) * da,
                  av.data() + static_cast<size_t>(i + 1) * da,
                  out.data() + static_cast<size_t>(i) * (da + db));
        std::copy(bv.data() + static_cast<size_t>(i) * db,
                  bv.data() + static_cast<size_t>(i + 1) * db,
                  out.data() + static_cast<size_t>(i) * (da + db) + da);
    }
    return makeNode(std::move(out), {a, b}, [rows, da, db](VarImpl &self) {
        auto &pa = *self.parents[0];
        auto &pb = *self.parents[1];
        for (int i = 0; i < rows; ++i) {
            const float *src =
                self.grad.data() + static_cast<size_t>(i) * (da + db);
            if (wantsGrad(pa)) {
                float *dst =
                    pa.ensureGrad().data() + static_cast<size_t>(i) * da;
                for (int j = 0; j < da; ++j)
                    dst[j] += src[j];
            }
            if (wantsGrad(pb)) {
                float *dst =
                    pb.ensureGrad().data() + static_cast<size_t>(i) * db;
                for (int j = 0; j < db; ++j)
                    dst[j] += src[da + j];
            }
        }
    });
}

Variable
row(const Variable &x, int index)
{
    const Tensor &xv = x.value();
    SNS_ASSERT(xv.ndim() == 2 && index >= 0 && index < xv.dim(0),
               "row() index out of range");
    const int d = xv.dim(1);
    Tensor out({1, d});
    std::copy(xv.data() + static_cast<size_t>(index) * d,
              xv.data() + static_cast<size_t>(index + 1) * d, out.data());
    return makeNode(std::move(out), {x}, [index, d](VarImpl &self) {
        auto &px = *self.parents[0];
        if (!wantsGrad(px))
            return;
        float *dst =
            px.ensureGrad().data() + static_cast<size_t>(index) * d;
        for (int j = 0; j < d; ++j)
            dst[j] += self.grad[j];
    });
}

} // namespace sns::tensor
