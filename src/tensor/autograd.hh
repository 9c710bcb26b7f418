/**
 * @file
 * Tape-based reverse-mode automatic differentiation.
 *
 * Variables wrap Tensors and record the operations that produced them;
 * backward() on a scalar loss walks the tape in reverse topological
 * order accumulating gradients. One engine serves every model in the
 * library: the Circuitformer, the Aggregation MLP, the SeqGAN, the
 * D-SAGE baseline, and the DianNao accuracy-study CNN.
 *
 * Design notes:
 *   - a result requires grad iff any input does; pure-inference chains
 *    record no tape at all,
 *   - backward closures receive the result node itself and reach inputs
 *     through it, so no reference cycles and no tensor copies,
 *   - gradients accumulate (+=), so shared sub-expressions are handled
 *     naturally and zeroGrad() is explicit.
 */

#ifndef SNS_TENSOR_AUTOGRAD_HH
#define SNS_TENSOR_AUTOGRAD_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.hh"

namespace sns::tensor {

namespace detail {

/** One tape node: a value, its gradient, and how to push grads back. */
struct VarImpl
{
    Tensor value;
    Tensor grad;
    bool requires_grad = false;
    bool grad_ready = false;
    std::vector<std::shared_ptr<VarImpl>> parents;
    /** Accumulates this node's grad into its parents' grads. */
    std::function<void(VarImpl &)> backward_fn;

    /** Grad tensor, allocated (zeroed) on first use. */
    Tensor &
    ensureGrad()
    {
        if (!grad_ready) {
            grad = Tensor(value.shape());
            grad_ready = true;
        }
        return grad;
    }
};

} // namespace detail

/** A differentiable tensor handle (shared, cheap to copy). */
class Variable
{
  public:
    /** An undefined variable. */
    Variable() = default;

    /** Wrap a tensor; set requires_grad for trainable parameters. */
    explicit Variable(Tensor value, bool requires_grad = false);

    /** True once a tensor has been attached. */
    bool defined() const { return impl_ != nullptr; }

    /** The forward value. */
    const Tensor &value() const;

    /** Mutable access to the value (optimizer updates). */
    Tensor &valueMutable();

    /** The accumulated gradient (undefined before backward()). */
    const Tensor &grad() const;

    /** True if a gradient has been accumulated since the last zero. */
    bool hasGrad() const;

    /** Whether this node participates in differentiation. */
    bool requiresGrad() const;

    /** Clear the accumulated gradient. */
    void zeroGrad();

    /** Scale the accumulated gradient in place (no-op without one). */
    void scaleGrad(double factor);

    /**
     * Run reverse-mode differentiation from this scalar (1-element)
     * variable, accumulating into every reachable requires-grad node.
     */
    void backward();

    /** Internal: the tape node. */
    const std::shared_ptr<detail::VarImpl> &impl() const { return impl_; }

  private:
    std::shared_ptr<detail::VarImpl> impl_;
};

/** Wrap a constant (non-differentiable) tensor. */
Variable constant(Tensor value);

/**
 * RAII scope that disables tape recording: ops inside compute values
 * only, regardless of inputs' requires_grad. Use for inference and for
 * sequence sampling, where building a graph would waste time and
 * memory.
 */
class NoGradGuard
{
  public:
    NoGradGuard();
    ~NoGradGuard();

    NoGradGuard(const NoGradGuard &) = delete;
    NoGradGuard &operator=(const NoGradGuard &) = delete;

    /** True when tape recording is currently enabled. */
    static bool gradEnabled();

  private:
    bool previous_;
};

/** Matrix product: [m,k] x [k,n] -> [m,n]. */
Variable matmul(const Variable &a, const Variable &b);

/** @name Elementwise and broadcast arithmetic
 * @{
 */
Variable add(const Variable &a, const Variable &b);
Variable sub(const Variable &a, const Variable &b);
Variable mul(const Variable &a, const Variable &b);
/** x + bias where bias is [D] and x is [..., D]. */
Variable addBias(const Variable &x, const Variable &bias);
Variable scale(const Variable &x, double factor);
Variable addScalar(const Variable &x, double value);
/** @} */

/** @name Nonlinearities
 * @{
 */
Variable relu(const Variable &x);
Variable gelu(const Variable &x);
Variable tanhOp(const Variable &x);
Variable sigmoidOp(const Variable &x);
Variable softmaxLastDim(const Variable &x);

/**
 * gelu's forward on a raw buffer, in place: the one GELU shared by
 * the module walk and the execution plan's BiasGelu epilogue, so the
 * two agree bit for bit by construction.
 */
void geluInPlace(float *x, size_t count);

/** relu's forward on a raw buffer, in place (max(v, 0)); shared like
 * geluInPlace by the module walk, the plan's BiasRelu epilogue and
 * nn::Mlp::forwardRow. */
void reluInPlace(float *x, size_t count);
/** @} */

/** Layer normalization over the last dimension. */
Variable layerNorm(const Variable &x, const Variable &gamma,
                   const Variable &beta, double eps = 1e-5);

/**
 * Row lookup: weight is [V, D]; ids index rows; the result has shape
 * out_shape + [D] where shapeNumel(out_shape) == ids.size().
 */
Variable embedding(const Variable &weight, const std::vector<int> &ids,
                   std::vector<int> out_shape);

/**
 * Row layout of a ragged batch (docs/training.md#ragged-training):
 * sequence b owns the spans[b] token rows from offsets[b], sequence
 * after sequence, the layout plan::CompiledPlan::run uses.
 * spans[b] = lengths[b], except that a zero-length sequence spans the
 * padded width `time`: all of its keys are masked, so it attends
 * uniformly over `time` padded positions, exactly as in a padded batch.
 */
struct RaggedLayout
{
    /** Lay out sequences of the given valid lengths; `time` is the
     * longest length (at least 1). Throws std::logic_error on a
     * negative length. */
    explicit RaggedLayout(std::vector<int> lengths);

    int batch() const { return static_cast<int>(lengths.size()); }

    /** Total rows, the sum of spans. */
    size_t rows() const { return offsets.back(); }

    std::vector<int> lengths;
    std::vector<int> spans;
    std::vector<size_t> offsets; ///< batch() + 1 prefix sums of spans
    int time = 1;
};

/** @name Ragged attention
 * Per-head tensors hold sequence b's rows as `heads` contiguous
 * [spans[b], dh] blocks, head after head, from row offsets[b] * heads;
 * attention scores hold one spans[b] x spans[b] block per (sequence,
 * head) in the same order, flattened.
 * @{
 */
/** Token rows [..., H*dh] (layout.rows() of them) -> per-head blocks
 * [rows*H, dh]. */
Variable splitHeads(const Variable &x, const RaggedLayout &layout,
                    int heads);
/** Per-head blocks [rows*H, dh] -> token rows [1, rows, H*dh]. */
Variable mergeHeads(const Variable &x, const RaggedLayout &layout,
                    int heads);
/** Scores q k^T per (sequence, head) block, from per-head q and k. */
Variable bmmTransB(const Variable &q, const Variable &k,
                   const RaggedLayout &layout, int heads);
/** Context a v per (sequence, head) block, from scores-shaped a and
 * per-head v; the result is per-head like v. */
Variable bmm(const Variable &a, const Variable &v,
             const RaggedLayout &layout, int heads);
/**
 * Row softmax of every score block after masking keys j >= lengths[b]
 * (only a zero-length sequence has any). Gradients reach unmasked
 * scores only.
 */
Variable maskedSoftmax(const Variable &scores, const RaggedLayout &layout,
                       int heads);
/** Mean over each sequence's valid rows: token rows [..., D] ->
 * [B, D]; a zero-length sequence takes its first row. */
Variable meanPoolMasked(const Variable &x, const RaggedLayout &layout);
/** @} */

/** Inverted-dropout regularization (identity when !train or p == 0). */
Variable dropout(const Variable &x, double p, Rng &rng, bool train);

/** @name Reductions and losses
 * @{
 */
Variable sumAll(const Variable &x);
Variable meanAll(const Variable &x);
/** Mean squared error against a constant target. */
Variable mseLoss(const Variable &pred, const Tensor &target);
/** Binary cross-entropy on logits against constant 0/1 targets. */
Variable bceWithLogitsLoss(const Variable &logits, const Tensor &targets);
/**
 * Weighted negative log-likelihood of the labelled class:
 * -(1/B) * sum_b weight[b] * log softmax(logits[b])[label[b]].
 * With unit weights this is standard cross-entropy; with reward
 * weights it is the REINFORCE policy-gradient surrogate.
 */
Variable weightedNllLoss(const Variable &logits,
                         const std::vector<int> &labels,
                         const std::vector<float> &weights);
/** Standard cross-entropy over logits [B, C]. */
Variable crossEntropyLoss(const Variable &logits,
                          const std::vector<int> &labels);
/** @} */

/**
 * Grouped row means: x is [N, D]; groups[g] lists row indices of group
 * g; the result is [G, D] with row g the mean of the selected rows (a
 * zero row for an empty group). This is the message-passing primitive
 * of mean-aggregator GNNs (GraphSAGE).
 */
Variable gatherMeanRows(const Variable &x,
                        const std::vector<std::vector<int>> &groups);

/**
 * im2col for 2-D convolution: x is [B, H*W*C] (HWC rows);
 * the result is [B*OH*OW, KH*KW*C] where each output row holds the
 * receptive field of one output position (stride 1, zero padding
 * `pad`). Convolution is then a matmul with a [C*KH*KW, F] filter
 * matrix of shape [KH*KW*C, F].
 */
Variable im2col(const Variable &x, int channels, int height, int width,
                int kernel_h, int kernel_w, int pad);

/**
 * 2x2 average pooling with stride 2 on HWC images: x is [B, H*W*C];
 * the result is [B, (H/2)*(W/2)*C] (H and W must be even).
 */
Variable avgPool2x2(const Variable &x, int channels, int height,
                    int width);

/** Tape-aware reshape (element count preserved, row-major layout). */
Variable reshape(const Variable &x, std::vector<int> shape);

/** Concatenate two 2-D variables along the last dimension. */
Variable concatCols(const Variable &a, const Variable &b);

/** Select one row of a 2-D variable as a [1, D] result. */
Variable row(const Variable &x, int index);

} // namespace sns::tensor

#endif // SNS_TENSOR_AUTOGRAD_HH
