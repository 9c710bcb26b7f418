/**
 * @file
 * Basic trainable layers: Linear, Embedding, LayerNorm, and MLP stacks.
 *
 * Layers own their parameter Variables; parameters() exposes them to
 * optimizers and the serializer. All initialization is explicit-seeded
 * for reproducibility.
 */

#ifndef SNS_NN_LAYERS_HH
#define SNS_NN_LAYERS_HH

#include <span>
#include <vector>

#include "tensor/autograd.hh"

namespace sns::nn {

using tensor::Tensor;
using tensor::Variable;

/** Anything owning trainable parameters. */
class Module
{
  public:
    virtual ~Module() = default;

    /** All trainable parameters, in a stable order. */
    virtual std::vector<Variable> parameters() const = 0;

    /** Total scalar parameter count. */
    size_t parameterCount() const;
};

/** Fully-connected layer: y = x W + b, with x [..., in]. */
class Linear : public Module
{
  public:
    /** Xavier-uniform initialized weights. */
    Linear(int in_features, int out_features, Rng &rng);

    /** Apply to a 2-D [N, in] or 3-D [B, T, in] input. */
    Variable forward(const Variable &x) const;

    /** Inference-only forward of one row: y[0, out) = x[0, in) W + b
     * with forward()'s gemmAcc and bias loop, so bitwise equal to
     * forward() on a [1, in] input; records no tape. */
    void forwardRow(const float *x, float *y) const;

    std::vector<Variable> parameters() const override;

    int inFeatures() const { return in_; }
    int outFeatures() const { return out_; }

  private:
    int in_;
    int out_;
    Variable weight_; ///< [in, out]
    Variable bias_;   ///< [out]
};

/** Token-id to vector lookup table. */
class Embedding : public Module
{
  public:
    Embedding(int vocab_size, int dim, Rng &rng);

    /** Look up ids, producing out_shape + [dim]. */
    Variable forward(const std::vector<int> &ids,
                     std::vector<int> out_shape) const;

    std::vector<Variable> parameters() const override;

    int dim() const { return dim_; }

  private:
    int dim_;
    Variable weight_; ///< [V, dim]
};

/** Learnable layer normalization over the last dimension. */
class LayerNorm : public Module
{
  public:
    explicit LayerNorm(int dim);

    Variable forward(const Variable &x) const;

    std::vector<Variable> parameters() const override;

  private:
    Variable gamma_;
    Variable beta_;
};

/**
 * 2-D convolution over HWC images (stride 1), implemented as
 * im2col + matmul. Input is [B, H*W*C_in]; output is
 * [B, OH*OW*C_out] where OH = H + 2*pad - K + 1 (and likewise OW), so
 * conv / pool layers chain without layout shuffles.
 */
class Conv2d : public Module
{
  public:
    Conv2d(int in_channels, int out_channels, int kernel, int height,
           int width, int pad, Rng &rng);

    Variable forward(const Variable &x) const;

    int outHeight() const { return out_h_; }
    int outWidth() const { return out_w_; }
    int outChannels() const { return out_channels_; }

    std::vector<Variable> parameters() const override;

  private:
    int in_channels_;
    int out_channels_;
    int kernel_;
    int height_;
    int width_;
    int pad_;
    int out_h_;
    int out_w_;
    Variable weight_; ///< [K*K*C_in, C_out]
    Variable bias_;   ///< [C_out]
};

/** Activation choices for Mlp hidden layers. */
enum class Activation
{
    Relu,
    Gelu,
    Tanh,
};

/**
 * A plain multi-layer perceptron. dims = {in, h1, ..., out}; the
 * activation is applied after every layer except the last.
 */
class Mlp : public Module
{
  public:
    Mlp(std::vector<int> dims, Rng &rng,
        Activation activation = Activation::Relu);

    Variable forward(const Variable &x) const;

    /**
     * Inference-only forward of one input row: the layers' gemmAcc,
     * bias loop and in-place activation of forward(), so the result is
     * bitwise equal to forward() on a [1, in] input, without a tape or
     * a Tensor. The activations ping-pong through `buffer`, which a
     * caller reuses across rows to make the call allocation-free; the
     * returned out-wide row lives in it.
     */
    std::span<const float> forwardRow(std::span<const float> x,
                                      std::vector<float> &buffer) const;

    std::vector<Variable> parameters() const override;

    /** The construction dims ({in, h1, ..., out}), reconstructed from
     * the layer stack — plan tracing asserts the architecture. */
    std::vector<int> layerDims() const;

    /** Hidden-layer activation. */
    Activation activation() const { return activation_; }

  private:
    std::vector<Linear> layers_;
    Activation activation_;
};

} // namespace sns::nn

#endif // SNS_NN_LAYERS_HH
