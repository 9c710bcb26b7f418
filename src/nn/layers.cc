#include "nn/layers.hh"

#include <algorithm>
#include <cmath>

#include "tensor/gemm.hh"
#include "tensor/tanh.hh"
#include "util/logging.hh"

namespace sns::nn {

using namespace sns::tensor;

size_t
Module::parameterCount() const
{
    size_t total = 0;
    for (const auto &param : parameters())
        total += param.value().numel();
    return total;
}

Linear::Linear(int in_features, int out_features, Rng &rng)
    : in_(in_features), out_(out_features)
{
    SNS_ASSERT(in_features > 0 && out_features > 0,
               "Linear dimensions must be positive");
    const float bound =
        std::sqrt(6.0f / static_cast<float>(in_features + out_features));
    weight_ = Variable(
        Tensor::uniform({in_features, out_features}, rng, -bound, bound),
        /*requires_grad=*/true);
    bias_ = Variable(Tensor::zeros({out_features}), /*requires_grad=*/true);
}

Variable
Linear::forward(const Variable &x) const
{
    const auto &shape = x.value().shape();
    SNS_ASSERT(!shape.empty() && shape.back() == in_,
               "Linear input width mismatch: got ",
               x.value().shapeString(), ", expected last dim ", in_);
    if (x.value().ndim() == 2)
        return addBias(matmul(x, weight_), bias_);

    // Fold leading dims into rows, multiply, restore the shape.
    SNS_ASSERT(x.value().ndim() == 3, "Linear supports 2-D or 3-D input");
    const int b = shape[0];
    const int t = shape[1];
    // Reshape is free (value copy shares nothing but is just a tensor
    // copy); route through a tape-aware reshape by using matmul on a
    // reshaped view of the same Variable is not possible directly, so
    // we implement 3-D as per-batch bmm against a broadcast weight.
    // Cheaper and simpler: treat [B,T,in] as [(B*T), in] — the tape op
    // below handles it.
    return reshape(addBias(matmul(reshape(x, {b * t, in_}), weight_),
                           bias_),
                   {b, t, out_});
}

void
Linear::forwardRow(const float *x, float *y) const
{
    std::fill(y, y + out_, 0.0f);
    gemmAcc(x, weight_.value().data(), y, 1, out_, in_, false, false);
    const Tensor &bias = bias_.value();
    for (int j = 0; j < out_; ++j)
        y[j] += bias[j];
}

std::vector<Variable>
Linear::parameters() const
{
    return {weight_, bias_};
}

Embedding::Embedding(int vocab_size, int dim, Rng &rng) : dim_(dim)
{
    SNS_ASSERT(vocab_size > 0 && dim > 0,
               "Embedding dimensions must be positive");
    weight_ = Variable(Tensor::randn({vocab_size, dim}, rng, 0.02f),
                       /*requires_grad=*/true);
}

Variable
Embedding::forward(const std::vector<int> &ids,
                   std::vector<int> out_shape) const
{
    return embedding(weight_, ids, std::move(out_shape));
}

std::vector<Variable>
Embedding::parameters() const
{
    return {weight_};
}

LayerNorm::LayerNorm(int dim)
{
    SNS_ASSERT(dim > 0, "LayerNorm dim must be positive");
    gamma_ = Variable(Tensor::full({dim}, 1.0f), /*requires_grad=*/true);
    beta_ = Variable(Tensor::zeros({dim}), /*requires_grad=*/true);
}

Variable
LayerNorm::forward(const Variable &x) const
{
    return layerNorm(x, gamma_, beta_);
}

std::vector<Variable>
LayerNorm::parameters() const
{
    return {gamma_, beta_};
}

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int height,
               int width, int pad, Rng &rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      height_(height),
      width_(width),
      pad_(pad),
      out_h_(height + 2 * pad - kernel + 1),
      out_w_(width + 2 * pad - kernel + 1)
{
    SNS_ASSERT(out_h_ > 0 && out_w_ > 0,
               "Conv2d kernel larger than padded input");
    const int fan_in = kernel * kernel * in_channels;
    const float bound =
        std::sqrt(6.0f / static_cast<float>(fan_in + out_channels));
    weight_ = Variable(
        Tensor::uniform({fan_in, out_channels}, rng, -bound, bound),
        /*requires_grad=*/true);
    bias_ = Variable(Tensor::zeros({out_channels}),
                     /*requires_grad=*/true);
}

Variable
Conv2d::forward(const Variable &x) const
{
    const int batch = x.value().dim(0);
    const Variable cols = im2col(x, in_channels_, height_, width_,
                                 kernel_, kernel_, pad_);
    const Variable y = addBias(matmul(cols, weight_), bias_);
    return reshape(y, {batch, out_h_ * out_w_ * out_channels_});
}

std::vector<Variable>
Conv2d::parameters() const
{
    return {weight_, bias_};
}

Mlp::Mlp(std::vector<int> dims, Rng &rng, Activation activation)
    : activation_(activation)
{
    SNS_ASSERT(dims.size() >= 2, "Mlp needs at least input and output dims");
    for (size_t i = 0; i + 1 < dims.size(); ++i)
        layers_.emplace_back(dims[i], dims[i + 1], rng);
}

Variable
Mlp::forward(const Variable &x) const
{
    Variable h = x;
    for (size_t i = 0; i < layers_.size(); ++i) {
        h = layers_[i].forward(h);
        if (i + 1 < layers_.size()) {
            switch (activation_) {
              case Activation::Relu:
                h = relu(h);
                break;
              case Activation::Gelu:
                h = gelu(h);
                break;
              case Activation::Tanh:
                h = tanhOp(h);
                break;
            }
        }
    }
    return h;
}

std::span<const float>
Mlp::forwardRow(std::span<const float> x, std::vector<float> &buffer) const
{
    SNS_ASSERT(x.size() == static_cast<size_t>(layers_.front().inFeatures()),
               "Mlp::forwardRow input width mismatch: got ", x.size(),
               ", expected ", layers_.front().inFeatures());
    size_t widest = 0;
    for (const auto &layer : layers_)
        widest = std::max(widest, static_cast<size_t>(layer.outFeatures()));
    if (buffer.size() < 2 * widest)
        buffer.resize(2 * widest);

    const float *in = x.data();
    float *out = nullptr;
    for (size_t i = 0; i < layers_.size(); ++i) {
        out = buffer.data() + (i % 2) * widest;
        layers_[i].forwardRow(in, out);
        const size_t width = layers_[i].outFeatures();
        if (i + 1 < layers_.size()) {
            switch (activation_) {
              case Activation::Relu:
                reluInPlace(out, width);
                break;
              case Activation::Gelu:
                geluInPlace(out, width);
                break;
              case Activation::Tanh:
                tanhArray(out, out, width);
                break;
            }
        }
        in = out;
    }
    return {out, static_cast<size_t>(layers_.back().outFeatures())};
}

std::vector<int>
Mlp::layerDims() const
{
    std::vector<int> dims;
    dims.reserve(layers_.size() + 1);
    dims.push_back(layers_.front().inFeatures());
    for (const auto &layer : layers_)
        dims.push_back(layer.outFeatures());
    return dims;
}

std::vector<Variable>
Mlp::parameters() const
{
    std::vector<Variable> params;
    for (const auto &layer : layers_) {
        for (const auto &param : layer.parameters())
            params.push_back(param);
    }
    return params;
}

} // namespace sns::nn
