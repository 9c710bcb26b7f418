#include "nn/transformer.hh"

#include <cmath>

#include "util/logging.hh"

namespace sns::nn {

using namespace sns::tensor;

MultiHeadAttention::MultiHeadAttention(int d_model, int heads, Rng &rng)
    : d_model_(d_model),
      heads_(heads),
      wq_(d_model, d_model, rng),
      wk_(d_model, d_model, rng),
      wv_(d_model, d_model, rng),
      wo_(d_model, d_model, rng)
{
    SNS_ASSERT(d_model % heads == 0, "d_model must divide into heads");
}

Variable
MultiHeadAttention::forward(const Variable &x,
                            const RaggedLayout &layout) const
{
    const int dh = d_model_ / heads_;
    // Per-head [s_b, dh] blocks; one s_b x s_b score block each.
    const Variable q = splitHeads(wq_.forward(x), layout, heads_);
    const Variable k = splitHeads(wk_.forward(x), layout, heads_);
    const Variable v = splitHeads(wv_.forward(x), layout, heads_);

    Variable scores = bmmTransB(q, k, layout, heads_);
    scores = scale(scores, 1.0 / std::sqrt(static_cast<double>(dh)));
    const Variable attn = maskedSoftmax(scores, layout, heads_);
    const Variable ctx = bmm(attn, v, layout, heads_);
    return wo_.forward(mergeHeads(ctx, layout, heads_)); // [1, rows, D]
}

std::vector<Variable>
MultiHeadAttention::parameters() const
{
    std::vector<Variable> params;
    for (const auto &layer : {&wq_, &wk_, &wv_, &wo_}) {
        for (const auto &param : layer->parameters())
            params.push_back(param);
    }
    return params;
}

FeedForward::FeedForward(int d_model, int d_ff, Rng &rng)
    : up_(d_model, d_ff, rng), down_(d_ff, d_model, rng)
{
}

Variable
FeedForward::forward(const Variable &x) const
{
    return down_.forward(gelu(up_.forward(x)));
}

std::vector<Variable>
FeedForward::parameters() const
{
    std::vector<Variable> params = up_.parameters();
    for (const auto &param : down_.parameters())
        params.push_back(param);
    return params;
}

TransformerEncoderLayer::TransformerEncoderLayer(int d_model, int heads,
                                                 int d_ff, Rng &rng)
    : attention_(d_model, heads, rng),
      feed_forward_(d_model, d_ff, rng),
      norm1_(d_model),
      norm2_(d_model)
{
}

Variable
TransformerEncoderLayer::forward(const Variable &x,
                                 const RaggedLayout &layout) const
{
    const Variable attended =
        norm1_.forward(add(x, attention_.forward(x, layout)));
    return norm2_.forward(add(attended, feed_forward_.forward(attended)));
}

std::vector<Variable>
TransformerEncoderLayer::parameters() const
{
    std::vector<Variable> params = attention_.parameters();
    for (const auto &param : feed_forward_.parameters())
        params.push_back(param);
    for (const auto &param : norm1_.parameters())
        params.push_back(param);
    for (const auto &param : norm2_.parameters())
        params.push_back(param);
    return params;
}

TransformerEncoder::TransformerEncoder(const TransformerConfig &config,
                                       Rng &rng)
    : config_(config),
      token_embedding_(config.vocab_size, config.d_model, rng),
      position_embedding_(config.max_positions, config.d_model, rng),
      input_norm_(config.d_model)
{
    for (int i = 0; i < config.layers; ++i) {
        layers_.emplace_back(config.d_model, config.heads, config.d_ff,
                             rng);
    }
}

Variable
TransformerEncoder::encode(const std::vector<int> &ids,
                           const RaggedLayout &layout) const
{
    const size_t rows = layout.rows();
    SNS_ASSERT(ids.size() == rows, "ids size must be the layout's rows");
    SNS_ASSERT(layout.time <= config_.max_positions,
               "sequence longer than max_positions: ", layout.time);

    std::vector<int> positions(rows);
    for (int b = 0; b < layout.batch(); ++b) {
        for (int t = 0; t < layout.spans[b]; ++t)
            positions[layout.offsets[b] + t] = t;
    }

    // Token rows form one [1, rows, D] block, so every Linear takes its
    // reshape path, which hands the input a separately rounded
    // gradient; the pinned training numerics depend on that rounding
    // (docs/training.md).
    const std::vector<int> shape = {1, static_cast<int>(rows)};
    Variable h = add(token_embedding_.forward(ids, shape),
                     position_embedding_.forward(positions, shape));
    h = input_norm_.forward(h);
    for (const auto &layer : layers_)
        h = layer.forward(h, layout);
    return meanPoolMasked(h, layout); // [B, d_model]
}

std::vector<Variable>
TransformerEncoder::parameters() const
{
    std::vector<Variable> params = token_embedding_.parameters();
    for (const auto &param : position_embedding_.parameters())
        params.push_back(param);
    for (const auto &param : input_norm_.parameters())
        params.push_back(param);
    for (const auto &layer : layers_) {
        for (const auto &param : layer.parameters())
            params.push_back(param);
    }
    return params;
}

} // namespace sns::nn
