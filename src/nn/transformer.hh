/**
 * @file
 * Transformer encoder building blocks (Vaswani et al. 2017) in the
 * light-weight configuration the Circuitformer uses (Table 2 of the
 * paper: 2 hidden layers, 2 attention heads, 128-wide embeddings).
 *
 * Layers are post-norm (residual then LayerNorm), matching the
 * HuggingFace/BERT encoder the paper augments. Batches are ragged
 * (tensor::RaggedLayout): every sequence runs over its own rows, with
 * no padding, and pooling averages each sequence's valid positions.
 */

#ifndef SNS_NN_TRANSFORMER_HH
#define SNS_NN_TRANSFORMER_HH

#include <memory>
#include <vector>

#include "nn/layers.hh"

namespace sns::nn {

/** Multi-head self-attention within each sequence of a ragged batch. */
class MultiHeadAttention : public Module
{
  public:
    MultiHeadAttention(int d_model, int heads, Rng &rng);

    /** Self-attention over the ragged rows x [1, layout.rows(), D]. */
    Variable forward(const Variable &x,
                     const tensor::RaggedLayout &layout) const;

    std::vector<Variable> parameters() const override;

  private:
    int d_model_;
    int heads_;
    Linear wq_;
    Linear wk_;
    Linear wv_;
    Linear wo_;
};

/** Position-wise feed-forward block (two linears with GELU). */
class FeedForward : public Module
{
  public:
    FeedForward(int d_model, int d_ff, Rng &rng);

    Variable forward(const Variable &x) const;

    std::vector<Variable> parameters() const override;

  private:
    Linear up_;
    Linear down_;
};

/** One post-norm encoder layer: MHA + FFN with residuals. */
class TransformerEncoderLayer : public Module
{
  public:
    TransformerEncoderLayer(int d_model, int heads, int d_ff, Rng &rng);

    Variable forward(const Variable &x,
                     const tensor::RaggedLayout &layout) const;

    std::vector<Variable> parameters() const override;

  private:
    MultiHeadAttention attention_;
    FeedForward feed_forward_;
    LayerNorm norm1_;
    LayerNorm norm2_;
};

/** Encoder configuration. */
struct TransformerConfig
{
    int vocab_size = 82;   ///< token embedding table size
    int max_positions = 512;
    int d_model = 128;
    int heads = 2;
    int layers = 2;
    int d_ff = 512;
};

/**
 * A token-sequence encoder: token embedding + learned positional
 * embedding + N encoder layers + masked mean pooling into one vector
 * per sequence.
 */
class TransformerEncoder : public Module
{
  public:
    TransformerEncoder(const TransformerConfig &config, Rng &rng);

    /**
     * Encode a ragged batch.
     * @param ids layout.rows() token ids, sequence after sequence
     *        (layout.spans[b] of them for sequence b; a zero-length
     *        sequence's span holds pad ids)
     * @return pooled sequence embeddings [B, d_model]
     */
    Variable encode(const std::vector<int> &ids,
                    const tensor::RaggedLayout &layout) const;

    std::vector<Variable> parameters() const override;

    const TransformerConfig &config() const { return config_; }

  private:
    TransformerConfig config_;
    Embedding token_embedding_;
    Embedding position_embedding_;
    LayerNorm input_norm_;
    std::vector<TransformerEncoderLayer> layers_;
};

} // namespace sns::nn

#endif // SNS_NN_TRANSFORMER_HH
