/**
 * @file
 * Deterministic data-parallel gradient exchange (docs/distributed.md).
 *
 * The bitwise contract: training at any power-of-two world size N
 * produces the same bits as training at world size 1, on the same
 * split. Float addition is not associative, so this cannot fall out of
 * a vanilla ring allreduce (which sums each chunk in rotated rank
 * order — a different association per chunk per world size). Instead
 * the reduction order is fixed *before* the transport is chosen,
 * extending the sns::par lowest-index discipline:
 *
 *  1. Every batch is cut into `grad_slices` (S, a power of two)
 *     contiguous sample slices whose boundaries depend only on the
 *     batch size and S — never on N. Each slice's gradient is one
 *     backward pass, scaled by its sample share.
 *  2. Slice gradients combine along a fixed balanced binary tree over
 *     slice positions (lower-index operand always on the left; empty
 *     slices are skipped identically at every world size).
 *  3. Rank r owns the aligned subtree of slices
 *     [r*S/N, (r+1)*S/N) and computes its partial locally; the
 *     cross-rank reduction applies exactly the remaining upper levels
 *     of the same tree, in rank order.
 *
 * Because N divides S and both are powers of two, every rank partial
 * is an aligned internal node of the world-size-1 tree, and the
 * combined gradient is bit-identical for every admissible N. The ring
 * transport (RingExchange) keeps the promise by relaying *raw* rank
 * partials — each chunk's owner receives all N partials and reduces
 * them locally in canonical tree order, instead of summing in ring
 * arrival order. Loss scalars reduce along the same tree in double
 * precision.
 */

#ifndef SNS_DIST_EXCHANGE_HH
#define SNS_DIST_EXCHANGE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/ring.hh"
#include "tensor/autograd.hh"
#include "verify/diagnostics.hh"

namespace sns::obs {
class Registry;
}

namespace sns::dist {

/**
 * Data-parallel training configuration (TrainerConfig::dist). Every
 * run trains slice-deterministically; the defaults (one rank, one
 * slice) are plain single-process training. validateDistConfig()
 * enforces the V-DIST-* rules.
 */
struct DistConfig
{
    /** Number of cooperating ranks (power of two, <= grad_slices). */
    int world_size = 1;

    /** This process's rank in [0, world_size). */
    int rank = 0;

    /**
     * Gradient slices per batch (S above): a power of two divisible
     * by world_size. The value is part of the checkpoint config
     * fingerprint (it shapes the numerics); world_size and rank are
     * deliberately NOT — that is what makes resuming at a different
     * rank count legal.
     */
    int grad_slices = 1;

    /** Ring rendezvous template ("unix:<path>" or "tcp:<host>:<port>")
     * for world_size > 1; ignored when a channel is injected. */
    std::string rendezvous;

    /** In-process ring injection (tests/bench); bypasses rendezvous. */
    std::shared_ptr<RingChannel> channel;
};

/** V-DIST-* checks: world size/rank/slice-count admissibility and the
 * endpoint requirement. `param_tensors` is the model's parameter
 * count (each rank must be able to own a shard). */
verify::Report validateDistConfig(const DistConfig &config,
                                  size_t param_tensors);

/** Contiguous sample range of slice s (boundaries depend only on
 * (n, slices) — world-size independent). */
std::pair<size_t, size_t> sliceRange(size_t n, int slices, int s);

/**
 * ZeRO partition of the parameter list: contiguous runs of whole
 * tensors, balanced by element count. Returns world+1 cut indices
 * (rank r owns tensors [cut[r], cut[r+1])).
 */
std::vector<size_t> partitionParams(const std::vector<size_t> &elems,
                                    int world);

/** A partial loss sum: count == 0 means "no samples" (identity). */
struct ScalarPartial
{
    double sum = 0.0;
    uint64_t count = 0;
};

/** @name Canonical balanced-tree combination
 * `slots` must have power-of-two size; position i is slice/rank i's
 * partial (nullopt = absent). Pairs (2i, 2i+1) combine level by level,
 * lower index on the left; combining with an absent operand is the
 * identity. Gradients add elementwise in float (the same operation at
 * every tree level, which is what makes rank partials composable);
 * losses add in double.
 * @{
 */
std::optional<std::vector<float>>
combineTreeGrad(std::vector<std::optional<std::vector<float>>> slots);
ScalarPartial
combineTreeLoss(std::vector<std::optional<ScalarPartial>> slots);
/** @} */

/** @name Flat parameter views
 * The flat space concatenates tensors in parameters() order.
 * @{
 */
/** Total elements of the parameter list. */
size_t flatSize(const std::vector<tensor::Variable> &params);
/** Gradients scaled by `weight` into one flat vector (params without
 * an accumulated gradient contribute zeros). */
std::vector<float> flattenGrads(const std::vector<tensor::Variable> &params,
                                float weight);
/** Overwrite every parameter's gradient from the flat vector. */
void scatterGrads(std::vector<tensor::Variable> &params,
                  const std::vector<float> &flat);
/** @} */

/**
 * The collective operations sliced training needs, world-size
 * agnostic. Circuitformer::trainEpoch() drives this interface;
 * LocalExchange (world 1) and RingExchange (world N over a
 * RingChannel) implement it. Every operation is a synchronization
 * point: all ranks must call the same sequence with consistent
 * arguments.
 */
class GradientExchange
{
  public:
    GradientExchange(int world, int rank, int grad_slices)
        : world_(world), rank_(rank), slices_(grad_slices)
    {
    }
    virtual ~GradientExchange() = default;

    int worldSize() const { return world_; }
    int rank() const { return rank_; }
    int gradSlices() const { return slices_; }

    /**
     * Replace this rank's subtree partial (absent when the rank had no
     * samples this batch) with the full canonical tree reduction over
     * all rank partials. Every rank observes identical bits.
     */
    virtual void allreduceGrad(std::vector<float> &flat,
                               bool present) = 0;

    /** Combine per-rank loss partials along the rank tree. */
    virtual ScalarPartial reduceLoss(const ScalarPartial &mine) = 0;

    /** True on every rank iff any rank votes true (stop coherence). */
    virtual bool anyStop(bool mine) = 0;

    /** Element-space ownership cuts (world+1 entries) used by
     * allgatherWeights; derived from partitionParams. */
    void setWeightPartition(std::vector<size_t> elem_cuts);

    /** After a sharded optimizer step: broadcast each rank's owned
     * parameter range so all ranks hold the full updated weights. */
    virtual void
    allgatherWeights(std::vector<tensor::Variable> &params) = 0;

  protected:
    int world_;
    int rank_;
    int slices_;
    std::vector<size_t> elem_cuts_;
};

/** World size 1: this rank's subtree is the whole tree, so every
 * operation is the identity. */
class LocalExchange : public GradientExchange
{
  public:
    explicit LocalExchange(int grad_slices)
        : GradientExchange(1, 0, grad_slices)
    {
    }

    void allreduceGrad(std::vector<float> &, bool) override {}
    ScalarPartial reduceLoss(const ScalarPartial &mine) override
    {
        return mine;
    }
    bool anyStop(bool mine) override { return mine; }
    void allgatherWeights(std::vector<tensor::Variable> &) override {}
};

/**
 * The ring implementation (docs/distributed.md §Allreduce):
 *
 *  - allreduceGrad: the flat vector splits into N owner chunks. A
 *    reduce-scatter phase relays *raw* rank partials around the ring
 *    (step s carries the partials still in flight, shrinking by one
 *    chunk per hop); chunk c's owner buffers all N partials and
 *    reduces them in canonical rank-tree order. A ring allgather then
 *    circulates the reduced chunks. Raw relay costs ~N/2x the optimal
 *    ring bandwidth — the deliberate price of a world-size-invariant
 *    reduction order (the determinism argument in the docs).
 *  - reduceLoss/anyStop: allgather N scalars, combine locally.
 *
 * Records dist.allreduce_us and dist.bytes_sent/received on the
 * registry passed at construction.
 */
class RingExchange : public GradientExchange
{
  public:
    RingExchange(std::shared_ptr<RingChannel> channel, int world,
                 int rank, int grad_slices, obs::Registry *registry);

    /**
     * Ring-wide hello: every rank sends (magic, version, world, rank,
     * config_fp, split_fp, grad_slices, param_elems) to its successor
     * and validates its predecessor's frame — one pass proves the ring
     * is consistent end to end. Throws DistError on any mismatch.
     */
    void handshake(uint64_t config_fp, uint64_t split_fp,
                   uint64_t param_elems);

    void allreduceGrad(std::vector<float> &flat, bool present) override;
    ScalarPartial reduceLoss(const ScalarPartial &mine) override;
    bool anyStop(bool mine) override;
    void allgatherWeights(std::vector<tensor::Variable> &params) override;

  private:
    /** Publish channel byte counters to the obs counters. */
    void flushByteCounters();

    std::shared_ptr<RingChannel> channel_;
    obs::Registry *registry_;
    uint64_t published_sent_ = 0;
    uint64_t published_received_ = 0;
};

} // namespace sns::dist

#endif // SNS_DIST_EXCHANGE_HH
