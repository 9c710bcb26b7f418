/**
 * @file
 * Random sampling of complete circuit paths (§3.2, Algorithm 1).
 *
 * A complete circuit path starts and ends on a vertex containing a
 * flip-flop (a register or an I/O port) and traverses combinational
 * vertices in between — the "one-cycle behaviour" of the design. The
 * sampler performs a randomized DFS where at each vertex only
 * ceil(|successors| / k) successors (at least one) are traversed:
 * k = 1 is exhaustive enumeration, larger k samples ever more sparsely.
 * The paper chooses k = 5.
 */

#ifndef SNS_SAMPLER_PATH_SAMPLER_HH
#define SNS_SAMPLER_PATH_SAMPLER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graphir/graph.hh"
#include "util/rng.hh"

namespace sns::sampler {

/** One sampled complete circuit path. */
struct SampledPath
{
    /** Vertices of the path in order, endpoints included. */
    std::vector<graphir::NodeId> nodes;

    /** Vocabulary tokens of the vertices, same order. */
    std::vector<graphir::TokenId> tokens;
};

/** Sampler configuration. */
struct SamplerOptions
{
    /** Branch-thinning parameter k of Algorithm 1 (paper default: 5). */
    double k = 5.0;

    /** Hard cap on path length (the Circuitformer input limit). */
    size_t max_path_length = 512;

    /** Cap on paths kept per starting endpoint (keeps blowup bounded). */
    size_t max_paths_per_source = 64;

    /** Cap on total paths sampled from one design. */
    size_t max_total_paths = 100000;

    /** RNG seed; equal seeds reproduce the identical sample. */
    uint64_t seed = 1;

    /**
     * Additionally extract the deepest complete circuit paths from the
     * top-N launch points (longest-path dynamic program over the
     * combinational DAG). Random sampling alone essentially never
     * follows a long chain end to end (the probability decays
     * geometrically with depth), yet those chains are exactly where
     * critical paths live; this deterministic supplement guarantees
     * they are represented. 0 disables.
     */
    size_t longest_paths = 8;
};

/**
 * One design's sampled paths in flat storage: path i is nodes(i) with
 * tokens(i), and tokenHash(i) equals perf::hashTokens(tokens(i)). The
 * hash is computed once, while sampling, so the path cache never
 * rehashes a path (docs/perf.md). Sampling into a PathSet that held an
 * earlier design reuses its buffers, the sampler's scratch included:
 * once they have grown to the largest design, sampling allocates
 * almost nothing.
 */
class PathSet
{
  public:
    PathSet();
    ~PathSet();

    /** Number of paths. */
    size_t size() const { return token_hashes_.size(); }
    bool empty() const { return token_hashes_.empty(); }

    /** Vertices of path i in order, endpoints included. */
    std::span<const graphir::NodeId>
    nodes(size_t i) const
    {
        return {nodes_.data() + offsets_[i], length(i)};
    }

    /** Vocabulary tokens of path i, same order. */
    std::span<const graphir::TokenId>
    tokens(size_t i) const
    {
        return {tokens_.data() + offsets_[i], length(i)};
    }

    /** Vertex count of path i. */
    size_t length(size_t i) const { return offsets_[i + 1] - offsets_[i]; }

    /** FNV-1a over the raw bytes of tokens(i) (perf::hashTokens). */
    uint64_t tokenHash(size_t i) const { return token_hashes_[i]; }

  private:
    friend class PathSampler;

    /** The sampler's per-design working state (path_sampler.cc). */
    struct Scratch;

    std::vector<graphir::NodeId> nodes_;
    std::vector<graphir::TokenId> tokens_;
    std::vector<size_t> offsets_{0};
    std::vector<uint64_t> token_hashes_;
    std::unique_ptr<Scratch> scratch_;
};

/** Randomized complete-circuit-path sampler (Algorithm 1). */
class PathSampler
{
  public:
    explicit PathSampler(SamplerOptions options = SamplerOptions());

    /**
     * Sample complete circuit paths from every endpoint of the design
     * into `out`, replacing what it held. With options.k == 1 and
     * generous caps this enumerates every complete circuit path
     * exactly once.
     */
    void sample(const graphir::Graph &graph, PathSet &out) const;

    /** The same sample, one SampledPath per path. It samples into a
     * per-thread PathSet, so repeated calls on one thread reuse the
     * sampler's scratch too; each call still allocates its result. */
    std::vector<SampledPath> sample(const graphir::Graph &graph) const;

    /** The options in effect. */
    const SamplerOptions &options() const { return options_; }

  private:
    class Walk;

    SamplerOptions options_;
};

} // namespace sns::sampler

#endif // SNS_SAMPLER_PATH_SAMPLER_HH
