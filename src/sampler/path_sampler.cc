#include "sampler/path_sampler.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/fnv.hh"
#include "util/hash_index.hh"
#include "util/logging.hh"

namespace sns::sampler {

using graphir::Graph;
using graphir::NodeId;
using graphir::TokenId;

namespace {

/** Frame::order of a vertex whose successors are all taken in order. */
constexpr uint32_t kInOrder = UINT32_MAX;

/** One vertex of the partial path, with the prefix hashes of the path
 * up to and including it. */
struct Step
{
    NodeId node;
    TokenId token;
    uint64_t node_hash;  ///< FNV-1a over the node id bytes
    uint64_t token_hash; ///< FNV-1a over the token bytes
};

/** A vertex whose successors the DFS is visiting: the ones still to
 * visit are picks [next, count), taken in successor order or, when
 * thinned, through the Fisher-Yates scratch at offset `order`. */
struct Frame
{
    NodeId node;
    uint32_t next;
    uint32_t count;
    uint32_t order;
};

} // namespace

struct PathSet::Scratch
{
    // The design in compact form, rebuilt per design: successor lists
    // in CSR layout, each vertex's token and endpoint flag. The walk
    // reads these rather than the Graph's per-vertex vectors and node
    // records, which measured slower (docs/perf.md).
    std::vector<uint32_t> succ_begin; ///< n + 1 offsets into succ
    std::vector<NodeId> succ;
    std::vector<TokenId> token;
    std::vector<uint8_t> endpoint;

    /** Node-sequence hash -> path, for dedup. */
    HashIndex seen;

    /** The partial path. */
    std::vector<Step> path;

    // The DFS stack, the Fisher-Yates index scratch of its thinned
    // frames, and the shuffled sources.
    std::vector<Frame> frames;
    std::vector<uint32_t> order;
    std::vector<NodeId> sources;

    // Deepest-path extraction; topo and indegree are
    // Graph::combinationalTopoOrder's output and scratch.
    std::vector<NodeId> topo;
    std::vector<uint32_t> indegree;
    std::vector<int> reach;
    std::vector<NodeId> best_succ;
    std::vector<std::pair<int, NodeId>> launches;
};

PathSet::PathSet() = default;
PathSet::~PathSet() = default;

/**
 * One design's sampling run into a PathSet: the design's compact form,
 * the partial path with its per-depth prefix hashes, the
 * emit-and-dedup step, the iterative randomized DFS of Algorithm 1
 * and the deepest-path supplement.
 */
class PathSampler::Walk
{
  public:
    Walk(const Graph &graph, const SamplerOptions &options, PathSet &out)
        : options_(options), out_(out), sc_(scratchOf(out))
    {
        out_.nodes_.clear();
        out_.tokens_.clear();
        out_.offsets_.assign(1, 0);
        out_.token_hashes_.clear();
        sc_.seen.clear();

        const size_t n = graph.numNodes();
        sc_.succ_begin.resize(n + 1);
        sc_.succ.clear();
        sc_.token.resize(n);
        sc_.endpoint.resize(n);
        for (NodeId id = 0; id < n; ++id) {
            const auto &succs = graph.successors(id);
            sc_.succ_begin[id] = static_cast<uint32_t>(sc_.succ.size());
            sc_.succ.insert(sc_.succ.end(), succs.begin(), succs.end());
            sc_.token[id] = graph.token(id);
            sc_.endpoint[id] = graph.isEndpoint(id);
        }
        SNS_ASSERT(sc_.succ.size() < kInOrder,
                   "sampler: too many edges in design '", graph.name(),
                   "'");
        sc_.succ_begin[n] = static_cast<uint32_t>(sc_.succ.size());
    }

    size_t numNodes() const { return sc_.token.size(); }
    bool isEndpoint(NodeId id) const { return sc_.endpoint[id] != 0; }

    uint32_t
    fanout(NodeId id) const
    {
        return sc_.succ_begin[id + 1] - sc_.succ_begin[id];
    }

    NodeId
    successor(NodeId id, uint32_t i) const
    {
        return sc_.succ[sc_.succ_begin[id] + i];
    }

    bool
    totalBudgetLeft() const
    {
        return out_.size() < options_.max_total_paths;
    }

    void resetPath() { sc_.path.clear(); }

    /** Append `node` to the partial path. FNV-1a is byte-sequential,
     * so extending the prefix hash by one token's bytes gives the
     * hash of the whole prefix: at emit, the token hash equals
     * perf::hashTokens of the path's tokens bit for bit. */
    void
    push(NodeId node)
    {
        auto &path = sc_.path;
        const TokenId token = sc_.token[node];
        const uint64_t node_hash =
            path.empty() ? kFnvOffsetBasis : path.back().node_hash;
        const uint64_t token_hash =
            path.empty() ? kFnvOffsetBasis : path.back().token_hash;
        path.push_back({node, token, fnv1aWord(node, node_hash),
                        fnv1aWord(static_cast<uint32_t>(token), token_hash)});
    }

    void pop() { sc_.path.pop_back(); }

    size_t depth() const { return sc_.path.size(); }

    /**
     * Add the partial path to the set unless an equal node sequence is
     * already there (e.g. a deepest-path duplicate). The index is keyed
     * by the node hash and compares full sequences, so this is exactly
     * set membership over node sequences. Returns true when added.
     */
    bool
    emit()
    {
        const auto &path = sc_.path;
        const auto same = [&](uint32_t other) {
            return std::ranges::equal(out_.nodes(other), path,
                                      std::ranges::equal_to{}, {},
                                      &Step::node);
        };
        if (!sc_.seen.findOrInsert(path.back().node_hash, same).second)
            return false;
        for (const Step &step : path) {
            out_.nodes_.push_back(step.node);
            out_.tokens_.push_back(step.token);
        }
        out_.offsets_.push_back(out_.nodes_.size());
        out_.token_hashes_.push_back(path.back().token_hash);
        return true;
    }

    /**
     * Open a frame on the top vertex `node` (non-empty successors):
     * ceil(|succ|/k) of them, at least one, are explored; when that is
     * fewer than all, a partial Fisher-Yates over an index scratch
     * leaves a uniform random subset in its first `pick` slots.
     */
    void
    open(NodeId node, Rng &rng)
    {
        const uint32_t fanout = this->fanout(node);
        const uint32_t pick = static_cast<uint32_t>(std::max<size_t>(
            1, static_cast<size_t>(
                   std::ceil(static_cast<double>(fanout) / options_.k))));
        Frame frame{node, 0, std::min(pick, fanout), kInOrder};
        if (pick < fanout) {
            auto &order = sc_.order;
            frame.order = static_cast<uint32_t>(order.size());
            order.resize(order.size() + fanout);
            uint32_t *slots = order.data() + frame.order;
            std::iota(slots, slots + fanout, 0u);
            for (uint32_t i = 0; i < pick; ++i) {
                const size_t j = i + rng.uniformInt(fanout - i);
                std::swap(slots[i], slots[j]);
            }
        }
        sc_.frames.push_back(frame);
    }

    /**
     * Sample from one source (an endpoint with successors). Depth
     * first, children in pick order; a child past the length cap is
     * abandoned, an endpoint or dead end completes the path, anything
     * else is opened in turn. Once the source's budget or the total is
     * spent no further vertex is opened, so stopping there skips no
     * RNG draw.
     */
    void
    fromSource(NodeId source, Rng &rng)
    {
        auto &frames = sc_.frames;
        size_t budget = options_.max_paths_per_source;
        resetPath();
        push(source);
        open(source, rng);
        while (!frames.empty() && budget > 0 && totalBudgetLeft()) {
            Frame &frame = frames.back();
            if (frame.next == frame.count) {
                if (frame.order != kInOrder)
                    sc_.order.resize(frame.order);
                frames.pop_back();
                pop();
                continue;
            }
            const uint32_t pick = frame.order == kInOrder
                                      ? frame.next
                                      : sc_.order[frame.order + frame.next];
            ++frame.next;
            if (depth() >= options_.max_path_length)
                continue; // abandon over-long paths
            const NodeId next = successor(frame.node, pick);
            push(next);
            if (isEndpoint(next) || fanout(next) == 0) {
                if (emit())
                    --budget;
                pop();
            } else {
                open(next, rng);
            }
        }
        frames.clear();
        sc_.order.clear();
    }

    /**
     * Deterministic deepest-path extraction: reach[u] = longest number
     * of vertices from combinational vertex u to (and including) a
     * terminating endpoint, computed over the combinational DAG; then
     * the maximal path from each of the deepest launch points is
     * followed through argmax successors and emitted, up to `count`
     * complete paths. reach and the first-argmax successors do not
     * depend on which topological order the sweep uses.
     */
    void
    deepestPaths(size_t count, const Graph &graph)
    {
        const size_t n = numNodes();
        auto &reach = sc_.reach;
        auto &best_succ = sc_.best_succ;
        reach.assign(n, 0);
        best_succ.assign(n, graphir::kInvalidNode);

        auto &topo = sc_.topo;
        graph.combinationalTopoOrder(topo, sc_.indegree);

        // Reverse topological sweep: successors are finalized before
        // their predecessors.
        const auto via = [&](NodeId next) {
            return isEndpoint(next) ? 1 : 1 + reach[next];
        };
        for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
            const NodeId id = *it;
            if (isEndpoint(id))
                continue;
            for (uint32_t i = 0; i < fanout(id); ++i) {
                const NodeId next = successor(id, i);
                if (via(next) > reach[id]) {
                    reach[id] = via(next);
                    best_succ[id] = next;
                }
            }
        }

        // Rank launch endpoints by the depth reachable through them.
        auto &launches = sc_.launches;
        launches.clear();
        for (NodeId id = 0; id < n; ++id) {
            if (!isEndpoint(id))
                continue;
            int best = 0;
            for (uint32_t i = 0; i < fanout(id); ++i)
                best = std::max(best, via(successor(id, i)));
            if (best > 0)
                launches.emplace_back(best, id);
        }
        // Deepest first, ties by id. Launch ids are distinct, so the
        // order is total and popping a heap visits the launches in
        // exactly the sorted order, while only the few launches used
        // pay for ordering.
        const auto later = [](const auto &a, const auto &b) {
            return a.first < b.first ||
                   (a.first == b.first && a.second > b.second);
        };
        std::make_heap(launches.begin(), launches.end(), later);
        size_t found = 0;
        while (!launches.empty() && found < count && totalBudgetLeft()) {
            std::pop_heap(launches.begin(), launches.end(), later);
            const NodeId source = launches.back().second;
            launches.pop_back();
            resetPath();
            push(source);
            // First hop: the deepest successor of the launch point.
            NodeId cursor = graphir::kInvalidNode;
            int best = -1;
            for (uint32_t i = 0; i < fanout(source); ++i) {
                const NodeId next = successor(source, i);
                if (via(next) > best) {
                    best = via(next);
                    cursor = next;
                }
            }
            while (cursor != graphir::kInvalidNode &&
                   depth() < options_.max_path_length) {
                push(cursor);
                if (isEndpoint(cursor))
                    break;
                cursor = best_succ[cursor];
            }
            if (depth() < 2 || !isEndpoint(sc_.path.back().node))
                continue; // over-long chain truncated: skip
            ++found;
            emit();
        }
    }

    /** Shuffle the endpoints with the run's RNG and sample from each
     * one that has successors, until the total budget is spent. */
    void
    fromEveryEndpoint(Rng &rng)
    {
        // Randomize the source order so the total-path cap does not
        // bias the sample towards low-numbered vertices.
        auto &sources = sc_.sources;
        sources.clear();
        for (NodeId id = 0; id < numNodes(); ++id) {
            if (isEndpoint(id))
                sources.push_back(id);
        }
        rng.shuffle(sources);
        for (NodeId source : sources) {
            if (!totalBudgetLeft())
                break;
            if (fanout(source) > 0)
                fromSource(source, rng);
        }
    }

  private:
    static PathSet::Scratch &
    scratchOf(PathSet &set)
    {
        if (!set.scratch_)
            set.scratch_ = std::make_unique<PathSet::Scratch>();
        return *set.scratch_;
    }

    const SamplerOptions &options_;
    PathSet &out_;
    PathSet::Scratch &sc_;
};

PathSampler::PathSampler(SamplerOptions options) : options_(options)
{
    SNS_ASSERT(options_.k >= 1.0, "sampler k must be >= 1");
    SNS_ASSERT(options_.max_path_length >= 2,
               "paths need at least two vertices");
}

void
PathSampler::sample(const Graph &graph, PathSet &out) const
{
    Walk walk(graph, options_, out);
    Rng rng(options_.seed);

    // Deterministic deep-path supplement first (deduplicated against
    // the random sample).
    if (options_.longest_paths > 0)
        walk.deepestPaths(options_.longest_paths, graph);
    walk.fromEveryEndpoint(rng);
}

std::vector<SampledPath>
PathSampler::sample(const Graph &graph) const
{
    thread_local PathSet set;
    sample(graph, set);
    std::vector<SampledPath> paths(set.size());
    for (size_t i = 0; i < set.size(); ++i) {
        const auto nodes = set.nodes(i);
        const auto tokens = set.tokens(i);
        paths[i].nodes.assign(nodes.begin(), nodes.end());
        paths[i].tokens.assign(tokens.begin(), tokens.end());
    }
    return paths;
}

} // namespace sns::sampler
