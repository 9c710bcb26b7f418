/**
 * @file
 * The GraphIR circuit graph (§3.1).
 *
 * Vertices are typed, width-annotated functional units; directed edges
 * are wiring connections. Registers (dff) and ports (io) are the
 * sequential boundary: every combinational cycle must be broken by one,
 * and complete circuit paths (§3.2) start and end on them.
 */

#ifndef SNS_GRAPHIR_GRAPH_HH
#define SNS_GRAPHIR_GRAPH_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "graphir/node_type.hh"
#include "graphir/vocabulary.hh"
#include "util/logging.hh"
#include "verify/diagnostics.hh"

namespace sns::graphir {

/** Index of a vertex within a Graph. */
using NodeId = uint32_t;

/** Invalid / "no node" sentinel. */
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/**
 * A directed circuit graph in the Table-1 vocabulary.
 *
 * The graph stores both raw wire widths (as produced by the front-end)
 * and rounded token widths (§3.1 rounding rule); predictors consume the
 * rounded view while ablation studies can re-encode from the raw view.
 */
class Graph
{
  public:
    /** Construct an empty graph with a human-readable design name. */
    explicit Graph(std::string name = "design");

    /**
     * Add a vertex.
     *
     * @param type functional-unit category
     * @param raw_width maximal wire width of the unit before rounding
     * @return the new vertex id
     */
    NodeId addNode(NodeType type, int raw_width);

    /** Add a directed wiring edge from one vertex to another. */
    void addEdge(NodeId from, NodeId to);

    /** Number of vertices. */
    size_t numNodes() const { return nodes_.size(); }

    /** Number of edges. */
    size_t numEdges() const { return edge_count_; }

    /** Design name. */
    const std::string &name() const { return name_; }

    /** Rename the design. */
    void setName(std::string name) { name_ = std::move(name); }

    /** Vertex type. */
    NodeType type(NodeId id) const { return nodes_[check(id)].type; }

    /** Rounded (vocabulary) width. */
    int width(NodeId id) const { return nodes_[check(id)].width; }

    /** Raw pre-rounding width. */
    int rawWidth(NodeId id) const { return nodes_[check(id)].raw_width; }

    /** Vocabulary token of the vertex. */
    TokenId token(NodeId id) const { return nodes_[check(id)].token; }

    /** Outgoing neighbors. */
    const std::vector<NodeId> &
    successors(NodeId id) const
    {
        return out_[check(id)];
    }

    /** Incoming neighbors. */
    const std::vector<NodeId> &
    predecessors(NodeId id) const
    {
        return in_[check(id)];
    }

    /** True if the vertex can begin/end a complete circuit path. */
    bool
    isEndpoint(NodeId id) const
    {
        return isPathEndpoint(type(id));
    }

    /** All endpoint (io/dff) vertices, in id order. */
    std::vector<NodeId> endpoints() const;

    /**
     * Switching-activity coefficient of a register (§3.4.4); 1.0 unless
     * a performance model provided clock-gating information.
     */
    double activity(NodeId id) const { return nodes_[check(id)].activity; }

    /** Set the activity coefficient of a vertex. */
    void setActivity(NodeId id, double activity);

    /**
     * Assign a vertex to a named RTL module. Module labels are an
     * annotation for the edit-loop diff (docs/editloop.md): they group
     * vertices into the regions a designer edits together, and
     * graphir::diffGraphs reports change at module granularity. They
     * never influence a prediction — sampling, tokens, and aggregation
     * are label-blind, which is why renaming a module is a structural
     * no-op. Every vertex starts in the unnamed default module "".
     */
    void setModule(NodeId id, const std::string &module);

    /** The module label of a vertex ("" = default module). */
    const std::string &
    module(NodeId id) const
    {
        return module_names_[nodes_[check(id)].module];
    }

    /** Distinct module labels in first-assignment order (the default
     * module "" is index 0 and always present). */
    const std::vector<std::string> &moduleNames() const
    {
        return module_names_;
    }

    /**
     * Graph statistics (Fig. 2c): per-token vertex counts over the
     * circuit vocabulary. Length is Vocabulary::circuitSize().
     */
    std::vector<double> tokenCounts() const;

    /**
     * Verify structural invariants — edge targets in range, stored
     * width/token agreeing with the §3.1 rounding rule, activity
     * coefficients in range, port/register boundary breaking every
     * combinational cycle — and return one diagnostic per violation
     * (which invariant, which node). Never throws: pipeline boundaries
     * pass the report to verify::enforce(), which applies the
     * process-wide policy (fatal in tests, log-and-count in release);
     * sns_lint prints it. The deeper whole-graph rules (dangling and
     * multi-driven nets, dead logic, register sanity) live in
     * verify::GraphAnalyzer.
     */
    verify::Report validate() const;

    /** True if the combinational subgraph is acyclic. */
    bool combinationallyAcyclic() const;

    /**
     * The vertices of one combinational cycle (in edge order, first
     * vertex not repeated), or an empty vector if the combinational
     * subgraph is acyclic.
     */
    std::vector<NodeId> findCombinationalCycle() const;

    /**
     * Vertices in a topological order of the combinational subgraph
     * (edges leaving sequential vertices are treated as cut). Sequential
     * vertices appear before any combinational vertex that depends on
     * them.
     */
    std::vector<NodeId> combinationalTopoOrder() const;

    /**
     * The same order written into `order`, with `indegree` as scratch;
     * a caller that keeps both across designs allocates nothing once
     * they have grown to the largest design.
     */
    void combinationalTopoOrder(std::vector<NodeId> &order,
                                std::vector<uint32_t> &indegree) const;

    /** Emit Graphviz DOT for debugging / documentation. */
    void writeDot(std::ostream &os) const;

  private:
    struct Node
    {
        NodeType type;
        int raw_width;
        int width;
        TokenId token;
        double activity;
        uint32_t module = 0; ///< index into module_names_
    };

    NodeId
    check(NodeId id) const
    {
        SNS_ASSERT(id < nodes_.size(), "node id out of range: ", id);
        return id;
    }

    std::string name_;
    /** Interned module labels; index 0 is the default module "". */
    std::vector<std::string> module_names_{""};
    std::vector<Node> nodes_;
    std::vector<std::vector<NodeId>> out_;
    std::vector<std::vector<NodeId>> in_;
    size_t edge_count_ = 0;
};

} // namespace sns::graphir

#endif // SNS_GRAPHIR_GRAPH_HH
