#include "graphir/graph.hh"

#include <algorithm>

namespace sns::graphir {

Graph::Graph(std::string name) : name_(std::move(name))
{
}

NodeId
Graph::addNode(NodeType type, int raw_width)
{
    const int rounded = roundWidth(type, raw_width);
    Node node;
    node.type = type;
    node.raw_width = raw_width;
    node.width = rounded;
    node.token = Vocabulary::instance().tokenId(type, rounded);
    node.activity = 1.0;
    nodes_.push_back(node);
    out_.emplace_back();
    in_.emplace_back();
    return static_cast<NodeId>(nodes_.size() - 1);
}

void
Graph::addEdge(NodeId from, NodeId to)
{
    check(from);
    check(to);
    out_[from].push_back(to);
    in_[to].push_back(from);
    ++edge_count_;
}

std::vector<NodeId>
Graph::endpoints() const
{
    std::vector<NodeId> result;
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        if (isPathEndpoint(nodes_[id].type))
            result.push_back(id);
    }
    return result;
}

void
Graph::setActivity(NodeId id, double activity)
{
    SNS_ASSERT(activity >= 0.0 && activity <= 1.0,
               "activity coefficient out of [0, 1]: ", activity);
    nodes_[check(id)].activity = activity;
}

void
Graph::setModule(NodeId id, const std::string &module)
{
    check(id);
    for (uint32_t m = 0; m < module_names_.size(); ++m) {
        if (module_names_[m] == module) {
            nodes_[id].module = m;
            return;
        }
    }
    nodes_[id].module = static_cast<uint32_t>(module_names_.size());
    module_names_.push_back(module);
}

std::vector<double>
Graph::tokenCounts() const
{
    std::vector<double> counts(Vocabulary::instance().circuitSize(), 0.0);
    for (const auto &node : nodes_)
        counts[node.token] += 1.0;
    return counts;
}

bool
Graph::combinationallyAcyclic() const
{
    return findCombinationalCycle().empty();
}

std::vector<NodeId>
Graph::findCombinationalCycle() const
{
    // Iterative DFS over the combinational subgraph: edges leaving a
    // sequential vertex are cut, so a cycle through a register is fine.
    enum class Mark : uint8_t { White, Grey, Black };
    std::vector<Mark> mark(nodes_.size(), Mark::White);

    for (NodeId root = 0; root < nodes_.size(); ++root) {
        if (mark[root] != Mark::White)
            continue;
        // (node, next successor index) stack
        std::vector<std::pair<NodeId, size_t>> stack;
        stack.emplace_back(root, 0);
        mark[root] = Mark::Grey;
        while (!stack.empty()) {
            auto &[node, idx] = stack.back();
            const bool cut = isSequential(nodes_[node].type);
            if (cut || idx >= out_[node].size()) {
                mark[node] = Mark::Black;
                stack.pop_back();
                continue;
            }
            const NodeId next = out_[node][idx++];
            if (mark[next] == Mark::Grey) {
                // The stack suffix from `next` onwards is the cycle.
                std::vector<NodeId> cycle;
                bool in_cycle = false;
                for (const auto &[n, i] : stack) {
                    if (n == next)
                        in_cycle = true;
                    if (in_cycle)
                        cycle.push_back(n);
                }
                return cycle;
            }
            if (mark[next] == Mark::White) {
                mark[next] = Mark::Grey;
                stack.emplace_back(next, 0);
            }
        }
    }
    return {};
}

std::vector<NodeId>
Graph::combinationalTopoOrder() const
{
    std::vector<NodeId> order;
    std::vector<uint32_t> indegree;
    combinationalTopoOrder(order, indegree);
    return order;
}

void
Graph::combinationalTopoOrder(std::vector<NodeId> &order,
                              std::vector<uint32_t> &indegree) const
{
    // Kahn's algorithm on the combinational view: edges out of
    // sequential vertices still order their combinational consumers, but
    // edges *into* sequential vertices do not constrain the register
    // (registers only launch, they never wait combinationally). Every
    // vertex enters `order` once: sequential ones and sources up front,
    // the rest when their last combinational input is placed, so
    // `order` is also the queue.
    indegree.assign(nodes_.size(), 0);
    for (const auto &succs : out_) {
        for (NodeId to : succs) {
            if (!isSequential(nodes_[to].type))
                ++indegree[to];
        }
    }

    order.clear();
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        if (isSequential(nodes_[id].type) || indegree[id] == 0)
            order.push_back(id);
    }
    for (size_t cursor = 0; cursor < order.size(); ++cursor) {
        for (NodeId next : out_[order[cursor]]) {
            if (!isSequential(nodes_[next].type) && --indegree[next] == 0)
                order.push_back(next);
        }
    }
    SNS_ASSERT(order.size() == nodes_.size(),
               "combinational cycle detected in design '", name_, "'");
}

verify::Report
Graph::validate() const
{
    verify::Report report;
    const auto &vocab = Vocabulary::instance();
    const auto loc = [this, &vocab](NodeId id) {
        return name_ + ": node " + std::to_string(id) + " (" +
               vocab.tokenString(nodes_[id].token) + ")";
    };

    for (NodeId id = 0; id < nodes_.size(); ++id) {
        const Node &node = nodes_[id];
        for (NodeId next : out_[id]) {
            if (next >= nodes_.size()) {
                report.error(verify::rules::kGraphEdge,
                             name_ + ": node " + std::to_string(id),
                             "edge target " + std::to_string(next) +
                                 " out of range [0, " +
                                 std::to_string(nodes_.size()) + ")");
            }
        }
        const int rounded = roundWidth(node.type, node.raw_width);
        if (node.width != rounded) {
            report.error(verify::rules::kGraphWidth, loc(id),
                         "stored width " + std::to_string(node.width) +
                             " differs from rounded raw width " +
                             std::to_string(rounded) + " (§3.1)",
                         "re-add the vertex through Graph::addNode");
        } else if (node.token != vocab.tokenId(node.type, node.width)) {
            report.error(verify::rules::kVocabNode, loc(id),
                         "token id " + std::to_string(node.token) +
                             " does not encode (type, width)");
        }
        if (!(node.activity >= 0.0 && node.activity <= 1.0)) {
            report.error(verify::rules::kGraphActivity, loc(id),
                         "activity coefficient out of [0, 1]");
        }
    }

    const auto cycle = findCombinationalCycle();
    if (!cycle.empty()) {
        std::string path;
        for (NodeId id : cycle)
            path += loc(id) + " -> ";
        path += loc(cycle.front());
        report.error(verify::rules::kGraphCycle, name_,
                     "combinational cycle: " + path,
                     "break the loop with a register (dff)");
    }
    return report;
}

void
Graph::writeDot(std::ostream &os) const
{
    os << "digraph \"" << name_ << "\" {\n";
    const auto &vocab = Vocabulary::instance();
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        os << "  n" << id << " [label=\""
           << vocab.tokenString(nodes_[id].token) << "\"";
        if (isPathEndpoint(nodes_[id].type))
            os << ", shape=box, style=filled, fillcolor=lightgrey";
        os << "];\n";
    }
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        for (NodeId next : out_[id])
            os << "  n" << id << " -> n" << next << ";\n";
    }
    os << "}\n";
}

} // namespace sns::graphir
