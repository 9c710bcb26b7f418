#include "graphir/diff.hh"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "util/fnv.hh"

namespace sns::graphir {

namespace {

/** Streaming FNV-1a accumulator. */
struct Fnv
{
    uint64_t state = kFnvShortBasis;

    void
    bytes(const void *data, size_t size)
    {
        state = fnv1a(data, size, state);
    }

    void u64(uint64_t v) { bytes(&v, sizeof(v)); }
    void u32(uint32_t v) { bytes(&v, sizeof(v)); }

    void
    f64bits(double v)
    {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

uint64_t
fnvOfString(const std::string &s)
{
    Fnv h;
    h.str(s);
    return h.state;
}

/** One hashed contribution to a module's multiset signature. */
template <typename Fill>
uint64_t
item(Fill &&fill)
{
    Fnv h;
    fill(h);
    return h.state;
}

} // namespace

uint64_t
structuralFingerprint(const Graph &graph)
{
    // Order-sensitive by construction: the sampler's DFS follows the
    // stored successor order, so reordering edges is a real change
    // even when the edge *set* is identical.
    Fnv h;
    h.u64(graph.numNodes());
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        h.u32(static_cast<uint32_t>(graph.type(id)));
        h.u32(static_cast<uint32_t>(graph.token(id)));
        h.f64bits(graph.activity(id));
    }
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        const auto &succs = graph.successors(id);
        h.u64(succs.size());
        for (NodeId next : succs)
            h.u32(next);
    }
    return h.state;
}

std::vector<ModuleSignature>
moduleSignatures(const Graph &graph)
{
    // Within-module ordinals: stable under re-numbering elsewhere in
    // the design, so an untouched module keeps its signature even when
    // an edit inserts or deletes vertices in a sibling.
    std::vector<uint32_t> ordinal(graph.numNodes(), 0);
    std::unordered_map<std::string, ModuleSignature> sigs;
    std::unordered_map<std::string, uint64_t> name_fnv;
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        const std::string &mod = graph.module(id);
        auto &sig = sigs[mod];
        if (sig.nodes == 0 && sig.hash == 0) {
            sig.name = mod;
            name_fnv.emplace(mod, fnvOfString(mod));
        }
        ordinal[id] = static_cast<uint32_t>(sig.nodes++);
        // Multiset-combine (sum mod 2^64): a module's hash must not
        // depend on how its members interleave with other modules in
        // the global id order.
        sig.hash += item([&](Fnv &h) {
            h.u32(0xA0); // node tag
            h.u32(ordinal[id]);
            h.u32(static_cast<uint32_t>(graph.type(id)));
            h.u32(static_cast<uint32_t>(graph.token(id)));
            h.f64bits(graph.activity(id));
        });
    }
    for (NodeId from = 0; from < graph.numNodes(); ++from) {
        const std::string &from_mod = graph.module(from);
        const auto &succs = graph.successors(from);
        for (uint32_t slot = 0; slot < succs.size(); ++slot) {
            const NodeId to = succs[slot];
            const std::string &to_mod = graph.module(to);
            sigs[from_mod].hash += item([&](Fnv &h) {
                h.u32(0xB0); // outgoing-edge tag
                h.u32(ordinal[from]);
                h.u32(slot);
                h.u64(name_fnv.at(to_mod));
                h.u32(ordinal[to]);
            });
            if (to_mod != from_mod) {
                // A cross-module wire is part of both signatures: the
                // consumer's inputs changing shape is a change *to the
                // consumer* as far as its paths are concerned.
                sigs[to_mod].hash += item([&](Fnv &h) {
                    h.u32(0xC0); // incoming-edge tag
                    h.u64(name_fnv.at(from_mod));
                    h.u32(ordinal[from]);
                    h.u32(ordinal[to]);
                });
            }
        }
    }
    std::vector<ModuleSignature> out;
    out.reserve(sigs.size());
    for (auto &[name, sig] : sigs)
        out.push_back(std::move(sig));
    std::sort(out.begin(), out.end(),
              [](const ModuleSignature &a, const ModuleSignature &b) {
                  return a.name < b.name;
              });
    return out;
}

namespace {

/**
 * Count endpoints that can launch or capture a path through an
 * affected vertex: closure over the combinational subgraph in one
 * direction, stopping at endpoints (a complete circuit path never
 * crosses one — endpoints terminate paths, §3.2).
 */
size_t
affectedEndpoints(const Graph &graph, const std::vector<char> &affected)
{
    std::vector<char> counted(graph.numNodes(), 0);
    std::vector<char> visited(graph.numNodes(), 0);
    std::vector<NodeId> frontier;

    const auto sweep = [&](bool forward) {
        std::fill(visited.begin(), visited.end(), 0);
        frontier.clear();
        for (NodeId id = 0; id < graph.numNodes(); ++id) {
            if (affected[id]) {
                visited[id] = 1;
                if (graph.isEndpoint(id))
                    counted[id] = 1;
                else
                    frontier.push_back(id);
            }
        }
        while (!frontier.empty()) {
            const NodeId node = frontier.back();
            frontier.pop_back();
            const auto &next_ids = forward ? graph.successors(node)
                                           : graph.predecessors(node);
            for (NodeId next : next_ids) {
                if (visited[next])
                    continue;
                visited[next] = 1;
                if (graph.isEndpoint(next))
                    counted[next] = 1; // boundary: count, don't cross
                else
                    frontier.push_back(next);
            }
        }
    };
    sweep(/*forward=*/true);
    sweep(/*forward=*/false);

    size_t n = 0;
    for (const char c : counted)
        n += c != 0;
    return n;
}

} // namespace

GraphDiff
diffAgainst(const std::vector<ModuleSignature> &before_sigs,
            uint64_t before_fingerprint, const Graph &after)
{
    GraphDiff diff;
    const auto after_sigs = moduleSignatures(after);
    diff.modules_total = after_sigs.size();
    diff.node_affected.assign(after.numNodes(), 0);

    if (structuralFingerprint(after) == before_fingerprint) {
        // Rename-only edits (design or module labels) land here: the
        // prediction-relevant structure is bit-identical, so the whole
        // delta is a no-op regardless of how labels moved.
        diff.identical = true;
        return diff;
    }

    // Merge the two name-sorted signature lists.
    size_t b = 0;
    for (const auto &sig : after_sigs) {
        while (b < before_sigs.size() && before_sigs[b].name < sig.name) {
            diff.modules_removed.push_back(before_sigs[b].name);
            ++b;
        }
        if (b < before_sigs.size() && before_sigs[b].name == sig.name) {
            if (before_sigs[b].hash != sig.hash)
                diff.modules_changed.push_back(sig.name);
            ++b;
        } else {
            diff.modules_added.push_back(sig.name);
        }
    }
    for (; b < before_sigs.size(); ++b)
        diff.modules_removed.push_back(before_sigs[b].name);

    std::unordered_map<std::string, char> dirty;
    for (const auto &name : diff.modules_changed)
        dirty[name] = 1;
    for (const auto &name : diff.modules_added)
        dirty[name] = 1;
    for (NodeId id = 0; id < after.numNodes(); ++id) {
        if (dirty.count(after.module(id))) {
            diff.node_affected[id] = 1;
            ++diff.nodes_affected;
        }
    }
    diff.endpoints_affected = affectedEndpoints(after, diff.node_affected);
    return diff;
}

GraphDiff
diffGraphs(const Graph &before, const Graph &after)
{
    return diffAgainst(moduleSignatures(before),
                       structuralFingerprint(before), after);
}

} // namespace sns::graphir
