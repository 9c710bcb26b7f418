#include "verify/analyzer.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "util/fnv.hh"

namespace sns::verify {

using graphir::Graph;
using graphir::NodeId;
using graphir::NodeType;
using graphir::TokenId;
using graphir::Vocabulary;

namespace {

/** "node 12 (mul16)" — the standard vertex location string. */
std::string
nodeLoc(const Graph &graph, NodeId id)
{
    return "node " + std::to_string(id) + " (" +
           Vocabulary::instance().tokenString(graph.token(id)) + ")";
}

std::string
designLoc(const Graph &graph, NodeId id)
{
    return graph.name() + ": " + nodeLoc(graph, id);
}

/**
 * The number of distinct input ports a unit type has, or -1 for
 * "any" (outputs aggregate arbitrarily many fan-ins are still wrong,
 * but Io doubles as both input and output so it is handled separately).
 */
int
expectedArity(NodeType type)
{
    switch (type) {
      case NodeType::Not:
      case NodeType::ReduceAnd:
      case NodeType::ReduceOr:
      case NodeType::ReduceXor:
        return 1;
      case NodeType::Mux:
        return 3;
      case NodeType::Add:
      case NodeType::Mul:
      case NodeType::Div:
      case NodeType::Mod:
      case NodeType::Eq:
      case NodeType::Lgt:
      case NodeType::And:
      case NodeType::Or:
      case NodeType::Xor:
      case NodeType::Sh:
        return 2;
      case NodeType::Io:
      case NodeType::Dff:
        return -1;
    }
    return -1;
}

/**
 * Rounded width of the value a vertex drives onto its fan-out.
 * Comparators and reductions produce a single bit regardless of their
 * declared (operand) width.
 */
int
effectiveOutputWidth(const Graph &graph, NodeId id)
{
    switch (graph.type(id)) {
      case NodeType::Eq:
      case NodeType::Lgt:
      case NodeType::ReduceAnd:
      case NodeType::ReduceOr:
      case NodeType::ReduceXor:
        return 1;
      default:
        return graph.width(id);
    }
}

} // namespace

void
checkStructure(const Graph &graph, Report &report)
{
    report.merge(graph.validate());
}

void
checkDrivers(const Graph &graph, Report &report)
{
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        const NodeType type = graph.type(id);
        const size_t drivers = graph.predecessors(id).size();
        const int arity = expectedArity(type);

        if (type == NodeType::Dff) {
            // 0 drivers is a constant/coefficient register (a Note);
            // more than one next-state driver is a multi-driven net.
            if (drivers > 1) {
                report.error(rules::kGraphMultiDriver,
                             designLoc(graph, id),
                             "register has " + std::to_string(drivers) +
                                 " next-state drivers",
                             "mux the sources into one next-state value");
            }
            continue;
        }
        if (type == NodeType::Io) {
            // 0 drivers = input port, 1 driver = output port. Many
            // drivers is the capture-point aggregation idiom
            // (CircuitBuilder::output takes a source list), so it only
            // rates a note.
            if (drivers > 1) {
                report.note(rules::kGraphMultiDriver,
                            designLoc(graph, id),
                            "port aggregates " + std::to_string(drivers) +
                                " sources");
            }
            continue;
        }
        if (drivers == 0) {
            report.error(rules::kGraphDangling, designLoc(graph, id),
                         "combinational operator has no drivers "
                         "(dangling net)",
                         "wire every operand or delete the operator");
            continue;
        }
        if (arity == 1 && drivers > 1) {
            report.error(rules::kGraphMultiDriver, designLoc(graph, id),
                         "single-input unit has " +
                             std::to_string(drivers) + " drivers",
                         "a unary operator input is one net");
            continue;
        }
        if (arity > 1 && static_cast<int>(drivers) > arity) {
            report.warning(rules::kGraphArity, designLoc(graph, id),
                           "expected at most " + std::to_string(arity) +
                               " operand(s), found " +
                               std::to_string(drivers));
        } else if (arity > 1 && static_cast<int>(drivers) < arity) {
            // Fewer drivers than ports is the tie-off idiom: constant
            // operands are not wired (a `+ 1` is an incrementer).
            report.note(rules::kGraphArity, designLoc(graph, id),
                        std::to_string(arity - static_cast<int>(drivers)) +
                            " operand(s) tied off to constants");
        }
    }
}

void
checkWidths(const Graph &graph, Report &report)
{
    const auto &vocab = Vocabulary::instance();
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        const NodeType type = graph.type(id);

        // Stored width must be the §3.1 rounding of the raw width and
        // the token must agree — anything else is a corrupted graph.
        const int expected = graphir::roundWidth(type, graph.rawWidth(id));
        if (graph.width(id) != expected) {
            report.error(rules::kGraphWidth, designLoc(graph, id),
                         "stored width " +
                             std::to_string(graph.width(id)) +
                             " is not the rounded raw width " +
                             std::to_string(expected));
            continue;
        }
        if (graph.token(id) != vocab.tokenId(type, graph.width(id))) {
            report.error(rules::kVocabNode, designLoc(graph, id),
                         "token id does not match (type, width)",
                         "rebuild the vertex through Graph::addNode");
            continue;
        }

        // §3.1: an operator's width is the maximum of its operand and
        // target widths, so no data operand should be wider than the
        // operator. For bitwise/select/shift units a narrower operator
        // is the slice/mask idiom (taking the low bits of a wider
        // value, e.g. indexing a table by part of an address) and only
        // rates a note; for arithmetic units it silently drops carries
        // and rates a warning. Mux selects and shift amounts are
        // control inputs; comparator/reduction drivers are single-bit.
        if (type == NodeType::Io || type == NodeType::Dff)
            continue;
        const bool arithmetic =
            type == NodeType::Add || type == NodeType::Mul ||
            type == NodeType::Div || type == NodeType::Mod;
        const auto &preds = graph.predecessors(id);
        for (size_t slot = 0; slot < preds.size(); ++slot) {
            if (type == NodeType::Mux && slot == 0)
                continue;  // select
            if (type == NodeType::Sh && slot == 1)
                continue;  // shift amount
            const int in_width = effectiveOutputWidth(graph, preds[slot]);
            if (in_width <= graph.width(id))
                continue;
            const std::string message =
                "operand " + std::to_string(slot) + " (" +
                nodeLoc(graph, preds[slot]) + ") is wider than the "
                "operator (" + std::to_string(in_width) + " > " +
                std::to_string(graph.width(id)) + ")";
            if (arithmetic) {
                // Warning, not error: quantized datapaths (e.g. a
                // DianNao-style 8-bit adder tree over 32-bit operands)
                // narrow arithmetic deliberately. Verilator's WIDTH
                // check draws the same line. sns_lint --werror
                // promotes it.
                report.warning(rules::kGraphWidth, designLoc(graph, id),
                               message + "; the upper result bits are "
                               "silently dropped",
                               "widen the operator to the widest "
                               "operand (§3.1)");
            } else {
                report.note(rules::kGraphWidth, designLoc(graph, id),
                            message + " (slice/mask idiom if "
                            "intentional)");
            }
        }
    }
}

void
checkLiveness(const Graph &graph, Report &report)
{
    const size_t n = graph.numNodes();
    // Forward reachability from sources (input ports, registers);
    // backward reachability from sinks (output ports, registers).
    std::vector<char> fwd(n, 0);
    std::vector<char> bwd(n, 0);
    std::vector<NodeId> queue;

    for (NodeId id = 0; id < n; ++id) {
        const bool is_endpoint = graphir::isPathEndpoint(graph.type(id));
        if (is_endpoint || graph.predecessors(id).empty()) {
            fwd[id] = 1;
            queue.push_back(id);
        }
    }
    for (size_t cursor = 0; cursor < queue.size(); ++cursor) {
        for (NodeId next : graph.successors(queue[cursor])) {
            if (!fwd[next]) {
                fwd[next] = 1;
                queue.push_back(next);
            }
        }
    }

    queue.clear();
    for (NodeId id = 0; id < n; ++id) {
        if (graphir::isPathEndpoint(graph.type(id))) {
            bwd[id] = 1;
            queue.push_back(id);
        }
    }
    for (size_t cursor = 0; cursor < queue.size(); ++cursor) {
        for (NodeId prev : graph.predecessors(queue[cursor])) {
            if (!bwd[prev]) {
                bwd[prev] = 1;
                queue.push_back(prev);
            }
        }
    }

    for (NodeId id = 0; id < n; ++id) {
        if (graphir::isPathEndpoint(graph.type(id)))
            continue;
        if (!fwd[id]) {
            report.warning(rules::kGraphUnreachable, designLoc(graph, id),
                           "not reachable from any port or register");
        } else if (!bwd[id]) {
            report.warning(rules::kGraphDeadCode, designLoc(graph, id),
                           "result never reaches a port or register "
                           "(dead logic)",
                           "consume the value or delete the cone");
        }
    }
}

void
checkRegisters(const Graph &graph, Report &report)
{
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        if (graph.type(id) != NodeType::Dff)
            continue;
        const auto &preds = graph.predecessors(id);
        const auto &succs = graph.successors(id);
        if (preds.empty() && succs.empty()) {
            report.warning(rules::kGraphRegister, designLoc(graph, id),
                           "floating register (no driver, no reader)");
            continue;
        }
        const bool self_driven =
            preds.size() == 1 && preds.front() == id;
        const bool self_read =
            !succs.empty() &&
            std::all_of(succs.begin(), succs.end(),
                        [id](NodeId s) { return s == id; });
        if (self_driven && self_read) {
            report.warning(rules::kGraphRegister, designLoc(graph, id),
                           "register only feeds itself (degenerate "
                           "self-loop)");
        }
        if (preds.empty()) {
            report.note(rules::kGraphRegister, designLoc(graph, id),
                        "constant register (no next-state driver)");
        }
        const double activity = graph.activity(id);
        if (!(activity >= 0.0 && activity <= 1.0)) {
            report.error(rules::kGraphActivity, designLoc(graph, id),
                         "activity coefficient out of [0, 1]");
        }
    }
}

GraphAnalyzer::GraphAnalyzer() : checkers_(defaultCheckers())
{
}

std::vector<GraphChecker>
GraphAnalyzer::defaultCheckers()
{
    return {
        {"structure",
         "edge range, width/token/activity consistency, combinational "
         "cycles (Graph::validate)",
         checkStructure},
        {"drivers", "multi-driven and dangling nets", checkDrivers},
        {"widths", "§3.1 operator width rule", checkWidths},
        {"liveness", "dead logic and unreachable vertices",
         checkLiveness},
        {"registers", "floating / degenerate registers", checkRegisters},
    };
}

void
GraphAnalyzer::addChecker(GraphChecker checker)
{
    checkers_.push_back(std::move(checker));
}

void
GraphAnalyzer::disableChecker(const std::string &name)
{
    checkers_.erase(
        std::remove_if(checkers_.begin(), checkers_.end(),
                       [&name](const GraphChecker &checker) {
                           return checker.name == name;
                       }),
        checkers_.end());
}

Report
GraphAnalyzer::run(const Graph &graph) const
{
    Report report;
    for (const auto &checker : checkers_)
        checker.run(graph, report);
    return report;
}

Report
checkVocabularyRoundTrip()
{
    Report report;
    const auto &vocab = Vocabulary::instance();
    std::unordered_set<std::string> seen;
    for (TokenId id = 0; id < vocab.circuitSize(); ++id) {
        const std::string name = vocab.tokenString(id);
        if (!seen.insert(name).second) {
            report.error(rules::kVocabRoundTrip, "vocabulary",
                         "duplicate token name '" + name + "'");
        }
        const auto parsed = vocab.parse(name);
        if (!parsed || *parsed != id) {
            report.error(rules::kVocabRoundTrip, "vocabulary",
                         "token '" + name +
                             "' does not round-trip through parse()");
            continue;
        }
        const NodeType type = vocab.tokenType(id);
        const int width = vocab.tokenWidth(id);
        if (vocab.tokenId(type, width) != id) {
            report.error(rules::kVocabRoundTrip, "vocabulary",
                         "token '" + name +
                             "' does not round-trip through tokenId()");
        }
        if (graphir::roundWidth(type, width) != width) {
            report.error(rules::kVocabRoundTrip, "vocabulary",
                         "token '" + name +
                             "' has a width outside the legal set");
        }
    }
    return report;
}

Report
checkPath(const std::vector<TokenId> &tokens, size_t max_length,
          const std::string &where)
{
    Report report;
    const auto &vocab = Vocabulary::instance();
    if (tokens.size() < 2) {
        report.error(rules::kPathShort, where,
                     "path has " + std::to_string(tokens.size()) +
                         " token(s); a complete path needs at least "
                         "launch and capture endpoints");
        return report;
    }
    if (tokens.size() > max_length) {
        report.error(rules::kPathLong, where,
                     "path has " + std::to_string(tokens.size()) +
                         " tokens, over the model limit of " +
                         std::to_string(max_length));
    }
    bool all_in_vocab = true;
    for (size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i] < 0 || tokens[i] >= vocab.circuitSize()) {
            report.error(rules::kPathOutOfVocab,
                         where + ", position " + std::to_string(i),
                         "token id " + std::to_string(tokens[i]) +
                             " is outside the circuit vocabulary [0, " +
                             std::to_string(vocab.circuitSize()) + ")");
            all_in_vocab = false;
        }
    }
    if (!all_in_vocab)
        return report;
    if (!vocab.isEndpointToken(tokens.front())) {
        report.error(rules::kPathEndpoint, where,
                     "path launches from non-endpoint token '" +
                         vocab.tokenString(tokens.front()) + "'",
                     "complete paths start on io/dff (§3.2)");
    }
    if (!vocab.isEndpointToken(tokens.back())) {
        report.error(rules::kPathEndpoint, where,
                     "path captures on non-endpoint token '" +
                         vocab.tokenString(tokens.back()) + "'",
                     "complete paths end on io/dff (§3.2)");
    }
    for (size_t i = 1; i + 1 < tokens.size(); ++i) {
        if (vocab.isEndpointToken(tokens[i])) {
            report.error(rules::kPathInterior,
                         where + ", position " + std::to_string(i),
                         "endpoint token '" +
                             vocab.tokenString(tokens[i]) +
                             "' inside the path",
                         "a path ends at the first endpoint it meets");
        }
    }
    return report;
}

Report
checkLabels(double timing_ps, double area_um2, double power_mw,
            const std::string &where)
{
    Report report;
    const auto finite = [](double v) { return std::isfinite(v); };
    if (!finite(timing_ps) || !finite(area_um2) || !finite(power_mw)) {
        report.error(rules::kLabelNotFinite, where,
                     "label tuple contains NaN/Inf (timing=" +
                         std::to_string(timing_ps) + ", area=" +
                         std::to_string(area_um2) + ", power=" +
                         std::to_string(power_mw) + ")",
                     "drop the record or re-synthesize the path");
        return report;
    }
    if (timing_ps <= 0.0) {
        report.warning(rules::kLabelRange, where,
                       "non-positive timing label (" +
                           std::to_string(timing_ps) + " ps)");
    }
    if (area_um2 < 0.0 || power_mw < 0.0) {
        report.warning(rules::kLabelRange, where,
                       "negative area/power label");
    }
    return report;
}

Report
checkSplit(const std::vector<std::string> &train_names,
           const std::vector<std::string> &test_names)
{
    Report report;
    // FNV-1a over the name: collisions are astronomically unlikely at
    // dataset scale and the hash keeps huge splits allocation-light.
    const auto hash = [](const std::string &name) {
        return fnv1a(name.data(), name.size());
    };
    std::unordered_map<uint64_t, const std::string *> train_set;
    train_set.reserve(train_names.size());
    for (const auto &name : train_names)
        train_set.emplace(hash(name), &name);
    for (const auto &name : test_names) {
        const auto it = train_set.find(hash(name));
        if (it != train_set.end()) {
            report.error(rules::kSplitLeakage, name,
                         "design family present in both train and test "
                         "splits",
                         "keep all variants of one base on one side "
                         "(§4.1)");
        }
    }
    return report;
}

Report
lintPathDatasetFile(const std::string &path)
{
    Report report;
    std::ifstream in(path);
    if (!in) {
        report.error(rules::kDatasetSyntax, path, "cannot open file");
        return report;
    }
    const auto &vocab = Vocabulary::instance();
    std::string line;
    int line_no = 0;
    size_t records = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto hash_pos = line.find('#');
        if (hash_pos != std::string::npos)
            line = line.substr(0, hash_pos);
        std::istringstream fields(line);
        std::string field;
        std::vector<TokenId> tokens;
        bool in_labels = false;
        std::vector<double> labels;
        bool bad_line = false;
        const std::string where =
            path + ":" + std::to_string(line_no);
        while (fields >> field) {
            if (field == ";") {
                in_labels = true;
                continue;
            }
            if (!in_labels) {
                const auto token = vocab.parse(field);
                if (!token) {
                    report.error(rules::kPathOutOfVocab, where,
                                 "'" + field + "' is not a circuit "
                                 "vocabulary token");
                    bad_line = true;
                    // Keep a placeholder so position counts line up.
                    tokens.push_back(-1);
                } else {
                    tokens.push_back(*token);
                }
                continue;
            }
            try {
                labels.push_back(std::stod(field));
            } catch (const std::exception &) {
                report.error(rules::kDatasetSyntax, where,
                             "'" + field + "' is not a number");
                bad_line = true;
            }
        }
        if (tokens.empty() && labels.empty())
            continue;  // blank/comment line
        ++records;
        if (!in_labels || labels.size() != 3) {
            report.error(rules::kDatasetSyntax, where,
                         "expected 'tokens ; timing area power'");
            continue;
        }
        if (!bad_line)
            report.merge(checkPath(tokens, 512, where));
        report.merge(checkLabels(labels[0], labels[1], labels[2], where));
    }
    if (records == 0) {
        report.warning(rules::kDatasetSyntax, path,
                       "no records found in dataset file");
    }
    return report;
}

Report
checkSynthesisResult(double timing_ps, double area_um2, double power_mw,
                     double gate_count, const std::string &where)
{
    Report report;
    const auto bad = [](double v) { return !std::isfinite(v) || v < 0.0; };
    if (bad(timing_ps) || bad(area_um2) || bad(power_mw) ||
        bad(gate_count)) {
        report.error(rules::kSynthResult, where,
                     "synthesis result is not finite and non-negative "
                     "(timing=" + std::to_string(timing_ps) +
                         ", area=" + std::to_string(area_um2) +
                         ", power=" + std::to_string(power_mw) +
                         ", gates=" + std::to_string(gate_count) + ")");
    }
    return report;
}

namespace {

/** The sns::dist shard producer tag; payloads opening with it carry
 * the self-describing ShardMeta block linted below. Duplicated from
 * dist/shard.hh on purpose — sns_verify stays a leaf library; the
 * test_dist round trip pins the two copies together. */
constexpr const char *kShardProducerTag = "sns-dist-trainer-v1";

/**
 * C-SHARD-* lint of a shard checkpoint's payload prefix. Quietly
 * returns when the payload does not announce the shard producer
 * (other SNSC containers are not shards).
 */
void
checkShardPayload(Report &report, const std::string &payload,
                  const std::string &path)
{
    const size_t tag_len = std::strlen(kShardProducerTag);
    uint64_t str_len = 0;
    if (payload.size() < sizeof(str_len))
        return;
    std::memcpy(&str_len, payload.data(), sizeof(str_len));
    if (str_len != tag_len || payload.size() < sizeof(str_len) + tag_len ||
        std::memcmp(payload.data() + sizeof(str_len), kShardProducerTag,
                    tag_len) != 0)
        return; // not a shard payload

    // After the producer string: u32 layout, then 6 x u32, 2 x u64,
    // 2 x i64 (dist::ShardMeta). 24 header bytes precede the payload
    // in the file, hence the atByte offsets.
    size_t pos = sizeof(str_len) + tag_len;
    constexpr size_t kMetaBytes = 4 + 6 * 4 + 2 * 8 + 2 * 8;
    if (payload.size() < pos + kMetaBytes) {
        report.error(
            rules::kShardTruncated, atByte(path, 24 + pos, "shard meta"),
            "payload ends inside the shard meta block (" +
                std::to_string(payload.size() - pos) + " of " +
                std::to_string(kMetaBytes) + " bytes)",
            "the shard is unusable; resume from an older complete set");
        return;
    }
    const auto u32at = [&](size_t offset) {
        uint32_t value = 0;
        std::memcpy(&value, payload.data() + pos + offset, sizeof(value));
        return value;
    };
    const auto i64at = [&](size_t offset) {
        int64_t value = 0;
        std::memcpy(&value, payload.data() + pos + offset, sizeof(value));
        return value;
    };
    const uint32_t layout = u32at(0);
    const uint32_t world = u32at(4);
    const uint32_t rank = u32at(8);
    const uint32_t grad_slices = u32at(12);
    const uint32_t param_count = u32at(16);
    const uint32_t owned_begin = u32at(20);
    const uint32_t owned_end = u32at(24);
    const int64_t completed_epoch = i64at(44);
    const int64_t total_epochs = i64at(52);

    if (layout != 1) {
        report.error(rules::kShardMeta, atByte(path, 24 + pos, "layout"),
                     "unsupported shard layout version " +
                         std::to_string(layout) + " (expected 1)");
        return; // later fields may have moved
    }
    const auto powerOfTwo = [](uint32_t v) {
        return v > 0 && (v & (v - 1)) == 0;
    };
    if (!powerOfTwo(world)) {
        report.error(rules::kShardMeta, atByte(path, 24 + pos + 4, "world"),
                     "world size " + std::to_string(world) +
                         " is not a positive power of two");
    } else if (rank >= world) {
        report.error(rules::kShardMeta, atByte(path, 24 + pos + 8, "rank"),
                     "rank " + std::to_string(rank) + " outside world " +
                         std::to_string(world));
    }
    if (!powerOfTwo(grad_slices) ||
        (powerOfTwo(world) && grad_slices % world != 0)) {
        report.error(rules::kShardMeta,
                     atByte(path, 24 + pos + 12, "grad_slices"),
                     "grad_slices " + std::to_string(grad_slices) +
                         " is not a power of two divisible by world " +
                         std::to_string(world));
    }
    if (owned_begin > owned_end || owned_end > param_count) {
        report.error(rules::kShardMeta,
                     atByte(path, 24 + pos + 20, "owned range"),
                     "owned range [" + std::to_string(owned_begin) +
                         ", " + std::to_string(owned_end) +
                         ") outside the " + std::to_string(param_count) +
                         " parameter tensors");
    }
    if (total_epochs <= 0 || completed_epoch < 0 ||
        completed_epoch >= total_epochs) {
        report.error(rules::kShardMeta,
                     atByte(path, 24 + pos + 44, "epoch counters"),
                     "completed epoch " + std::to_string(completed_epoch) +
                         " of " + std::to_string(total_epochs) +
                         " is out of range");
    }

    // The file name is the set-discovery key; it must agree with the
    // payload, or resume would merge the wrong shards.
    const std::string name = std::filesystem::path(path).filename().string();
    int f_epoch = 0;
    int f_rank = 0;
    int f_world = 0;
    char tail = '\0';
    if (std::sscanf(name.c_str(), "ckpt-%6d-r%2dof%2d.ckpt%c", &f_epoch,
                    &f_rank, &f_world, &tail) == 3) {
        if (static_cast<uint32_t>(f_rank) != rank ||
            static_cast<uint32_t>(f_world) != world ||
            static_cast<int64_t>(f_epoch) != completed_epoch) {
            report.error(
                rules::kShardMeta, atByte(path, 24 + pos, "shard meta"),
                "file name says epoch " + std::to_string(f_epoch) +
                    " rank " + std::to_string(f_rank) + "/" +
                    std::to_string(f_world) + " but the meta says epoch " +
                    std::to_string(completed_epoch) + " rank " +
                    std::to_string(rank) + "/" + std::to_string(world),
                "the file was renamed; restore the committed name");
        }
    }
}

} // namespace

Report
checkCheckpointFile(const std::string &path)
{
    // The SNSC header layout, duplicated from nn/serialize.hh on
    // purpose: sns_verify stays a leaf library (graphir only), and a
    // round-trip test pins the two copies together against drift.
    constexpr char kMagic[4] = {'S', 'N', 'S', 'C'};
    constexpr uint32_t kVersion = 1;

    Report report;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        report.error(rules::kCheckpointOpen, path,
                     "cannot open checkpoint file");
        return report;
    }

    char magic[4] = {};
    in.read(magic, sizeof(magic));
    if (!in) {
        report.error(rules::kCheckpointTruncated, atByte(path, 0, "magic"),
                     "file shorter than the 24-byte SNSC header",
                     "the checkpoint write was interrupted before the "
                     "atomic rename; delete the file");
        return report;
    }
    if (!std::equal(magic, magic + 4, kMagic)) {
        report.error(rules::kCheckpointMagic, atByte(path, 0, "magic"),
                     "bad container magic (expected \"SNSC\")",
                     "this is not a training checkpoint");
        return report;
    }

    uint32_t version = 0;
    uint64_t length = 0;
    uint64_t expected_hash = 0;
    in.read(reinterpret_cast<char *>(&version), sizeof(version));
    in.read(reinterpret_cast<char *>(&length), sizeof(length));
    in.read(reinterpret_cast<char *>(&expected_hash),
            sizeof(expected_hash));
    if (!in) {
        report.error(rules::kCheckpointTruncated, atByte(path, 4, "header"),
                     "file shorter than the 24-byte SNSC header",
                     "the checkpoint write was interrupted before the "
                     "atomic rename; delete the file");
        return report;
    }
    if (version != kVersion) {
        report.error(rules::kCheckpointVersion, atByte(path, 4, "version"),
                     "unsupported checkpoint version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kVersion) + ")");
        return report;
    }

    std::string payload(length, '\0');
    if (length > 0)
        in.read(payload.data(), static_cast<std::streamsize>(length));
    if (!in || static_cast<uint64_t>(in.gcount()) != length) {
        report.error(
            rules::kCheckpointTruncated, atByte(path, 8, "payload length"),
            "header declares " + std::to_string(length) +
                " payload bytes but the file ends early",
            "resume from an older checkpoint in the same directory");
        return report;
    }
    if (in.peek() != std::char_traits<char>::eof()) {
        report.warning(rules::kCheckpointTruncated,
                       atByte(path, 24 + length, "payload tail"),
                       "trailing bytes after the declared payload");
    }

    if (fnv1a(payload.data(), payload.size()) != expected_hash) {
        report.error(rules::kCheckpointHash,
                     atByte(path, 16, "payload hash"),
                     "payload hash mismatch (file is corrupt)",
                     "resume from an older checkpoint in the same "
                     "directory");
    }
    if (!report.hasErrors())
        checkShardPayload(report, payload, path);
    return report;
}

} // namespace sns::verify
