#include "netlist/snl_parser.hh"

#include <fstream>
#include <sstream>
#include <unordered_map>

#include "util/logging.hh"
#include "util/string_utils.hh"
#include "verify/analyzer.hh"

namespace sns::netlist {

using graphir::Graph;
using graphir::NodeId;
using graphir::NodeType;

SnlError::SnlError(int line, const std::string &message)
    : std::runtime_error("SNL line " + std::to_string(line) + ": " + message),
      line_(line)
{
}

namespace {

struct Statement
{
    int line;
    std::string kind;     // input / output / node / reg
    std::string id;
    NodeType type;
    int width;
    std::vector<std::string> sources;
    std::string module; // enclosing `module` scope ("" = default)
};

int
parseWidth(int line, const std::string &text)
{
    try {
        size_t pos = 0;
        const int width = std::stoi(text, &pos);
        if (pos != text.size() || width <= 0)
            throw SnlError(line, "bad width '" + text + "'");
        return width;
    } catch (const std::invalid_argument &) {
        throw SnlError(line, "bad width '" + text + "'");
    } catch (const std::out_of_range &) {
        throw SnlError(line, "width out of range '" + text + "'");
    }
}

} // namespace

Graph
parseSnl(const std::string &source)
{
    std::istringstream stream(source);
    std::string line_text;
    int line_no = 0;

    std::string design_name;
    std::string module_scope;
    std::vector<Statement> statements;

    // Pass 1: parse statements.
    while (std::getline(stream, line_text)) {
        ++line_no;
        const auto hash = line_text.find('#');
        if (hash != std::string::npos)
            line_text.erase(hash);
        const auto fields = splitWhitespace(line_text);
        if (fields.empty())
            continue;

        const std::string &kind = fields[0];
        if (kind == "design") {
            if (fields.size() != 2)
                throw SnlError(line_no, "design needs exactly one name");
            design_name = fields[1];
            continue;
        }
        if (kind == "module") {
            if (fields.size() > 2)
                throw SnlError(line_no, "module takes at most one name");
            module_scope = fields.size() == 2 ? fields[1] : "";
            continue;
        }

        Statement stmt;
        stmt.line = line_no;
        stmt.kind = kind;
        stmt.module = module_scope;
        if (kind == "input") {
            if (fields.size() != 3)
                throw SnlError(line_no, "input needs <id> <width>");
            stmt.id = fields[1];
            stmt.type = NodeType::Io;
            stmt.width = parseWidth(line_no, fields[2]);
        } else if (kind == "output" || kind == "reg") {
            if (fields.size() < 3)
                throw SnlError(line_no, kind + " needs <id> <width> [src...]");
            stmt.id = fields[1];
            stmt.type = kind == "reg" ? NodeType::Dff : NodeType::Io;
            stmt.width = parseWidth(line_no, fields[2]);
            stmt.sources.assign(fields.begin() + 3, fields.end());
        } else if (kind == "node") {
            if (fields.size() < 4)
                throw SnlError(line_no,
                               "node needs <id> <type> <width> [src...]");
            stmt.id = fields[1];
            const auto type = graphir::nodeTypeFromName(fields[2]);
            if (!type)
                throw SnlError(line_no, "unknown node type '" + fields[2] +
                                        "'");
            if (*type == NodeType::Io || *type == NodeType::Dff) {
                throw SnlError(line_no,
                               "use input/output/reg statements for io/dff");
            }
            stmt.type = *type;
            stmt.width = parseWidth(line_no, fields[3]);
            stmt.sources.assign(fields.begin() + 4, fields.end());
        } else {
            throw SnlError(line_no, "unknown statement '" + kind + "'");
        }
        statements.push_back(std::move(stmt));
    }

    if (design_name.empty())
        throw SnlError(line_no, "missing 'design <name>' statement");

    // Pass 2: declare all vertices, then wire sources.
    Graph graph(design_name);
    std::unordered_map<std::string, NodeId> symbols;
    for (const auto &stmt : statements) {
        if (symbols.count(stmt.id)) {
            throw SnlError(stmt.line,
                           "duplicate identifier '" + stmt.id + "'");
        }
        const NodeId id = graph.addNode(stmt.type, stmt.width);
        if (!stmt.module.empty())
            graph.setModule(id, stmt.module);
        symbols[stmt.id] = id;
    }
    for (const auto &stmt : statements) {
        const NodeId target = symbols.at(stmt.id);
        for (const auto &src : stmt.sources) {
            const auto it = symbols.find(src);
            if (it == symbols.end()) {
                throw SnlError(stmt.line,
                               "undefined identifier '" + src + "'");
            }
            graph.addEdge(it->second, target);
        }
    }

    // Static verification at the front-end boundary. Under a lint
    // tool's CollectGuard every finding is gathered; otherwise a
    // structural ERROR (combinational loop, width-rule violation,
    // dangling net, ...) is malformed user input and raises SnlError.
    if (verify::enabled()) {
        auto report = verify::GraphAnalyzer().run(graph);
        if (verify::collecting()) {
            verify::enforce(std::move(report), "snl:" + design_name);
        } else if (report.hasErrors()) {
            throw SnlError(line_no, "design '" + design_name + "': " +
                                        report.summary());
        }
    }
    return graph;
}

Graph
loadSnlFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open SNL file: ", path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parseSnl(buffer.str());
}

std::string
writeSnl(const Graph &graph)
{
    std::ostringstream out;
    out << "design " << graph.name() << "\n";
    auto sym = [](NodeId id) {
        std::string name = "n";
        name += std::to_string(id);
        return name;
    };

    // Declarations in id order; wiring lives on the consumer side, so
    // inputs (no predecessors) need no source list. Module scopes are
    // re-opened whenever the label changes between consecutive ids.
    std::string scope;
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        if (graph.module(id) != scope) {
            scope = graph.module(id);
            out << "module";
            if (!scope.empty())
                out << " " << scope;
            out << "\n";
        }
        const NodeType type = graph.type(id);
        const auto &preds = graph.predecessors(id);
        if (type == NodeType::Io && preds.empty()) {
            out << "input " << sym(id) << " " << graph.rawWidth(id) << "\n";
            continue;
        }
        if (type == NodeType::Io)
            out << "output ";
        else if (type == NodeType::Dff)
            out << "reg ";
        else
            out << "node ";
        out << sym(id) << " ";
        if (type != NodeType::Io && type != NodeType::Dff)
            out << graphir::nodeTypeName(type) << " ";
        out << graph.rawWidth(id);
        for (NodeId src : preds)
            out << " " << sym(src);
        out << "\n";
    }
    return out.str();
}

} // namespace sns::netlist
