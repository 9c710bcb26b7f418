#include "netlist/verilog_parser.hh"

#include <cctype>
#include <fstream>
#include <algorithm>
#include <map>
#include <set>
#include <memory>
#include <sstream>
#include <vector>

#include "util/logging.hh"
#include "verify/analyzer.hh"

namespace sns::netlist {

using graphir::Graph;
using graphir::NodeId;
using graphir::NodeType;

VerilogError::VerilogError(int line, const std::string &message)
    : std::runtime_error("Verilog line " + std::to_string(line) + ": " +
                         message),
      line_(line)
{
}

namespace {

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

enum class TokKind
{
    Ident,
    Number,
    Punct,
    End,
};

struct Token
{
    TokKind kind = TokKind::End;
    std::string text;
    int line = 0;
};

class Lexer
{
  public:
    explicit Lexer(const std::string &source)
    {
        tokenize(source);
        // Errors at end-of-input report the last line, not line 0.
        end_.line = tokens_.empty() ? 1 : tokens_.back().line;
    }

    const Token &peek(size_t ahead = 0) const
    {
        const size_t idx = cursor_ + ahead;
        return idx < tokens_.size() ? tokens_[idx] : end_;
    }

    Token next()
    {
        const Token tok = peek();
        if (cursor_ < tokens_.size())
            ++cursor_;
        return tok;
    }

    bool
    accept(const std::string &text)
    {
        if (peek().text == text && peek().kind != TokKind::End) {
            next();
            return true;
        }
        return false;
    }

    Token
    expect(const std::string &text)
    {
        if (peek().text != text) {
            throw VerilogError(peek().line, "expected '" + text +
                                                "', got '" +
                                                peek().text + "'");
        }
        return next();
    }

    Token
    expectIdent()
    {
        if (peek().kind != TokKind::Ident) {
            throw VerilogError(peek().line, "expected identifier, got '" +
                                                peek().text + "'");
        }
        return next();
    }

    bool done() const { return peek().kind == TokKind::End; }

  private:
    void
    tokenize(const std::string &src)
    {
        int line = 1;
        size_t i = 0;
        const auto n = src.size();
        while (i < n) {
            const char c = src[i];
            if (c == '\n') {
                ++line;
                ++i;
                continue;
            }
            if (std::isspace(static_cast<unsigned char>(c))) {
                ++i;
                continue;
            }
            // Comments.
            if (c == '/' && i + 1 < n && src[i + 1] == '/') {
                while (i < n && src[i] != '\n')
                    ++i;
                continue;
            }
            if (c == '/' && i + 1 < n && src[i + 1] == '*') {
                i += 2;
                while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
                    if (src[i] == '\n')
                        ++line;
                    ++i;
                }
                i = std::min(n, i + 2);
                continue;
            }
            // Identifiers / keywords.
            if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
                size_t j = i;
                while (j < n && (std::isalnum(
                                     static_cast<unsigned char>(src[j])) ||
                                 src[j] == '_' || src[j] == '$')) {
                    ++j;
                }
                tokens_.push_back(
                    {TokKind::Ident, src.substr(i, j - i), line});
                i = j;
                continue;
            }
            // Numbers, including sized literals like 8'hff and '1.
            if (std::isdigit(static_cast<unsigned char>(c)) || c == '\'') {
                size_t j = i;
                while (j < n &&
                       (std::isalnum(
                            static_cast<unsigned char>(src[j])) ||
                        src[j] == '\'' || src[j] == '_')) {
                    ++j;
                }
                tokens_.push_back(
                    {TokKind::Number, src.substr(i, j - i), line});
                i = j;
                continue;
            }
            // Multi-character punctuation.
            static const char *two_char[] = {"<=", ">=", "==", "!=",
                                             "<<", ">>", "&&", "||"};
            bool matched = false;
            for (const char *op : two_char) {
                if (src.compare(i, 2, op) == 0) {
                    tokens_.push_back({TokKind::Punct, op, line});
                    i += 2;
                    matched = true;
                    break;
                }
            }
            if (matched)
                continue;
            tokens_.push_back({TokKind::Punct, std::string(1, c), line});
            ++i;
        }
    }

    std::vector<Token> tokens_;
    Token end_;
    size_t cursor_ = 0;
};

// ---------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------

struct Expr
{
    enum class Kind
    {
        Constant,
        Ident,
        Unary,
        Binary,
        Ternary,
    };

    Kind kind = Kind::Constant;
    int line = 0;
    std::string op;     // operator spelling for Unary/Binary
    std::string ident;  // for Ident
    int const_width = 1;
    std::unique_ptr<Expr> a;
    std::unique_ptr<Expr> b;
    std::unique_ptr<Expr> c;
};

using ExprPtr = std::unique_ptr<Expr>;

struct Net
{
    enum class Kind
    {
        Input,
        Output,
        Wire,
        Reg,
    };

    Kind kind = Kind::Wire;
    int width = 1;
    int line = 0;
    const Expr *driver = nullptr; // for Output/Wire/Reg
    bool registered = false;      // driver comes from an always block
};

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

class Parser
{
  public:
    explicit Parser(Lexer &lex) : lex_(lex) {}

    std::string module_name;
    std::map<std::string, Net> nets;
    std::vector<std::string> port_order;
    std::vector<ExprPtr> owned_exprs;
    std::vector<std::string> clocks;

    void
    parseModule()
    {
        lex_.expect("module");
        module_name = lex_.expectIdent().text;
        lex_.expect("(");
        if (!lex_.accept(")")) {
            parsePortDecl();
            while (lex_.accept(","))
                parsePortDecl();
            lex_.expect(")");
        }
        lex_.expect(";");
        while (!lex_.accept("endmodule")) {
            if (lex_.done()) {
                throw VerilogError(lex_.peek().line,
                                   "missing 'endmodule'");
            }
            parseItem();
        }
    }

  private:
    int
    parseRange()
    {
        // "[msb:lsb]" -> width; absent -> 1.
        if (!lex_.accept("["))
            return 1;
        const int msb = parseIntLiteral();
        lex_.expect(":");
        const int lsb = parseIntLiteral();
        lex_.expect("]");
        if (msb < lsb) {
            throw VerilogError(lex_.peek().line,
                               "descending ranges only ([msb:lsb])");
        }
        return msb - lsb + 1;
    }

    int
    parseIntLiteral()
    {
        const Token tok = lex_.next();
        if (tok.kind != TokKind::Number)
            throw VerilogError(tok.line, "expected number");
        try {
            return std::stoi(tok.text);
        } catch (const std::exception &) {
            throw VerilogError(tok.line, "bad number '" + tok.text + "'");
        }
    }

    void
    declare(const std::string &name, Net net)
    {
        if (nets.count(name)) {
            throw VerilogError(net.line,
                               "duplicate declaration of '" + name + "'");
        }
        nets[name] = net;
    }

    void
    parsePortDecl()
    {
        const Token dir = lex_.expectIdent();
        Net net;
        net.line = dir.line;
        if (dir.text == "input") {
            net.kind = Net::Kind::Input;
        } else if (dir.text == "output") {
            net.kind = Net::Kind::Output;
        } else {
            throw VerilogError(dir.line,
                               "ports must be 'input' or 'output'");
        }
        lex_.accept("wire");
        if (lex_.accept("reg")) {
            if (net.kind != Net::Kind::Output) {
                throw VerilogError(dir.line, "'reg' on an input port");
            }
        }
        net.width = parseRange();
        const std::string name = lex_.expectIdent().text;
        declare(name, net);
        port_order.push_back(name);
    }

    void
    parseItem()
    {
        const Token head = lex_.peek();
        if (head.text == "wire" || head.text == "reg") {
            lex_.next();
            Net net;
            net.kind = head.text == "wire" ? Net::Kind::Wire
                                           : Net::Kind::Reg;
            net.line = head.line;
            net.width = parseRange();
            declare(lex_.expectIdent().text, net);
            while (lex_.accept(","))
                declare(lex_.expectIdent().text, net);
            lex_.expect(";");
            return;
        }
        if (head.text == "assign") {
            lex_.next();
            const Token target = lex_.expectIdent();
            lex_.expect("=");
            ExprPtr expr = parseExpr();
            lex_.expect(";");
            attachDriver(target, std::move(expr), /*registered=*/false);
            return;
        }
        if (head.text == "always") {
            parseAlways();
            return;
        }
        throw VerilogError(head.line,
                           "unsupported construct '" + head.text + "'");
    }

    void
    parseAlways()
    {
        const Token head = lex_.expect("always");
        lex_.expect("@");
        lex_.expect("(");
        lex_.expect("posedge");
        clocks.push_back(lex_.expectIdent().text);
        lex_.expect(")");

        auto parseRegAssign = [this]() {
            const Token target = lex_.expectIdent();
            lex_.expect("<=");
            ExprPtr expr = parseExpr();
            lex_.expect(";");
            attachDriver(target, std::move(expr), /*registered=*/true);
        };

        if (lex_.accept("begin")) {
            while (!lex_.accept("end"))
                parseRegAssign();
        } else {
            parseRegAssign();
        }
        (void)head;
    }

    void
    attachDriver(const Token &target, ExprPtr expr, bool registered)
    {
        const auto it = nets.find(target.text);
        if (it == nets.end()) {
            throw VerilogError(target.line,
                               "assignment to undeclared '" +
                                   target.text + "'");
        }
        Net &net = it->second;
        if (net.driver != nullptr) {
            throw VerilogError(target.line,
                               "'" + target.text + "' has two drivers");
        }
        if (registered && net.kind != Net::Kind::Reg &&
            net.kind != Net::Kind::Output) {
            throw VerilogError(target.line,
                               "non-blocking assignment to a non-reg");
        }
        if (!registered && net.kind == Net::Kind::Reg) {
            throw VerilogError(target.line,
                               "continuous assignment to a reg");
        }
        if (net.kind == Net::Kind::Input) {
            throw VerilogError(target.line, "assignment to an input");
        }
        net.driver = expr.get();
        net.registered = registered;
        owned_exprs.push_back(std::move(expr));
    }

    // Precedence-climbing expression parser.
    ExprPtr
    parseExpr()
    {
        return parseTernary();
    }

    ExprPtr
    parseTernary()
    {
        ExprPtr cond = parseBinary(0);
        if (!lex_.accept("?"))
            return cond;
        ExprPtr then_val = parseExpr();
        lex_.expect(":");
        ExprPtr else_val = parseExpr();
        auto node = std::make_unique<Expr>();
        node->kind = Expr::Kind::Ternary;
        node->line = cond->line;
        node->a = std::move(cond);
        node->b = std::move(then_val);
        node->c = std::move(else_val);
        return node;
    }

    static int
    precedenceOf(const std::string &op)
    {
        if (op == "|" || op == "||")
            return 1;
        if (op == "^")
            return 2;
        if (op == "&" || op == "&&")
            return 3;
        if (op == "==" || op == "!=")
            return 4;
        if (op == "<" || op == ">" || op == "<=" || op == ">=")
            return 5;
        if (op == "<<" || op == ">>")
            return 6;
        if (op == "+" || op == "-")
            return 7;
        if (op == "*" || op == "/" || op == "%")
            return 8;
        return -1;
    }

    ExprPtr
    parseBinary(int min_prec)
    {
        ExprPtr lhs = parseUnary();
        for (;;) {
            const std::string op = lex_.peek().text;
            const int prec = precedenceOf(op);
            if (lex_.peek().kind != TokKind::Punct || prec < min_prec ||
                prec < 0) {
                return lhs;
            }
            // "<=" is ambiguous with non-blocking assignment; inside an
            // expression it is always the comparison.
            lex_.next();
            ExprPtr rhs = parseBinary(prec + 1);
            auto node = std::make_unique<Expr>();
            node->kind = Expr::Kind::Binary;
            node->line = lhs->line;
            node->op = op;
            node->a = std::move(lhs);
            node->b = std::move(rhs);
            lhs = std::move(node);
        }
    }

    ExprPtr
    parseUnary()
    {
        const Token head = lex_.peek();
        if (head.kind == TokKind::Punct &&
            (head.text == "~" || head.text == "-" || head.text == "&" ||
             head.text == "|" || head.text == "^" || head.text == "!")) {
            lex_.next();
            auto node = std::make_unique<Expr>();
            node->kind = Expr::Kind::Unary;
            node->line = head.line;
            node->op = head.text;
            node->a = parseUnary();
            return node;
        }
        return parsePrimary();
    }

    ExprPtr
    parsePrimary()
    {
        const Token head = lex_.next();
        if (head.text == "(") {
            ExprPtr inner = parseExpr();
            lex_.expect(")");
            return inner;
        }
        auto node = std::make_unique<Expr>();
        node->line = head.line;
        if (head.kind == TokKind::Ident) {
            node->kind = Expr::Kind::Ident;
            node->ident = head.text;
            return node;
        }
        if (head.kind == TokKind::Number) {
            node->kind = Expr::Kind::Constant;
            // Sized literal "8'hff" -> width 8; otherwise a small
            // default.
            const auto quote = head.text.find('\'');
            if (quote != std::string::npos && quote > 0) {
                node->const_width = std::stoi(head.text.substr(0, quote));
            } else {
                node->const_width = 8;
            }
            return node;
        }
        throw VerilogError(head.line,
                           "unexpected token '" + head.text + "'");
    }

    Lexer &lex_;
};

// ---------------------------------------------------------------------
// Elaborator
// ---------------------------------------------------------------------

class Elaborator
{
  public:
    explicit Elaborator(Parser &parsed)
        : parsed_(parsed), graph_(parsed.module_name)
    {
    }

    Graph
    run()
    {
        // Clock inputs (used only in sensitivity lists) do not become
        // datapath vertices.
        std::map<std::string, bool> is_clock;
        for (const auto &clk : parsed_.clocks)
            is_clock[clk] = true;

        // Declare sequential boundary vertices up front so feedback
        // resolves: inputs and registers.
        for (auto &[name, net] : parsed_.nets) {
            if (net.kind == Net::Kind::Input && !is_clock.count(name)) {
                nodes_[name] = graph_.addNode(NodeType::Io, net.width);
            } else if (net.kind == Net::Kind::Reg ||
                       (net.kind == Net::Kind::Output &&
                        net.registered)) {
                nodes_[name] = graph_.addNode(NodeType::Dff, net.width);
            }
        }

        // Wire every register and output driver. Wires elaborate on
        // demand (memoized in evalIdent) so shared logic is built once
        // and unused wires — like dead code under synthesis — not at
        // all.
        for (auto &[name, net] : parsed_.nets) {
            if (net.kind == Net::Kind::Input ||
                net.kind == Net::Kind::Wire) {
                continue;
            }
            if (net.driver == nullptr) {
                throw VerilogError(net.line,
                                   "'" + name + "' is never assigned");
            }
            const NodeId source =
                evalExpr(*net.driver, net.width, name);
            if (net.kind == Net::Kind::Reg ||
                (net.kind == Net::Kind::Output && net.registered)) {
                if (source != graphir::kInvalidNode)
                    graph_.addEdge(source, nodes_.at(name));
                if (net.kind == Net::Kind::Output) {
                    // Registered output: the dff also drives a port.
                    const NodeId port =
                        graph_.addNode(NodeType::Io, net.width);
                    graph_.addEdge(nodes_.at(name), port);
                }
            } else if (net.kind == Net::Kind::Output) {
                const NodeId port =
                    graph_.addNode(NodeType::Io, net.width);
                if (source != graphir::kInvalidNode)
                    graph_.addEdge(source, port);
                nodes_[name] = port;
            }
        }

        // Front-end boundary verification (see snl_parser for the
        // policy): collect under a lint tool, raise VerilogError on
        // structural errors otherwise.
        if (verify::enabled()) {
            auto report = verify::GraphAnalyzer().run(graph_);
            if (verify::collecting()) {
                verify::enforce(std::move(report),
                                "verilog:" + graph_.name());
            } else if (report.hasErrors()) {
                throw VerilogError(1, "module '" + graph_.name() +
                                           "': " + report.summary());
            }
        }
        return std::move(graph_);
    }

  private:
    /**
     * Evaluate an expression to a driving vertex. Constants return
     * kInvalidNode (tie-offs have no vertex); operator nodes wire only
     * their non-constant operands.
     */
    NodeId
    evalExpr(const Expr &expr, int width_hint, const std::string &context)
    {
        switch (expr.kind) {
          case Expr::Kind::Constant:
            return graphir::kInvalidNode;
          case Expr::Kind::Ident:
            return evalIdent(expr, context);
          case Expr::Kind::Unary:
            return evalUnary(expr, width_hint, context);
          case Expr::Kind::Binary:
            return evalBinary(expr, width_hint, context);
          case Expr::Kind::Ternary: {
            const NodeId cond = evalExpr(*expr.a, 1, context);
            const NodeId then_val =
                evalExpr(*expr.b, width_hint, context);
            const NodeId else_val =
                evalExpr(*expr.c, width_hint, context);
            const int width = std::max(
                {width_hint, widthOf(then_val), widthOf(else_val)});
            return makeOp(NodeType::Mux, width,
                          {cond, then_val, else_val}, expr.line);
          }
        }
        throw VerilogError(expr.line, "unhandled expression");
    }

    NodeId
    evalIdent(const Expr &expr, const std::string &context)
    {
        const auto node_it = nodes_.find(expr.ident);
        if (node_it != nodes_.end())
            return node_it->second;

        // `context` names the net whose assignment reads the
        // identifier, so a missing declaration or driver points at
        // the assignment that needs it.
        const auto net_it = parsed_.nets.find(expr.ident);
        if (net_it == parsed_.nets.end()) {
            std::string message = "use of undeclared '";
            message += expr.ident;
            message += "' in the assignment to '";
            message += context;
            message += "'";
            throw VerilogError(expr.line, message);
        }
        const Net &net = net_it->second;
        if (net.driver == nullptr) {
            std::string message = "'";
            message += expr.ident;
            message += "' is never assigned but the assignment to '";
            message += context;
            message += "' reads it";
            throw VerilogError(expr.line, message);
        }
        if (in_progress_.count(expr.ident)) {
            throw VerilogError(expr.line,
                               "combinational loop through '" +
                                   expr.ident + "'");
        }
        in_progress_.insert(expr.ident);
        const NodeId node =
            evalExpr(*net.driver, net.width, expr.ident);
        in_progress_.erase(expr.ident);
        if (node == graphir::kInvalidNode) {
            throw VerilogError(expr.line,
                               "'" + expr.ident +
                                   "' reduces to a pure constant");
        }
        nodes_[expr.ident] = node;
        return node;
    }

    NodeId
    evalUnary(const Expr &expr, int width_hint,
              const std::string &context)
    {
        const NodeId operand = evalExpr(*expr.a, width_hint, context);
        if (operand == graphir::kInvalidNode) {
            throw VerilogError(expr.line,
                               "unary operator on a pure constant");
        }
        const int width = std::max(width_hint, widthOf(operand));
        if (expr.op == "~" || expr.op == "!")
            return makeOp(NodeType::Not, width, {operand}, expr.line);
        if (expr.op == "-") {
            // Two's-complement negation: inverter + incrementer.
            const NodeId inverted =
                makeOp(NodeType::Not, width, {operand}, expr.line);
            return makeOp(NodeType::Add, width, {inverted}, expr.line);
        }
        // Reductions collapse to 1 bit; the unit's width is the
        // operand's.
        const int op_width = widthOf(operand);
        if (expr.op == "&") {
            return makeOp(NodeType::ReduceAnd, op_width, {operand},
                          expr.line);
        }
        if (expr.op == "|") {
            return makeOp(NodeType::ReduceOr, op_width, {operand},
                          expr.line);
        }
        if (expr.op == "^") {
            return makeOp(NodeType::ReduceXor, op_width, {operand},
                          expr.line);
        }
        throw VerilogError(expr.line,
                           "unsupported unary operator '" + expr.op +
                               "'");
    }

    NodeId
    evalBinary(const Expr &expr, int width_hint,
               const std::string &context)
    {
        const NodeId lhs = evalExpr(*expr.a, width_hint, context);
        const NodeId rhs = evalExpr(*expr.b, width_hint, context);
        if (lhs == graphir::kInvalidNode &&
            rhs == graphir::kInvalidNode) {
            throw VerilogError(expr.line,
                               "constant-only expressions are not "
                               "synthesizable here");
        }
        const int operand_width = std::max(widthOf(lhs), widthOf(rhs));

        static const std::map<std::string, NodeType> kOps = {
            {"+", NodeType::Add},  {"-", NodeType::Add},
            {"*", NodeType::Mul},  {"/", NodeType::Div},
            {"%", NodeType::Mod},  {"&", NodeType::And},
            {"&&", NodeType::And}, {"|", NodeType::Or},
            {"||", NodeType::Or},  {"^", NodeType::Xor},
            {"<<", NodeType::Sh},  {">>", NodeType::Sh},
            {"==", NodeType::Eq},  {"!=", NodeType::Eq},
            {"<", NodeType::Lgt},  {">", NodeType::Lgt},
            {"<=", NodeType::Lgt}, {">=", NodeType::Lgt},
        };
        const auto it = kOps.find(expr.op);
        if (it == kOps.end()) {
            throw VerilogError(expr.line, "unsupported operator '" +
                                              expr.op + "'");
        }
        const NodeType type = it->second;
        // Comparisons keep their operand width (that is the datapath
        // the comparator processes); arithmetic and logic take the
        // wider of operands and assignment target.
        const bool comparison =
            type == NodeType::Eq || type == NodeType::Lgt;
        const int width = comparison
                              ? operand_width
                              : std::max(operand_width, width_hint);
        std::vector<NodeId> inputs;
        if (lhs != graphir::kInvalidNode)
            inputs.push_back(lhs);
        if (rhs != graphir::kInvalidNode)
            inputs.push_back(rhs);
        return makeOp(type, width, inputs, expr.line);
    }

    NodeId
    makeOp(NodeType type, int width, const std::vector<NodeId> &inputs,
           int line)
    {
        // Clamp degenerate widths (e.g. 1-bit conditions feeding a
        // comparator).
        const int clamped = std::max(width, 1);
        const NodeId id = graph_.addNode(type, clamped);
        for (NodeId input : inputs) {
            if (input != graphir::kInvalidNode)
                graph_.addEdge(input, id);
        }
        (void)line;
        return id;
    }

    int
    widthOf(NodeId id) const
    {
        return id == graphir::kInvalidNode ? 1 : graph_.rawWidth(id);
    }

    Parser &parsed_;
    Graph graph_;
    std::map<std::string, NodeId> nodes_;
    std::set<std::string> in_progress_;
};

} // namespace

Graph
parseVerilog(const std::string &source)
{
    Lexer lexer(source);
    Parser parser(lexer);
    parser.parseModule();
    if (!lexer.done()) {
        throw VerilogError(lexer.peek().line,
                           "trailing content after endmodule (one "
                           "module per file)");
    }
    Elaborator elaborator(parser);
    return elaborator.run();
}

Graph
loadVerilogFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open Verilog file: ", path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parseVerilog(buffer.str());
}

} // namespace sns::netlist
