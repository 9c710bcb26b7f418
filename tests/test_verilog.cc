/**
 * @file
 * Tests for the structural Verilog front-end: lexing (comments, sized
 * literals), expression parsing with precedence, elaboration onto the
 * Table-1 vocabulary, sequential semantics (always @(posedge ...)),
 * and error reporting.
 */

#include <gtest/gtest.h>

#include "netlist/verilog_parser.hh"
#include "sampler/path_sampler.hh"
#include "synth/synthesizer.hh"

namespace sns::netlist {
namespace {

using graphir::Graph;
using graphir::NodeId;
using graphir::NodeType;

size_t
countType(const Graph &g, NodeType type)
{
    size_t count = 0;
    for (NodeId id = 0; id < g.numNodes(); ++id)
        count += g.type(id) == type;
    return count;
}

constexpr const char *kMacVerilog = R"(
// The Figure-2 multiply-accumulate unit, in Verilog.
module mac8(input clk, input [7:0] a, input [7:0] b,
            output [15:0] out);
  wire [15:0] product;
  reg  [15:0] acc;
  assign product = a * b;           /* NFU-style MAC */
  always @(posedge clk)
    acc <= acc + product;
  assign out = acc;
endmodule
)";

TEST(VerilogTest, ParsesTheMacExample)
{
    const Graph g = parseVerilog(kMacVerilog);
    EXPECT_EQ(g.name(), "mac8");
    EXPECT_EQ(countType(g, NodeType::Mul), 1u);
    EXPECT_EQ(countType(g, NodeType::Add), 1u);
    EXPECT_EQ(countType(g, NodeType::Dff), 1u);
    // Two data inputs + one output; clk is not a datapath vertex.
    EXPECT_EQ(countType(g, NodeType::Io), 3u);
    EXPECT_NO_THROW(g.validate());
}

TEST(VerilogTest, MacMatchesSnlStructure)
{
    // The Verilog MAC and the canonical Figure-2 graph sample the same
    // four complete circuit paths.
    const Graph g = parseVerilog(kMacVerilog);
    sampler::SamplerOptions opts;
    opts.k = 1.0;
    opts.max_paths_per_source = 1000;
    opts.max_total_paths = 1000;
    const auto paths = sampler::PathSampler(opts).sample(g);
    EXPECT_EQ(paths.size(), 4u);
}

TEST(VerilogTest, OperatorPrecedence)
{
    // a + b * c must multiply first: the adder consumes the multiplier.
    const Graph g = parseVerilog(R"(
module prec(input [7:0] a, input [7:0] b, input [7:0] c,
            output [15:0] y);
  assign y = a + b * c;
endmodule
)");
    const NodeId mul = [&] {
        for (NodeId id = 0; id < g.numNodes(); ++id) {
            if (g.type(id) == NodeType::Mul)
                return id;
        }
        return graphir::kInvalidNode;
    }();
    ASSERT_NE(mul, graphir::kInvalidNode);
    ASSERT_EQ(g.successors(mul).size(), 1u);
    EXPECT_EQ(g.type(g.successors(mul)[0]), NodeType::Add);
}

TEST(VerilogTest, ParenthesesOverridePrecedence)
{
    const Graph g = parseVerilog(R"(
module prec2(input [7:0] a, input [7:0] b, input [7:0] c,
             output [15:0] y);
  assign y = (a + b) * c;
endmodule
)");
    const NodeId add = [&] {
        for (NodeId id = 0; id < g.numNodes(); ++id) {
            if (g.type(id) == NodeType::Add)
                return id;
        }
        return graphir::kInvalidNode;
    }();
    ASSERT_NE(add, graphir::kInvalidNode);
    ASSERT_EQ(g.successors(add).size(), 1u);
    EXPECT_EQ(g.type(g.successors(add)[0]), NodeType::Mul);
}

TEST(VerilogTest, TernaryBecomesMux)
{
    const Graph g = parseVerilog(R"(
module pick(input [7:0] s, input [7:0] a, input [7:0] b,
            output [7:0] y);
  assign y = s > a ? a : b;
endmodule
)");
    EXPECT_EQ(countType(g, NodeType::Mux), 1u);
    EXPECT_EQ(countType(g, NodeType::Lgt), 1u);
}

TEST(VerilogTest, UnaryOperatorsAndReductions)
{
    const Graph g = parseVerilog(R"(
module unary(input [15:0] a, output [15:0] inv, output par,
             output [15:0] neg);
  assign inv = ~a;
  assign par = ^a;
  assign neg = -a;
endmodule
)");
    // "~" -> Not; "^a" -> ReduceXor; "-a" -> Not + Add (two's
    // complement).
    EXPECT_EQ(countType(g, NodeType::Not), 2u);
    EXPECT_EQ(countType(g, NodeType::ReduceXor), 1u);
    EXPECT_EQ(countType(g, NodeType::Add), 1u);
}

TEST(VerilogTest, ConstantsAreTieOffs)
{
    // "+ 1" is an incrementer with one wired input; "8'hff &" is a
    // masker.
    const Graph g = parseVerilog(R"(
module tie(input clk, input [7:0] a, output [7:0] y);
  reg [7:0] count;
  always @(posedge clk) count <= count + 1;
  assign y = a & 8'hff;
endmodule
)");
    const NodeId add = [&] {
        for (NodeId id = 0; id < g.numNodes(); ++id) {
            if (g.type(id) == NodeType::Add)
                return id;
        }
        return graphir::kInvalidNode;
    }();
    ASSERT_NE(add, graphir::kInvalidNode);
    EXPECT_EQ(g.predecessors(add).size(), 1u) << "constant not wired";
    EXPECT_EQ(countType(g, NodeType::And), 1u);
}

TEST(VerilogTest, WidthsComeFromDeclarationsAndOperands)
{
    const Graph g = parseVerilog(R"(
module widths(input [11:0] a, input [11:0] b, output [23:0] y);
  assign y = a * b;
endmodule
)");
    const NodeId mul = [&] {
        for (NodeId id = 0; id < g.numNodes(); ++id) {
            if (g.type(id) == NodeType::Mul)
                return id;
        }
        return graphir::kInvalidNode;
    }();
    ASSERT_NE(mul, graphir::kInvalidNode);
    // Raw width is the max of operands (12) and target (24) = 24;
    // the token rounds per §3.1.
    EXPECT_EQ(g.rawWidth(mul), 24);
    EXPECT_EQ(g.width(mul), 32);
}

TEST(VerilogTest, RegisteredOutputGetsDffAndPort)
{
    const Graph g = parseVerilog(R"(
module ro(input clk, input [7:0] a, output [7:0] q);
  always @(posedge clk) q <= a + a;
endmodule
)");
    EXPECT_EQ(countType(g, NodeType::Dff), 1u);
    EXPECT_EQ(countType(g, NodeType::Io), 2u);
}

TEST(VerilogTest, WireChainsResolveThroughForwardReferences)
{
    const Graph g = parseVerilog(R"(
module chain(input [7:0] a, output [7:0] y);
  wire [7:0] second;
  assign y = second + a;
  wire [7:0] first;
  assign second = first ^ a;
  assign first = a << 1;
endmodule
)");
    EXPECT_EQ(countType(g, NodeType::Sh), 1u);
    EXPECT_EQ(countType(g, NodeType::Xor), 1u);
    EXPECT_EQ(countType(g, NodeType::Add), 1u);
}

TEST(VerilogTest, SynthesizesLikeEquivalentBuilderCircuit)
{
    const Graph g = parseVerilog(kMacVerilog);
    synth::SynthesisOptions opts;
    opts.heuristic_noise = 0.0;
    const auto result = synth::Synthesizer(opts).run(g);
    EXPECT_GT(result.area_um2, 0.0);
    EXPECT_GT(result.timing_ps, 0.0);
}

TEST(VerilogErrors, ReportLinesAndReasons)
{
    auto expectError = [](const char *src, const char *needle) {
        try {
            parseVerilog(src);
            FAIL() << "expected VerilogError containing '" << needle
                   << "'";
        } catch (const VerilogError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
            EXPECT_GT(e.line(), 0);
        }
    };

    expectError("module m(input a); assign b = a; endmodule",
                "undeclared");
    expectError("module m(input a, output y); endmodule",
                "never assigned");
    expectError(
        "module m(input a, output y);\n"
        "  assign y = a;\n  assign y = a;\nendmodule",
        "two drivers");
    expectError(
        "module m(input clk, input a, output y);\n"
        "  wire w;\n  assign w = w + a;\n  assign y = w;\nendmodule",
        "combinational loop");
    expectError("module m(input a, output y); initial y = a; endmodule",
                "unsupported construct");
    expectError(
        "module m(input a, output y); assign y = 1 + 2; endmodule",
        "constant-only");
    expectError("module m(inout a); endmodule", "input");
    expectError(
        "module m(input clk, input a, output y);\n"
        "  wire w;\n  always @(posedge clk) w <= a;\n"
        "  assign y = w;\nendmodule",
        "non-blocking assignment to a non-reg");
}

TEST(VerilogErrors, IdentifierErrorsNameTheReadingAssignment)
{
    // An undeclared or undriven identifier is reported together with
    // the net whose assignment reads it.
    auto message = [](const char *src) {
        try {
            parseVerilog(src);
        } catch (const VerilogError &e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    EXPECT_NE(message("module m(input a, output y);\n"
                      "  assign y = a & b;\nendmodule")
                  .find("use of undeclared 'b' in the assignment to 'y'"),
              std::string::npos);
    // The wire is read while elaborating y through the wire w.
    EXPECT_NE(message("module m(input a, output y);\n"
                      "  wire w;\n  wire u;\n"
                      "  assign w = a + u;\n  assign y = w;\nendmodule")
                  .find("'u' is never assigned but the assignment to "
                        "'w' reads it"),
              std::string::npos);
}

TEST(VerilogErrors, MalformedInputNeverCrashes)
{
    // Mutation fuzz: random slices and splices of a valid module must
    // either parse or throw VerilogError — never crash or hang.
    const std::string base = kMacVerilog;
    sns::Rng rng(321);
    int parsed_ok = 0;
    for (int trial = 0; trial < 300; ++trial) {
        std::string mutated = base;
        const int edits = 1 + static_cast<int>(rng.uniformInt(3ull));
        for (int e = 0; e < edits; ++e) {
            const size_t pos = rng.uniformInt(mutated.size());
            switch (rng.uniformInt(3ull)) {
              case 0: // delete a span
                mutated.erase(pos, rng.uniformInt(8ull));
                break;
              case 1: // duplicate a span
                mutated.insert(pos,
                               mutated.substr(pos, rng.uniformInt(8ull)));
                break;
              default: // corrupt a character
                if (pos < mutated.size())
                    mutated[pos] = "();=<>*+"[rng.uniformInt(8ull)];
                break;
            }
        }
        try {
            parseVerilog(mutated);
            ++parsed_ok;
        } catch (const VerilogError &) {
            // expected for most mutations
        } catch (const std::logic_error &) {
            // graph-level validation may also reject; acceptable
        }
    }
    // Sanity: some mutations (e.g. comment edits) still parse.
    EXPECT_GE(parsed_ok, 0);
}

TEST(VerilogTest, RealisticAluModule)
{
    const Graph g = parseVerilog(R"(
// A small ALU with a registered result, exercising most operators.
module alu(input clk, input [31:0] a, input [31:0] b,
           input [3:0] op, output [31:0] q);
  wire [31:0] sum;
  wire [31:0] diff;
  wire [31:0] prod;
  wire [31:0] sh;
  wire eqf;
  wire [31:0] picked;
  assign sum  = a + b;
  assign diff = a - b;
  assign prod = a * b;
  assign sh   = a << b;
  assign eqf  = a == b;
  assign picked = op > 4'h7 ? (eqf ? sum : diff) : (prod | sh);
  always @(posedge clk) q <= picked;
endmodule
)");
    EXPECT_NO_THROW(g.validate());
    EXPECT_EQ(countType(g, NodeType::Add), 2u);
    EXPECT_EQ(countType(g, NodeType::Mul), 1u);
    EXPECT_EQ(countType(g, NodeType::Mux), 2u);
    EXPECT_EQ(countType(g, NodeType::Dff), 1u);
    // Paths exist from inputs to the registered output.
    sampler::SamplerOptions opts;
    const auto paths = sampler::PathSampler(opts).sample(g);
    EXPECT_FALSE(paths.empty());
}

} // namespace
} // namespace sns::netlist
