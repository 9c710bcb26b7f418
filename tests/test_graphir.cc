/**
 * @file
 * Unit tests for the GraphIR layer: node types, the Table-1 width
 * rounding rule, the 79-token vocabulary, and the circuit graph.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "graphir/graph.hh"
#include "graphir/node_type.hh"
#include "graphir/vocabulary.hh"

namespace sns::graphir {
namespace {

TEST(NodeTypeTest, NamesRoundTrip)
{
    for (int t = 0; t < kNumNodeTypes; ++t) {
        const auto type = static_cast<NodeType>(t);
        const auto parsed = nodeTypeFromName(nodeTypeName(type));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, type);
    }
    EXPECT_FALSE(nodeTypeFromName("nonsense").has_value());
}

TEST(NodeTypeTest, MinWidthMatchesTable1)
{
    // Bit-level units go down to width 4; arithmetic units start at 8.
    EXPECT_EQ(minWidth(NodeType::Io), 4);
    EXPECT_EQ(minWidth(NodeType::Dff), 4);
    EXPECT_EQ(minWidth(NodeType::Mux), 4);
    EXPECT_EQ(minWidth(NodeType::ReduceXor), 4);
    EXPECT_EQ(minWidth(NodeType::Add), 8);
    EXPECT_EQ(minWidth(NodeType::Mul), 8);
    EXPECT_EQ(minWidth(NodeType::Div), 8);
    EXPECT_EQ(minWidth(NodeType::Lgt), 8);
}

TEST(NodeTypeTest, RoundWidthPaperExamples)
{
    // §3.1: dividers with widths 12..23 all become div16.
    for (int w = 12; w <= 23; ++w)
        EXPECT_EQ(roundWidth(NodeType::Div, w), 16) << "w=" << w;
    EXPECT_EQ(roundWidth(NodeType::Div, 24), 32);
    EXPECT_EQ(roundWidth(NodeType::Div, 11), 8);
}

TEST(NodeTypeTest, RoundWidthClamps)
{
    EXPECT_EQ(roundWidth(NodeType::Mux, 1), 4);
    EXPECT_EQ(roundWidth(NodeType::Mux, 3), 4);
    EXPECT_EQ(roundWidth(NodeType::Add, 2), 8);
    EXPECT_EQ(roundWidth(NodeType::Add, 100), 64);
    EXPECT_EQ(roundWidth(NodeType::Mux, 4096), 64);
}

TEST(NodeTypeTest, RoundWidthFixedPoints)
{
    for (int w : {4, 8, 16, 32, 64})
        EXPECT_EQ(roundWidth(NodeType::Mux, w), w);
    for (int w : {8, 16, 32, 64})
        EXPECT_EQ(roundWidth(NodeType::Mul, w), w);
}

TEST(NodeTypeTest, TiesRoundUp)
{
    // 6 is equidistant between 4 and 8; the paper's example (12->16)
    // implies ties round up.
    EXPECT_EQ(roundWidth(NodeType::Mux, 6), 8);
    EXPECT_EQ(roundWidth(NodeType::Mux, 12), 16);
    EXPECT_EQ(roundWidth(NodeType::Add, 48), 64);
}

TEST(NodeTypeTest, EndpointTypes)
{
    EXPECT_TRUE(isPathEndpoint(NodeType::Io));
    EXPECT_TRUE(isPathEndpoint(NodeType::Dff));
    EXPECT_FALSE(isPathEndpoint(NodeType::Add));
    EXPECT_FALSE(isPathEndpoint(NodeType::Mux));
}

TEST(VocabularyTest, HasExactly79CircuitTokens)
{
    // Table 2 of the paper: "Vocabulary Set Size: 79".
    EXPECT_EQ(Vocabulary::instance().circuitSize(), 79);
    EXPECT_EQ(Vocabulary::instance().totalSize(), 82);
}

TEST(VocabularyTest, TokensRoundTrip)
{
    const auto &vocab = Vocabulary::instance();
    for (TokenId id = 0; id < vocab.circuitSize(); ++id) {
        const auto type = vocab.tokenType(id);
        const int width = vocab.tokenWidth(id);
        EXPECT_EQ(vocab.tokenId(type, width), id);
        const auto parsed = vocab.parse(vocab.tokenString(id));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, id);
    }
}

TEST(VocabularyTest, SpecialTokensDistinct)
{
    const auto &vocab = Vocabulary::instance();
    EXPECT_EQ(vocab.tokenString(vocab.padId()), "<pad>");
    EXPECT_EQ(vocab.tokenString(vocab.bosId()), "<bos>");
    EXPECT_EQ(vocab.tokenString(vocab.eosId()), "<eos>");
    EXPECT_NE(vocab.padId(), vocab.bosId());
    EXPECT_NE(vocab.bosId(), vocab.eosId());
}

TEST(VocabularyTest, ParseRejectsBadTokens)
{
    const auto &vocab = Vocabulary::instance();
    EXPECT_FALSE(vocab.parse("mul").has_value());
    EXPECT_FALSE(vocab.parse("mul7").has_value());
    EXPECT_FALSE(vocab.parse("mul128").has_value());
    EXPECT_FALSE(vocab.parse("add4").has_value()) << "add starts at 8";
    EXPECT_FALSE(vocab.parse("bogus16").has_value());
    EXPECT_TRUE(vocab.parse("mul16").has_value());
    EXPECT_TRUE(vocab.parse("reduce_xor32").has_value());
}

TEST(VocabularyTest, EndpointTokens)
{
    const auto &vocab = Vocabulary::instance();
    EXPECT_TRUE(vocab.isEndpointToken(*vocab.parse("io8")));
    EXPECT_TRUE(vocab.isEndpointToken(*vocab.parse("dff16")));
    EXPECT_FALSE(vocab.isEndpointToken(*vocab.parse("mul16")));
    EXPECT_FALSE(vocab.isEndpointToken(vocab.padId()));
}

/** Build the Figure-2 multiply-accumulate example. */
Graph
buildMacGraph()
{
    Graph g("mac8");
    const NodeId a = g.addNode(NodeType::Io, 8);
    const NodeId b = g.addNode(NodeType::Io, 8);
    const NodeId m = g.addNode(NodeType::Mul, 16);
    const NodeId s = g.addNode(NodeType::Add, 16);
    const NodeId acc = g.addNode(NodeType::Dff, 16);
    const NodeId out = g.addNode(NodeType::Io, 16);
    g.addEdge(a, m);
    g.addEdge(b, m);
    g.addEdge(m, s);
    g.addEdge(acc, s);
    g.addEdge(s, acc);
    g.addEdge(acc, out);
    return g;
}

TEST(GraphTest, BasicTopology)
{
    const Graph g = buildMacGraph();
    EXPECT_EQ(g.numNodes(), 6u);
    EXPECT_EQ(g.numEdges(), 6u);
    EXPECT_EQ(g.name(), "mac8");
    EXPECT_EQ(g.type(2), NodeType::Mul);
    EXPECT_EQ(g.width(2), 16);
    EXPECT_EQ(g.successors(2).size(), 1u);
    EXPECT_EQ(g.predecessors(3).size(), 2u);
}

TEST(GraphTest, EndpointsAreIoAndDff)
{
    const Graph g = buildMacGraph();
    const auto endpoints = g.endpoints();
    ASSERT_EQ(endpoints.size(), 4u);
    for (NodeId id : endpoints)
        EXPECT_TRUE(g.isEndpoint(id));
}

TEST(GraphTest, TokenCountsMatchFigure2Stats)
{
    const Graph g = buildMacGraph();
    const auto counts = g.tokenCounts();
    const auto &vocab = Vocabulary::instance();
    EXPECT_EQ(counts.size(), size_t(vocab.circuitSize()));
    EXPECT_DOUBLE_EQ(counts[*vocab.parse("io8")], 2.0);
    EXPECT_DOUBLE_EQ(counts[*vocab.parse("mul16")], 1.0);
    EXPECT_DOUBLE_EQ(counts[*vocab.parse("add16")], 1.0);
    EXPECT_DOUBLE_EQ(counts[*vocab.parse("dff16")], 1.0);
    EXPECT_DOUBLE_EQ(counts[*vocab.parse("io16")], 1.0);
    double total = 0.0;
    for (double c : counts)
        total += c;
    EXPECT_DOUBLE_EQ(total, 6.0);
}

TEST(GraphTest, WidthRoundingAppliedOnInsert)
{
    Graph g("widths");
    const NodeId n = g.addNode(NodeType::Mul, 17);
    EXPECT_EQ(g.rawWidth(n), 17);
    EXPECT_EQ(g.width(n), 16);
}

TEST(GraphTest, RegisterFeedbackIsNotACombinationalLoop)
{
    const Graph g = buildMacGraph();
    EXPECT_TRUE(g.combinationallyAcyclic());
    EXPECT_TRUE(g.findCombinationalCycle().empty());
    EXPECT_FALSE(g.validate().hasErrors());
}

TEST(GraphTest, CombinationalLoopDetected)
{
    Graph g("comb_loop");
    const NodeId x = g.addNode(NodeType::Add, 8);
    const NodeId y = g.addNode(NodeType::And, 8);
    g.addEdge(x, y);
    g.addEdge(y, x);
    EXPECT_FALSE(g.combinationallyAcyclic());
    const auto cycle = g.findCombinationalCycle();
    EXPECT_EQ(cycle.size(), 2u);
    const auto report = g.validate();
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(report.hasRule(verify::rules::kGraphCycle));
}

TEST(GraphTest, TopoOrderRespectsCombinationalEdges)
{
    const Graph g = buildMacGraph();
    const auto order = g.combinationalTopoOrder();
    EXPECT_EQ(order.size(), g.numNodes());
    std::vector<size_t> position(g.numNodes());
    for (size_t i = 0; i < order.size(); ++i)
        position[order[i]] = i;
    for (NodeId from = 0; from < g.numNodes(); ++from) {
        if (isSequential(g.type(from)))
            continue;
        // Every combinational producer precedes its combinational
        // consumers.
        for (NodeId to : g.successors(from)) {
            if (!isSequential(g.type(to))) {
                EXPECT_LT(position[from], position[to]);
            }
        }
    }
}

TEST(GraphTest, TopoOrderScratchFormOverwritesItsBuffers)
{
    // Buffers left over from a larger design give the same order.
    const Graph g = buildMacGraph();
    std::vector<NodeId> order(3 * g.numNodes(), 7);
    std::vector<uint32_t> indegree(3 * g.numNodes(), 9);
    g.combinationalTopoOrder(order, indegree);
    EXPECT_EQ(order, g.combinationalTopoOrder());
}

TEST(GraphTest, ActivityDefaultsAndClamps)
{
    Graph g("act");
    const NodeId d = g.addNode(NodeType::Dff, 8);
    EXPECT_DOUBLE_EQ(g.activity(d), 1.0);
    g.setActivity(d, 0.25);
    EXPECT_DOUBLE_EQ(g.activity(d), 0.25);
    EXPECT_THROW(g.setActivity(d, 1.5), std::logic_error);
}

TEST(VocabularyTest, TokensOrderedByTypeThenWidth)
{
    const auto &vocab = Vocabulary::instance();
    for (TokenId id = 1; id < vocab.circuitSize(); ++id) {
        const auto prev_type = static_cast<int>(vocab.tokenType(id - 1));
        const auto type = static_cast<int>(vocab.tokenType(id));
        EXPECT_LE(prev_type, type);
        if (prev_type == type) {
            EXPECT_LT(vocab.tokenWidth(id - 1), vocab.tokenWidth(id))
                << "widths ascend within a type";
        }
    }
}

TEST(GraphTest, DotExportEdgeCountMatches)
{
    const Graph g = buildMacGraph();
    std::ostringstream os;
    g.writeDot(os);
    const std::string dot = os.str();
    size_t arrows = 0;
    for (size_t pos = dot.find("->"); pos != std::string::npos;
         pos = dot.find("->", pos + 2)) {
        ++arrows;
    }
    EXPECT_EQ(arrows, g.numEdges());
}

TEST(GraphTest, DotExportMentionsEveryNode)
{
    const Graph g = buildMacGraph();
    std::ostringstream os;
    g.writeDot(os);
    const std::string dot = os.str();
    EXPECT_NE(dot.find("mul16"), std::string::npos);
    EXPECT_NE(dot.find("dff16"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
}

} // namespace
} // namespace sns::graphir
