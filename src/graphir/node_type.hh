/**
 * @file
 * GraphIR vertex types and the width-rounding rule from Table 1 / §3.1
 * of the SNS paper.
 *
 * Each GraphIR vertex is a (type, width) pair, e.g. a 16-bit multiplier
 * is "mul16". Widths are rounded to the nearest power of two in the
 * per-type legal set (ties round up, matching the paper's example of a
 * 12-bit divider becoming div16) and clamped to [minWidth(type), 64].
 */

#ifndef SNS_GRAPHIR_NODE_TYPE_HH
#define SNS_GRAPHIR_NODE_TYPE_HH

#include <cstdint>
#include <optional>
#include <string>

namespace sns::graphir {

/** The 17 functional-unit categories of Table 1. */
enum class NodeType : uint8_t
{
    Io,         ///< input/output port
    Dff,        ///< D flip-flop (register)
    Mux,        ///< multiplexer
    Not,        ///< bitwise NOT
    And,        ///< bitwise AND
    Or,         ///< bitwise OR
    Xor,        ///< bitwise XOR
    Sh,         ///< parametrizable shifter
    ReduceAnd,  ///< reduction AND
    ReduceOr,   ///< reduction OR
    ReduceXor,  ///< reduction XOR
    Add,        ///< adder/subtractor
    Mul,        ///< multiplier
    Eq,         ///< equality comparator
    Lgt,        ///< less-than / greater-than comparator
    Div,        ///< divider
    Mod,        ///< modulus
};

/** Number of distinct node types. */
inline constexpr int kNumNodeTypes = 17;

/** Short mnemonic ("mul", "dff", ...) used in token names. */
const char *nodeTypeName(NodeType type);

/** Parse a mnemonic back to a NodeType; nullopt if unknown. */
std::optional<NodeType> nodeTypeFromName(const std::string &name);

/**
 * Smallest legal width for a type: 4 for bit-level units, 8 for the
 * arithmetic units in the lower block of Table 1.
 */
int minWidth(NodeType type);

/** Largest legal width for any type (Table 1 caps widths at 64). */
inline constexpr int kMaxWidth = 64;

/** Number of legal widths for a type (5 or 4). */
int numWidths(NodeType type);

/**
 * Round an arbitrary positive wire width to the legal set for a type:
 * nearest power of two (ties up), clamped to [minWidth(type), 64].
 */
int roundWidth(NodeType type, int raw_width);

/**
 * True for types that can begin or end a complete circuit path (§3.2):
 * registers and I/O ports.
 */
inline bool
isPathEndpoint(NodeType type)
{
    return type == NodeType::Io || type == NodeType::Dff;
}

/** True for the stateful/port types that break combinational cycles. */
inline bool
isSequential(NodeType type)
{
    return isPathEndpoint(type);
}

/** Token name for a (type, rounded width) pair, e.g. "mul16". */
std::string tokenName(NodeType type, int width);

} // namespace sns::graphir

#endif // SNS_GRAPHIR_NODE_TYPE_HH
