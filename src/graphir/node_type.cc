#include "graphir/node_type.hh"

#include <array>

#include "util/logging.hh"

namespace sns::graphir {

namespace {

constexpr std::array<const char *, kNumNodeTypes> kTypeNames = {
    "io", "dff", "mux", "not", "and", "or", "xor", "sh",
    "reduce_and", "reduce_or", "reduce_xor",
    "add", "mul", "eq", "lgt", "div", "mod",
};

} // namespace

const char *
nodeTypeName(NodeType type)
{
    const auto idx = static_cast<size_t>(type);
    SNS_ASSERT(idx < kTypeNames.size(), "invalid NodeType");
    return kTypeNames[idx];
}

std::optional<NodeType>
nodeTypeFromName(const std::string &name)
{
    for (size_t i = 0; i < kTypeNames.size(); ++i) {
        if (name == kTypeNames[i])
            return static_cast<NodeType>(i);
    }
    return std::nullopt;
}

int
minWidth(NodeType type)
{
    switch (type) {
      case NodeType::Add:
      case NodeType::Mul:
      case NodeType::Eq:
      case NodeType::Lgt:
      case NodeType::Div:
      case NodeType::Mod:
        return 8;
      default:
        return 4;
    }
}

int
numWidths(NodeType type)
{
    // Widths double from minWidth(type) up to 64.
    int count = 0;
    for (int w = minWidth(type); w <= kMaxWidth; w *= 2)
        ++count;
    return count;
}

int
roundWidth(NodeType type, int raw_width)
{
    SNS_ASSERT(raw_width > 0, "width must be positive, got ", raw_width);
    const int lo = minWidth(type);
    if (raw_width <= lo)
        return lo;
    if (raw_width >= kMaxWidth)
        return kMaxWidth;

    // Find the bracketing powers of two and pick the linearly-closest
    // one, rounding up on ties (12 -> 16, per the paper's div example).
    int below = lo;
    while (below * 2 <= raw_width)
        below *= 2;
    const int above = below * 2;
    if (raw_width == below)
        return below;
    const int dist_below = raw_width - below;
    const int dist_above = above - raw_width;
    return dist_below < dist_above ? below : above;
}

std::string
tokenName(NodeType type, int width)
{
    return std::string(nodeTypeName(type)) + std::to_string(width);
}

} // namespace sns::graphir
