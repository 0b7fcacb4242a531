#ifndef KPJ_UTIL_TYPES_H_
#define KPJ_UTIL_TYPES_H_

#include <cstdint>
#include <limits>

namespace kpj {

/// Node identifier within a graph. Nodes are densely numbered `[0, n)`.
/// The virtual endpoints of query processing (the destination `t` of
/// Section 3, the source of Section 6) get no id: they are pseudo-tree
/// roots, marked kInvalidNode (core/pseudo_tree.h).
using NodeId = uint32_t;

/// Edge identifier: position of the edge in a graph's CSR arrays.
using EdgeId = uint32_t;

/// Weight of a single edge. Non-negative.
using Weight = uint32_t;

/// Length of a path (sum of edge weights). 64-bit so that sums of many
/// 32-bit weights cannot overflow.
using PathLength = uint64_t;

/// Category identifier; categories index into a CategoryIndex.
using CategoryId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Sentinel for "no edge".
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// Sentinel for "no category".
inline constexpr CategoryId kInvalidCategory =
    std::numeric_limits<CategoryId>::max();

/// "Infinite" path length: larger than any real path length.
inline constexpr PathLength kInfLength =
    std::numeric_limits<PathLength>::max();

/// Adds path lengths, saturating at kInfLength (infinity is absorbing).
inline constexpr PathLength SatAdd(PathLength a, PathLength b) {
  if (a == kInfLength || b == kInfLength) return kInfLength;
  PathLength s = a + b;
  return s < a ? kInfLength : s;
}

/// Subtracts path lengths, clamping at 0 (used by landmark lower bounds,
/// which are only useful when positive).
inline constexpr PathLength ClampedSub(PathLength a, PathLength b) {
  return a > b ? a - b : 0;
}

}  // namespace kpj

#endif  // KPJ_UTIL_TYPES_H_
