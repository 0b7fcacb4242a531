#ifndef KPJ_SSSP_HEURISTIC_H_
#define KPJ_SSSP_HEURISTIC_H_

#include "util/types.h"

namespace kpj {

/// Every search (IncrementalSearch, ConstrainedSearch) is a template over
/// its bound type, so the per-arc bound call is a direct, inlinable call.
/// A bound type provides two const members:
///
///   PathLength Estimate(NodeId u) const;
///     An admissible (and, for all bounds in this repository, consistent)
///     lower bound on the remaining distance from `u` to the search target
///     (set); kInfLength proves the target unreachable from `u`.
///   void Prefetch(NodeId u) const;
///     A hint that Estimate(u) follows shortly; loads nothing it must not.
///
/// The bound types: ZeroHeuristic (degenerates A* to Dijkstra, the
/// "no landmark" mode of Section 6), LandmarkSetBound (Eq. (2),
/// index/target_bound.h), and FullSptBound / TreeBound, the SPT-augmented
/// bounds of Sections 3 and 5.2/5.3 (core/heuristics.h).

/// The all-zeroes bound.
struct ZeroHeuristic {
  PathLength Estimate(NodeId) const { return 0; }
  void Prefetch(NodeId) const {}
};

}  // namespace kpj

#endif  // KPJ_SSSP_HEURISTIC_H_
