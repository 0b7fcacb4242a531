#ifndef KPJ_SSSP_HEURISTIC_H_
#define KPJ_SSSP_HEURISTIC_H_

#include "util/types.h"

namespace kpj {

/// Admissible (and, for all implementations in this repository, consistent)
/// lower bound on the remaining distance from a node to the search target.
///
/// Implementations: ZeroHeuristic (degenerates A* to Dijkstra, the
/// "no landmark" mode of Section 6), LandmarkSetBound (Eq. (2),
/// index/target_bound.h), and the SPT-augmented bounds of Sections
/// 5.2/5.3.
class Heuristic {
 public:
  virtual ~Heuristic() = default;

  /// Lower bound on the distance from `u` to the target (set).
  virtual PathLength Estimate(NodeId u) const = 0;
};

/// The all-zeroes heuristic.
class ZeroHeuristic final : public Heuristic {
 public:
  PathLength Estimate(NodeId) const override { return 0; }
};

}  // namespace kpj

#endif  // KPJ_SSSP_HEURISTIC_H_
