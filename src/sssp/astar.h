#ifndef KPJ_SSSP_ASTAR_H_
#define KPJ_SSSP_ASTAR_H_

#include <span>
#include <utility>
#include <vector>

#include "core/instrumentation.h"
#include "graph/graph.h"
#include "sssp/spt.h"
#include "util/epoch_array.h"
#include "util/indexed_heap.h"
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

/// Reusable A* engine (goal-directed Dijkstra) over a fixed graph.
///
/// Keys are `g(u) + h(u)`; with a consistent heuristic every node is
/// settled at most once, matching the paper's uses of A* [16].
class AStar {
 public:
  /// The engine keeps references to `graph` and `heuristic`; both must
  /// outlive it. The heuristic can be swapped per run.
  AStar(const Graph& graph, const Heuristic* heuristic);

  /// Replaces the heuristic used by subsequent runs.
  void SetHeuristic(const Heuristic* heuristic) { heuristic_ = heuristic; }

  /// Installs an optional per-query counter sink (null disables counting).
  /// The pointee must outlive every subsequent run.
  void SetAlgoStats(AlgoStats* algo) { algo_ = algo; }

  /// Point-to-point search; returns the distance or kInfLength.
  PathLength RunToTarget(NodeId source, NodeId target);

  /// Multi-source point-to-set search; stops when the first member of
  /// `targets` is settled and returns it (kInvalidNode if unreachable).
  NodeId RunToAnyTarget(std::span<const std::pair<NodeId, PathLength>> sources,
                        const EpochSet& targets);

  bool Settled(NodeId u) const { return settled_.Contains(u); }
  PathLength Distance(NodeId u) const { return dist_.Get(u); }
  NodeId Parent(NodeId u) const { return parent_.Get(u); }

  /// Root-first path to `u`, empty if unsettled.
  std::vector<NodeId> PathTo(NodeId u) const;

  const SearchStats& stats() const { return stats_; }

 private:
  NodeId Loop(NodeId stop_node, const EpochSet* stop_set);

  const Graph& graph_;
  const Heuristic* heuristic_;
  EpochArray<PathLength> dist_;
  EpochArray<NodeId> parent_;
  EpochSet settled_;
  IndexedHeap<PathLength> heap_;
  SearchStats stats_;
  AlgoStats* algo_ = nullptr;
};

}  // namespace kpj

#endif  // KPJ_SSSP_ASTAR_H_
