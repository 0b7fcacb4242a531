#ifndef KPJ_SSSP_INCREMENTAL_SEARCH_H_
#define KPJ_SSSP_INCREMENTAL_SEARCH_H_

#include <span>
#include <utility>
#include <vector>

#include "core/instrumentation.h"
#include "graph/graph.h"
#include "sssp/heuristic.h"
#include "sssp/spt.h"
#include "util/cancellation.h"
#include "util/epoch_array.h"
#include "util/indexed_heap.h"
#include "util/types.h"

namespace kpj {

/// Portable image of an IncrementalSearch's complete mutable state: every
/// labelled node with its distance/parent/settled flag plus the frontier
/// heap's raw slot layout. Restoring a snapshot reproduces the search
/// bit-for-bit — the same future pop order, ties included — which is what
/// makes cross-query SPT caching byte-identical to a cold run.
struct SearchSnapshot {
  std::vector<NodeId> touched;     // labelled nodes, first-touch order
  std::vector<PathLength> dist;    // parallel to `touched`
  std::vector<NodeId> parent;      // parallel to `touched`
  std::vector<uint8_t> settled;    // parallel to `touched` (1 = settled)
  std::vector<std::pair<uint32_t, PathLength>> heap;  // raw slot order
  size_t num_settled = 0;

  /// Approximate heap footprint, for cache byte accounting.
  size_t MemoryBytes() const {
    return touched.capacity() * sizeof(NodeId) +
           dist.capacity() * sizeof(PathLength) +
           parent.capacity() * sizeof(NodeId) +
           settled.capacity() +
           heap.capacity() * sizeof(std::pair<uint32_t, PathLength>) +
           sizeof(SearchSnapshot);
  }
};

/// Resumable best-first (A*) search whose frontier survives between calls.
///
/// It is the one shortest-path engine outside the subspace searches
/// (core/constraint.h): with a ZeroHeuristic it is plain Dijkstra, run to
/// exhaustion with `AdvanceToBound(kInfLength, zero)` or stopped early at a target
/// or target set; with a landmark bound it is A*. Workspace (labels,
/// parents, heap) is epoch-reset by Initialize, so thousands of per-query
/// searches cost O(touched) each rather than O(n).
///
/// It is also the engine behind both online index structures of Section 5:
///  * SPT_P (Alg. 6) initializes it on the reverse graph from all of `V_T`
///    and advances until the query source is settled — the settled set IS
///    the partial shortest path tree.
///  * SPT_I (Alg. 7) initializes it on the forward graph from `s` and
///    repeatedly advances to the growing bound τ; settled nodes form the
///    incremental tree, and by Prop. 5.2 they cover every node on any
///    s-to-`V_T` path of length <= τ.
///
/// Keys are `g(u) + h(u)` with a consistent heuristic, so settled nodes are
/// final and the frontier key is monotonically non-decreasing.
///
/// The seeding and advancing calls are templates over the bound type (see
/// sssp/heuristic.h) and the settle callback, so the per-arc bound call and
/// the per-node callback are direct calls. Every call of one search must
/// pass the same bound: the heap keys already hold its estimates.
class IncrementalSearch {
 public:
  /// Keeps a reference to `graph`, which must outlive this.
  explicit IncrementalSearch(const Graph& graph);

  /// Installs a cooperative cancellation token polled once per settled
  /// node in the Advance* loops; a tripped token makes them return early
  /// (AdvanceUntilAnySettled with kInvalidNode, as if exhausted). nullptr
  /// (the default) disables polling. Callers must check the token after an
  /// advance before trusting the outcome.
  void SetCancelToken(const CancellationToken* cancel) { cancel_ = cancel; }

  /// Installs an optional per-query counter sink (null disables counting).
  /// The pointee must outlive every subsequent Initialize/Advance call.
  void SetAlgoStats(AlgoStats* algo) { algo_ = algo; }

  /// The default settle callback: does nothing.
  struct IgnoreSettled {
    void operator()(NodeId) const {}
  };

  /// Resets all state and seeds the frontier, keyed by `bound`. Settle
  /// callbacks fire later, during Advance* calls, never here.
  template <typename Bound>
  void Initialize(std::span<const std::pair<NodeId, PathLength>> sources,
                  const Bound& bound);

  /// Settles nodes while the minimum frontier key is `<= limit`, invoking
  /// `on_settle` for each newly settled node.
  template <typename Bound, typename OnSettle = IgnoreSettled>
  void AdvanceToBound(PathLength limit, const Bound& bound,
                      OnSettle&& on_settle = {});

  /// Settles nodes until some member of `stops` is settled; returns that
  /// node, or kInvalidNode if the frontier is exhausted first. Only a node
  /// this call settles stops it: a member settled earlier does not.
  template <typename Bound, typename OnSettle = IgnoreSettled>
  NodeId AdvanceUntilAnySettled(const EpochSet& stops, const Bound& bound,
                                OnSettle&& on_settle = {});

  bool Settled(NodeId u) const { return settled_.Contains(u); }

  /// Exact distance from the seed set for settled nodes; tentative label
  /// for frontier nodes; kInfLength otherwise.
  PathLength Distance(NodeId u) const { return dist_.Get(u); }

  NodeId Parent(NodeId u) const { return parent_.Get(u); }

  /// Root-first path to a settled node (empty if unsettled).
  std::vector<NodeId> PathTo(NodeId u) const;

  /// Dense distance/parent arrays of the current labels (O(n)): final for
  /// settled nodes, kInfLength / kInvalidNode for untouched ones.
  SptResult ExportDense() const;

  /// Minimum key in the frontier, kInfLength when exhausted.
  PathLength FrontierKey() const {
    return heap_.empty() ? kInfLength : heap_.TopKey();
  }

  /// True when no further node can ever be settled: every node not yet
  /// settled is unreachable from the seed set.
  bool Exhausted() const { return heap_.empty(); }

  size_t num_settled() const { return num_settled_; }
  const SearchStats& stats() const { return stats_; }

  /// Captures the complete mutable search state (labels, settled set,
  /// frontier) in O(touched nodes). The snapshot is independent of this
  /// object and can outlive it.
  void ExportSnapshot(SearchSnapshot* out) const;

  /// Replaces all state with a snapshot previously captured from a search
  /// over the same graph with a bound producing identical estimates.
  /// Per-call SearchStats are zeroed: they report work actually performed
  /// after the restore, not work embodied in the adopted tree.
  void RestoreSnapshot(const SearchSnapshot& snap);

 private:
  template <typename Bound, typename OnSettle>
  void Settle(NodeId u, const Bound& bound, OnSettle& on_settle);

  /// Labels `u` with distance `d` via `parent` and queues it at `key`.
  void Label(NodeId u, PathLength d, NodeId parent, PathLength key) {
    if (!dist_.Stamped(u)) touched_.push_back(u);  // For snapshot export.
    dist_.Set(u, d);
    parent_.Set(u, parent);
    const HeapUpdate update = heap_.PushOrDecrease(u, key);
    if (algo_ != nullptr) {
      if (update == HeapUpdate::kPushed) {
        ++algo_->heap_pushes;
      } else {
        ++algo_->heap_decrease_keys;
      }
    }
  }

  const Graph& graph_;
  EpochArray<PathLength> dist_;
  EpochArray<NodeId> parent_;
  EpochSet settled_;
  IndexedHeap<PathLength> heap_;
  std::vector<NodeId> touched_;
  SearchStats stats_;
  size_t num_settled_ = 0;
  const CancellationToken* cancel_ = nullptr;
  AlgoStats* algo_ = nullptr;
};

template <typename Bound>
void IncrementalSearch::Initialize(
    std::span<const std::pair<NodeId, PathLength>> sources,
    const Bound& bound) {
  dist_.NewEpoch();
  parent_.NewEpoch();
  settled_.ClearAll();
  heap_.Clear();
  touched_.clear();
  stats_.Reset();
  num_settled_ = 0;
  for (const auto& [node, d0] : sources) {
    KPJ_CHECK(node < graph_.NumNodes());
    if (d0 < dist_.Get(node)) {
      Label(node, d0, kInvalidNode, SatAdd(d0, bound.Estimate(node)));
    }
  }
}

template <typename Bound, typename OnSettle>
void IncrementalSearch::Settle(NodeId u, const Bound& bound,
                               OnSettle& on_settle) {
  settled_.Insert(u);
  ++num_settled_;
  ++stats_.nodes_settled;
  if (algo_ != nullptr) ++algo_->node_expansions;
  on_settle(u);
  const std::span<const OutEdge> arcs = graph_.OutEdges(u);
  // Start the bound's loads for every head before the first Estimate, so
  // their cache misses overlap instead of queueing behind each other.
  for (const OutEdge& e : arcs) {
    if (!settled_.Contains(e.to)) bound.Prefetch(e.to);
  }
  const PathLength du = dist_.Get(u);
  for (const OutEdge& e : arcs) {
    ++stats_.edges_relaxed;
    if (settled_.Contains(e.to)) continue;
    const PathLength nd = du + e.weight;
    if (nd < dist_.Get(e.to)) {
      Label(e.to, nd, u, SatAdd(nd, bound.Estimate(e.to)));
    }
  }
}

template <typename Bound, typename OnSettle>
void IncrementalSearch::AdvanceToBound(PathLength limit, const Bound& bound,
                                       OnSettle&& on_settle) {
  while (!heap_.empty() && heap_.TopKey() <= limit) {
    if (cancel_ != nullptr && cancel_->ShouldStop()) return;
    Settle(heap_.Pop(), bound, on_settle);
  }
}

template <typename Bound, typename OnSettle>
NodeId IncrementalSearch::AdvanceUntilAnySettled(const EpochSet& stops,
                                                 const Bound& bound,
                                                 OnSettle&& on_settle) {
  while (!heap_.empty()) {
    if (cancel_ != nullptr && cancel_->ShouldStop()) return kInvalidNode;
    const NodeId u = heap_.Pop();
    Settle(u, bound, on_settle);
    if (stops.Contains(u)) return u;
  }
  return kInvalidNode;
}

/// One-shot convenience: full SSSP from `source`, densely exported.
SptResult SingleSourceShortestPaths(const Graph& graph, NodeId source);

/// One-shot convenience: distances from every node TO the target set, i.e.
/// a multi-source run over `graph.Reverse()` supplied by the caller as
/// `reverse_graph`. dist[u] is the length of the shortest path u -> any
/// target in the forward graph.
SptResult DistancesToSet(const Graph& reverse_graph,
                         std::span<const NodeId> targets);

}  // namespace kpj

#endif  // KPJ_SSSP_INCREMENTAL_SEARCH_H_
