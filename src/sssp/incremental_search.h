#ifndef KPJ_SSSP_INCREMENTAL_SEARCH_H_
#define KPJ_SSSP_INCREMENTAL_SEARCH_H_

#include <functional>
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
/// exhaustion with `AdvanceToBound(kInfLength)` or stopped early at a target
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
class IncrementalSearch {
 public:
  /// Keeps references to `graph` and `heuristic`; both must outlive this.
  IncrementalSearch(const Graph& graph, const Heuristic* heuristic);

  /// Swaps the heuristic for the next Initialize (per-query bounds reuse
  /// one engine and its O(n) workspace).
  void SetHeuristic(const Heuristic* heuristic) {
    KPJ_CHECK(heuristic != nullptr);
    heuristic_ = heuristic;
  }

  /// Installs a cooperative cancellation token polled once per settled
  /// node in the Advance* loops; a tripped token makes them return early
  /// (AdvanceUntilAnySettled with kInvalidNode, as if exhausted). nullptr (the default) disables polling. Callers must
  /// check the token after an advance before trusting the outcome.
  void SetCancelToken(const CancellationToken* cancel) { cancel_ = cancel; }

  /// Installs an optional per-query counter sink (null disables counting).
  /// The pointee must outlive every subsequent Initialize/Advance call.
  void SetAlgoStats(AlgoStats* algo) { algo_ = algo; }

  /// Resets all state and seeds the frontier. Settle callbacks fire later,
  /// during Advance* calls, never here.
  void Initialize(std::span<const std::pair<NodeId, PathLength>> sources);

  /// Settles nodes while the minimum frontier key is `<= bound`, invoking
  /// `on_settle` (if non-null) for each newly settled node.
  void AdvanceToBound(PathLength bound,
                      const std::function<void(NodeId)>& on_settle = nullptr);

  /// Settles nodes until some member of `stops` is settled; returns that
  /// node, or kInvalidNode if the frontier is exhausted first. Only a node
  /// this call settles stops it: a member settled earlier does not.
  NodeId AdvanceUntilAnySettled(const EpochSet& stops,
                                const std::function<void(NodeId)>& on_settle =
                                    nullptr);

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
  /// over the same graph with a heuristic producing identical estimates.
  /// Per-call SearchStats are zeroed: they report work actually performed
  /// after the restore, not work embodied in the adopted tree.
  void RestoreSnapshot(const SearchSnapshot& snap);

 private:
  void Settle(NodeId u, const std::function<void(NodeId)>& on_settle);

  /// Records the first labelling of `u` for snapshot export.
  void Touch(NodeId u) {
    if (!dist_.Stamped(u)) touched_.push_back(u);
  }

  const Graph& graph_;
  const Heuristic* heuristic_;
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
