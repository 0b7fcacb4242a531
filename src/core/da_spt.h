#ifndef KPJ_CORE_DA_SPT_H_
#define KPJ_CORE_DA_SPT_H_

#include <memory>
#include <span>
#include <vector>

#include "core/constraint.h"
#include "core/heuristics.h"
#include "core/intra.h"
#include "core/kpj_query.h"
#include "core/pseudo_tree.h"
#include "core/solver.h"
#include "core/subspace.h"
#include "sssp/incremental_search.h"

namespace kpj {

/// DA-SPT — the state-of-the-art deviation baseline (paper §3; Pascoal
/// [24], Gao et al. [14, 15]).
///
/// Per query it first builds a *full* shortest path tree from the (virtual)
/// destination online — the dominating cost when the k paths are short —
/// then computes each candidate with
///   1. Pascoal's concatenation fast path: if prefix + deviation edge +
///      SPT path is simple, it is the candidate, found in O(|path|);
///   2. otherwise a goal-directed search guided by the exact SPT
///      distances (Gao's iterative refinement of the same idea).
///
/// A division's candidate computations only read the shared SPT (immutable
/// for the whole query), so with an intra-query context they run as one
/// parallel deviation round with a deterministic slot-order merge.
class DaSptSolver final : public KpjSolver {
 public:
  DaSptSolver(const Graph& graph, const Graph& reverse,
              const KpjOptions& options);

  KpjResult Run(const PreparedQuery& query) override;

 private:
  /// Computes the candidate path of vertex `v` with workspace `cs`; fills
  /// `entry` and returns true if one exists.
  bool ComputeCandidate(uint32_t v, ConstrainedSearch& cs,
                        SubspaceEntry* entry, QueryStats* stats);

  /// ComputeCandidate on the solver's main workspace, pushing into `queue`.
  void PushCandidate(uint32_t v, SubspaceQueue& queue, QueryStats* stats);

  /// One deviation round over the division's subspaces; see DaSolver.
  void ExpandDivision(const DivisionResult& division, SubspaceQueue& queue,
                      QueryStats* stats);

  /// Pascoal fast path; returns true and fills `entry` if it applied.
  /// Expects the subspace prefix already marked in `cs.forbidden()`.
  bool TryConcatenation(uint32_t v, ConstrainedSearch& cs,
                        SubspaceEntry* entry, QueryStats* stats);

  const Graph& graph_;
  const Graph& reverse_;
  ConstrainedSearch search_;
  /// Plain Dijkstra (zero heuristic) on the reverse graph, run to
  /// exhaustion from all of V_T to build full_spt_.
  IncrementalSearch reverse_search_;
  PseudoTree tree_;
  /// Full SPT toward the query's targets; rebuilt per query or adopted
  /// from the cross-query cache (the SPT is a pure function of the target
  /// set, so sharing it is byte-identical to recomputing). Read-only for
  /// the rest of the query, hence safely shared by all deviation lanes.
  std::shared_ptr<const SptResult> full_spt_;
  /// Per-query cancellation token (from PreparedQuery); set by Run.
  const CancellationToken* cancel_ = nullptr;
  /// Per-query intra-parallelism context (from PreparedQuery); set by Run.
  const IntraQueryContext* intra_ = nullptr;
  /// Per-query source set (from PreparedQuery); seeds a virtual root.
  std::span<const NodeId> sources_;
  /// GKPJ's virtual root arcs: a 0-weight hop to each source. Empty for a
  /// single source.
  std::vector<OutEdge> root_arcs_;
  /// Helper-lane search workspaces (lane L >= 1 uses lane_search_[L-1]).
  std::vector<std::unique_ptr<ConstrainedSearch>> lane_search_;
};

}  // namespace kpj

#endif  // KPJ_CORE_DA_SPT_H_
