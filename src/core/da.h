#ifndef KPJ_CORE_DA_H_
#define KPJ_CORE_DA_H_

#include <memory>
#include <span>
#include <vector>

#include "core/constraint.h"
#include "core/intra.h"
#include "core/kpj_query.h"
#include "core/pseudo_tree.h"
#include "core/solver.h"
#include "core/subspace.h"

namespace kpj {

/// DA — the deviation-paradigm baseline (paper Alg. 1; Yen [28]).
///
/// Maintains the pseudo-tree of chosen paths and a candidate set with one
/// *computed* shortest path per subspace: every division immediately runs
/// a constrained Dijkstra per new subspace ("the candidate paths are
/// computed by traversing the graph exhaustively"), which is exactly the
/// inefficiency the paper's best-first approaches remove.
///
/// The candidate computations of one division are independent of each
/// other, so with an intra-query context they run as one parallel
/// deviation round (ExpandDivision) with a deterministic slot-order merge.
class DaSolver final : public KpjSolver {
 public:
  DaSolver(const Graph& graph, const Graph& reverse,
           const KpjOptions& options);

  KpjResult Run(const PreparedQuery& query) override;

 private:
  /// Computes the candidate path of vertex `v` with workspace `cs` (a
  /// constrained Dijkstra); fills `entry` and returns true if one exists.
  bool ComputeCandidate(uint32_t v, ConstrainedSearch& cs,
                        SubspaceEntry* entry, QueryStats* stats);

  /// ComputeCandidate on the solver's main workspace, pushing into `queue`.
  void PushCandidate(uint32_t v, SubspaceQueue& queue, QueryStats* stats);

  /// Runs one deviation round over the division's subspaces (revised
  /// vertex first, created vertices in order) — in parallel when the query
  /// carries an intra context — and merges candidates into `queue` in that
  /// same canonical slot order.
  void ExpandDivision(const DivisionResult& division, SubspaceQueue& queue,
                      QueryStats* stats);

  const Graph& graph_;
  ConstrainedSearch search_;
  PseudoTree tree_;
  /// Per-query cancellation token (from PreparedQuery); set by Run.
  const CancellationToken* cancel_ = nullptr;
  /// Per-query intra-parallelism context (from PreparedQuery); set by Run.
  const IntraQueryContext* intra_ = nullptr;
  /// Per-query source set (from PreparedQuery); seeds a virtual root.
  std::span<const NodeId> sources_;
  /// Helper-lane search workspaces (lane L >= 1 uses lane_search_[L-1];
  /// lane 0 is `search_`). Created once, reused across queries.
  std::vector<std::unique_ptr<ConstrainedSearch>> lane_search_;
};

}  // namespace kpj

#endif  // KPJ_CORE_DA_H_
