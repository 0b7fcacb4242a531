#ifndef KPJ_CORE_SPTI_H_
#define KPJ_CORE_SPTI_H_

#include <vector>

#include "core/constraint.h"
#include "core/heuristics.h"
#include "core/intra.h"
#include "core/kpj_query.h"
#include "core/pseudo_tree.h"
#include "core/solver.h"
#include "core/subspace.h"
#include "index/target_bound.h"
#include "sssp/incremental_search.h"

namespace kpj {

/// IterBound-SPT_I (paper §5.3, Algs. 7 & 8) — the paper's best approach.
///
/// A forward incremental shortest path tree is grown from the source in
/// lockstep with the threshold τ (IncrementalSPT, Alg. 7); by Prop. 5.2 it
/// contains every node of every source-to-category path of length <= τ.
/// The k-shortest-path search itself runs on the *reverse* graph, rooted
/// at the virtual destination t whose neighbours are the settled targets D:
///   * CompLB-SPT_I (Alg. 8) bounds a subspace from its first reverse
///     hops, using exact in-tree distances and Eq. (2) landmarks outside;
///   * TestLB-SPT_I prunes every node outside the tree ("we take as input
///     only the small subgraph of G induced by nodes in SPT_I") and uses
///     the exact in-tree source distance as its A* heuristic.
///
/// Two deliberate refinements over the paper's presentation, both sound:
///   * when D != V_T, the root subspace's bound for paths through not yet
///     settled targets is the SPT_I frontier key rather than the paper's 0
///     (any unsettled node x has ds(x) >= frontier key);
///   * τ additionally grows by at least +1 per test so that it escapes 0
///     on degenerate all-zero-weight inputs.
///
/// `use_landmarks == false` gives IterBound_I-NL (§6): the tree grows by
/// plain Dijkstra and out-of-tree bounds are 0; everything else is
/// unchanged.
class IterBoundSptiSolver final : public KpjSolver {
 public:
  IterBoundSptiSolver(const Graph& graph, const Graph& reverse,
                      const KpjOptions& options, bool use_landmarks);

  KpjResult Run(const PreparedQuery& query) override;

 private:
  /// CompLB-SPT_I (Alg. 8); prefix(v) is the set of nodes whose
  /// path_rank_ is <= `limit` (see RankDivisionPath). +infinity means
  /// "provably empty subspace". Reads SPT_I state and ranks that are only
  /// mutated *between* deviation rounds, so concurrent lane calls are safe.
  double CompLb(uint32_t v, uint32_t limit, const PreparedQuery& query,
                QueryStats* stats);

  /// One deviation round of CompLb calls over the division's subspaces
  /// (revised first, created in order), merged into `queue` in that order.
  void ExpandDivision(const DivisionResult& division,
                      const PreparedQuery& query, double chosen_length,
                      SubspaceQueue& queue, QueryStats* stats);

  /// Alg. 7: settles SPT_I nodes while their key is within τ, keeping D
  /// (the settled targets) current. Counts a resume hit/miss in `stats`.
  void GrowTree(double tau, QueryStats* stats);

  const Graph& graph_;
  const Graph& reverse_;
  const KpjOptions options_;
  const bool use_landmarks_;

  ConstrainedSearch rev_search_;  // Bound to the reverse graph.
  IncrementalSearch spti_;        // Bound to the forward graph.
  PseudoTree tree_;
  /// Ranks of the current division's chosen path (RankDivisionPath),
  /// over the reverse graph; read by every lane of a CompLb round.
  EpochArray<uint32_t> path_rank_;

  EpochSet target_membership_;
  std::vector<NodeId> d_;  // D: settled targets, in settle order.

  // Per-query bounds; all zero outside the tree for IterBound_I-NL.
  LandmarkSetBound forward_bound_;  // lb(v, V_T), Eq. (2): guides SPT_I.
  TreeBound reverse_bound_;         // ds(v) in SPT_I, else lb(s, v).

  /// Per-query cancellation token (from PreparedQuery); set by Run.
  const CancellationToken* cancel_ = nullptr;
  /// Per-query intra-parallelism context (from PreparedQuery); set by Run.
  const IntraQueryContext* intra_ = nullptr;
};

}  // namespace kpj

#endif  // KPJ_CORE_SPTI_H_
