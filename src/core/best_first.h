#ifndef KPJ_CORE_BEST_FIRST_H_
#define KPJ_CORE_BEST_FIRST_H_

#include <vector>

#include "core/constraint.h"
#include "core/heuristics.h"
#include "core/intra.h"
#include "core/kpj_query.h"
#include "core/pseudo_tree.h"
#include "core/solver.h"
#include "core/subspace.h"

namespace kpj {

/// Shared engine of the forward-oriented best-first approaches:
/// BestFirst (Alg. 2), IterBound (Alg. 4), and IterBound-SPT_P (§5.2).
///
/// The engine maintains the subspace priority queue keyed by lower bounds,
/// divides subspaces along chosen paths (Alg. 2 lines 7-10), computes
/// CompLB (Alg. 3) from the active heuristic, and — when
/// `iterative_bounding` is on — replaces CompSP by TestLB with a
/// geometrically growing τ (Alg. 4 line 9, Alg. 5).
///
/// The CompLB calls of one division are independent reads of the pseudo
/// tree and the per-query heuristic, so with an intra-query context each
/// division runs as one parallel deviation round (one shared rank array of
/// the chosen path, deterministic slot-order merge into the queue).
///
/// Derived classes choose the per-query heuristic and the initial shortest
/// path via InitializeQuery.
class BestFirstFramework : public KpjSolver {
 public:
  KpjResult Run(const PreparedQuery& query) final;

 protected:
  BestFirstFramework(const Graph& graph, const Graph& reverse,
                     const KpjOptions& options, bool iterative_bounding);

  /// Prepares per-query state: must set `bound_` (a lower bound on
  /// distance-to-destination-set, admissible under the subspace
  /// constraints) and fill `initial` with the overall shortest path as a
  /// root-subspace entry. Returns false if the query has no path at all.
  virtual bool InitializeQuery(const PreparedQuery& query,
                               SubspaceEntry* initial, QueryStats* stats);

  /// Runs CompSP at the root subspace (used by base InitializeQuery and
  /// available to derived classes).
  bool ComputeRootPath(const PreparedQuery& query, SubspaceEntry* initial,
                       QueryStats* stats);

  const Graph& graph_;
  const Graph& reverse_;
  const KpjOptions options_;
  ConstrainedSearch search_;
  PseudoTree tree_;
  /// Per-query bound: the oracle's Eq. (2) bound (zero without one), with
  /// SPT_P's exact distances in front for IterBound-SPT_P. Set by
  /// InitializeQuery. Estimate() is const over state the main loop does
  /// not mutate mid-round, so deviation lanes share it without
  /// synchronization.
  TreeBound bound_;
  /// Per-query cancellation token (from PreparedQuery); set by Run before
  /// InitializeQuery so derived initializers can honor it too.
  const CancellationToken* cancel_ = nullptr;
  /// GKPJ's virtual root arcs: a 0-weight hop to each source, so CompLB
  /// reads the root like any other vertex. Empty for a single source.
  std::vector<OutEdge> root_arcs_;

 private:
  /// Alg. 3: lightweight subspace lower bound from the first deviation
  /// edge; prefix(v) is the set of nodes whose path_rank_ is <= `limit`
  /// (see RankDivisionPath). +infinity means the subspace is provably
  /// empty.
  double CompLB(uint32_t v, uint32_t limit, QueryStats* stats);

  /// One deviation round of CompLB calls over the division's subspaces
  /// (revised first, created in order), merged into `queue` in that order.
  void ExpandDivision(const DivisionResult& division, double chosen_length,
                      SubspaceQueue& queue, QueryStats* stats);

  const bool iterative_bounding_;
  /// Per-query intra-parallelism context (from PreparedQuery); set by Run.
  const IntraQueryContext* intra_ = nullptr;
  /// Ranks of the current division's chosen path (RankDivisionPath);
  /// read by every lane of a CompLB round.
  EpochArray<uint32_t> path_rank_;
};

/// BestFirst (paper Alg. 2 + Alg. 3): best-first subspace pruning with
/// single-shot lower bounds; every popped bound entry triggers a full
/// CompSP.
class BestFirstSolver final : public BestFirstFramework {
 public:
  BestFirstSolver(const Graph& graph, const Graph& reverse,
                  const KpjOptions& options)
      : BestFirstFramework(graph, reverse, options,
                           /*iterative_bounding=*/false) {}
};

}  // namespace kpj

#endif  // KPJ_CORE_BEST_FIRST_H_
