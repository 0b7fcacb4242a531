#ifndef KPJ_CORE_KPJ_QUERY_H_
#define KPJ_CORE_KPJ_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/instrumentation.h"
#include "core/path.h"
#include "index/landmark_index.h"
#include "util/cancellation.h"
#include "util/epoch_array.h"
#include "util/status.h"
#include "util/types.h"

namespace kpj {

/// A (G)KPJ query: top-k shortest simple paths from any source to any
/// target node (paper §2 and §6).
///
/// `sources.size() == 1` is the KPJ query Q = {s, T, k} studied in the body
/// of the paper; multiple sources form a GKPJ query; a single source plus a
/// single target is a classic KSP query.
struct KpjQuery {
  std::vector<NodeId> sources;
  std::vector<NodeId> targets;  // V_T, retrieved via the category index.
  uint32_t k = 1;
};

/// The seven algorithms evaluated in the paper's §7, plus the adaptive
/// planner sentinel. kAuto is not a solver: when an engine is configured
/// with it, core/planner.h picks one of the seven per query (all of which
/// return byte-identical answers, so the choice is purely a speed matter).
enum class Algorithm {
  kDA,                  // Yen's deviation baseline (Alg. 1, [28])
  kDaSpt,               // state-of-the-art KSP baseline with full SPT [15]
  kBestFirst,           // best-first subspace search (Alg. 2)
  kIterBound,           // iteratively bounding (Alg. 4)
  kIterBoundSptP,       // + partial shortest path tree (§5.2)
  kIterBoundSptI,       // + incremental shortest path tree (§5.3)
  kIterBoundSptINoLm,   // IterBound_I without landmarks (§6)
  kAuto,                // per-query adaptive choice (core/planner.h)
};

/// Short display name ("DA", "IterBoundI", ...).
const char* AlgorithmName(Algorithm algorithm);

/// All runnable algorithms, in the order the paper lists them. kAuto is
/// deliberately absent: it is a planner sentinel, not a solver, so code
/// iterating this array (conformance tests, ParseAlgorithm, the planner's
/// own candidate set) never sees it.
inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kDA,           Algorithm::kDaSpt,
    Algorithm::kBestFirst,    Algorithm::kIterBound,
    Algorithm::kIterBoundSptP, Algorithm::kIterBoundSptI,
    Algorithm::kIterBoundSptINoLm,
};

/// Knobs shared by all solvers.
struct KpjOptions {
  Algorithm algorithm = Algorithm::kIterBoundSptI;
  /// τ growth factor of the iteratively bounding approaches (Alg. 4
  /// line 9); must be > 1. The paper settles on 1.1 (Fig. 6(b)).
  double alpha = 1.1;
  /// Offline lower-bound oracle: the landmark (ALT) index of §4.2. May be
  /// null (all bounds become 0, §6 "Computing without Landmark").
  /// kIterBoundSptINoLm ignores it.
  const LandmarkIndex* oracle = nullptr;
  /// Extension: evaluate only the best `max_active_landmarks` landmarks
  /// per query (scored at the query endpoints); 0 evaluates all of them.
  /// Cuts the per-node bound cost at a small pruning-quality cost.
  uint32_t max_active_landmarks = 0;
};

/// Work counters; filled by every solver.
struct QueryStats {
  /// Exact shortest-path computations: candidate computations in the
  /// deviation algorithms, CompSP calls in the best-first ones.
  /// Lemma 4.1 is stated in terms of this counter.
  uint64_t shortest_path_computations = 0;
  /// TestLB invocations (iteratively bounding approaches only).
  uint64_t lower_bound_tests = 0;
  /// Subspaces created by division / candidate paths generated.
  uint64_t subspaces_created = 0;
  /// Nodes settled across all internal searches (incl. SPT construction).
  uint64_t nodes_settled = 0;
  /// Edges relaxed across all internal searches.
  uint64_t edges_relaxed = 0;
  /// Peak size of the subspace / candidate priority queue.
  uint64_t max_queue_size = 0;
  /// Nodes in the online SPT (full SPT for DA-SPT, SPT_P / SPT_I sizes).
  uint64_t spt_nodes = 0;
  /// Final τ reached (iteratively bounding approaches only).
  double final_tau = 0.0;
  /// Fine-grained algorithm counters (heap traffic, SPT reuse, bounding
  /// rounds, candidate churn, lower-bound tightness). Always filled; the
  /// engine aggregates these across workers for metrics exposition.
  AlgoStats algo;

  /// Merges counters collected by an independent slice of the query (one
  /// deviation slot of a parallel round): sums the work counters, takes
  /// the max of the running maxima. Integer sums commute, so merging in
  /// canonical slot order yields the same totals as sequential execution.
  void Accumulate(const QueryStats& other) {
    shortest_path_computations += other.shortest_path_computations;
    lower_bound_tests += other.lower_bound_tests;
    subspaces_created += other.subspaces_created;
    nodes_settled += other.nodes_settled;
    edges_relaxed += other.edges_relaxed;
    max_queue_size = std::max(max_queue_size, other.max_queue_size);
    spt_nodes += other.spt_nodes;
    final_tau = std::max(final_tau, other.final_tau);
    algo.Accumulate(other.algo);
  }
};

/// Query answer: up to k paths, sorted by non-decreasing length. Fewer than
/// k paths are returned when the graph does not contain k simple paths.
///
/// `status` is OK for a complete answer. A cancelled or deadline-bounded
/// query returns kCancelled / kDeadlineExceeded together with the paths
/// proven optimal before the stop — a well-formed partial result, never a
/// crash. Stats always reflect the work actually performed.
struct KpjResult {
  std::vector<Path> paths;
  QueryStats stats;
  Status status;
  /// The solver that actually produced the paths. Equal to the configured
  /// algorithm in fixed mode; in `auto` mode it is the planner's choice.
  Algorithm algorithm_used = Algorithm::kIterBoundSptI;
  /// Planner decision provenance (static string, never owned): which rule
  /// of the cost model fired. Empty in fixed mode (planner bypassed).
  const char* planner_reason = "";
};

struct QueryCacheContext;   // core/spt_cache.h
struct IntraQueryContext;   // core/intra.h

/// A validated view of a query that solvers execute, in the id space of the
/// graphs the solver was built on. kpj.cc (the facade) builds it from a
/// KpjQuery.
struct PreparedQuery {
  /// The source set V_S, sorted and duplicate-free. One source is a KPJ
  /// query rooted at that node; more form a GKPJ query (§6), rooted at a
  /// virtual source with a 0-weight arc to each member. The virtual source
  /// is no node of the graph: solvers seed their searches from V_S instead.
  std::vector<NodeId> sources;
  std::vector<NodeId> targets;  // V_T with the sources removed
  uint32_t k = 1;
  /// Optional cooperative cancellation token polled by the solver's
  /// expansion loops (deadline / budget enforcement). Not owned; must
  /// outlive the Run call. nullptr runs to completion.
  const CancellationToken* cancel = nullptr;
  /// Optional cross-query reuse caches (core/spt_cache.h), set by the
  /// engine when caching is enabled. Not owned; nullptr disables reuse.
  /// Solvers adopting cached state must stay byte-identical to a cold run.
  const QueryCacheContext* cache = nullptr;
  /// Optional intra-query parallelism context (core/intra.h), set by the
  /// engine when intra_threads > 1. Not owned; nullptr (or threads <= 1)
  /// runs deviation rounds inline. Results are byte-identical either way.
  const IntraQueryContext* intra = nullptr;

  /// The root of a forward solver's pseudo-tree: the one source, or
  /// kInvalidNode (the virtual source) for GKPJ.
  NodeId root() const {
    return sources.size() == 1 ? sources.front() : kInvalidNode;
  }
};

}  // namespace kpj

#endif  // KPJ_CORE_KPJ_QUERY_H_
