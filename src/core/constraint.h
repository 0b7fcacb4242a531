#ifndef KPJ_CORE_CONSTRAINT_H_
#define KPJ_CORE_CONSTRAINT_H_

#include <limits>
#include <span>
#include <vector>

#include "core/kpj_query.h"
#include "core/pseudo_tree.h"
#include "graph/graph.h"
#include "sssp/incremental_search.h"
#include "util/arena.h"
#include "util/epoch_array.h"
#include "util/indexed_heap.h"
#include "util/types.h"

namespace kpj {

/// One subspace-constrained shortest-path problem: find the shortest path
/// in ⟨P_{s,u}, X_u⟩ from u to the destination set, optionally bounded by
/// a threshold τ (TestLB, Alg. 5) and/or restricted to an SPT_I
/// (TestLB-SPT_I, §5.3).
struct SubspaceSearchRequest {
  /// Search start (the subspace's deviation node u). kInvalidNode means
  /// the subspace is rooted at a virtual node (the reverse orientation's
  /// virtual destination t, or GKPJ's virtual source): the search is then
  /// seeded from `seeds` (its real neighbours via 0-weight virtual edges)
  /// instead.
  NodeId start = kInvalidNode;
  /// Seed nodes used when `start` is virtual; banned_first_hops applies to
  /// these (a banned seed is excluded).
  std::span<const NodeId> seeds;
  /// True when `seeds` is known to be a *subset* of the virtual root's
  /// true neighbours (the SPT_I search has only settled part of V_T, and
  /// every missing one lies beyond τ). Forces a kBounded instead of a
  /// kEmpty verdict so the subspace is retested at a larger τ.
  bool seeds_incomplete = false;
  /// Length of the subspace's prefix path ω(P_{s,u}); all τ comparisons
  /// are against prefix + suffix + heuristic (Alg. 5 line 2 initializes
  /// ds(u) to the prefix length).
  PathLength prefix_length = 0;
  /// Banned first hops out of `start` (the subspace's X_u).
  std::span<const NodeId> banned_first_hops;
  /// If true, the start itself is a valid destination reached by the empty
  /// suffix (start is a target node and finishing there is not banned —
  /// the virtual edge (u, t) of the paper's reduction is intact).
  bool start_counts_as_destination = false;
  /// TestLB threshold τ; +infinity turns the test into plain CompSP.
  double tau = std::numeric_limits<double>::infinity();
  /// Only visit nodes already settled by this incremental search (the
  /// SPT_I restriction); nullptr disables.
  const IncrementalSearch* restrict_to = nullptr;
  /// Cooperative cancellation; polled once per heap pop. A cancelled
  /// search bails out with kBounded (no claim about the subspace) — the
  /// caller must re-check the token before trusting the outcome.
  const CancellationToken* cancel = nullptr;
};

/// What a subspace search learned (Alg. 5's three-way contract, extended
/// with the empty case needed for termination when a subspace contains no
/// path at all).
enum class SearchOutcome {
  /// Shortest path found; its total length is <= τ.
  kFound,
  /// Every path in the subspace is provably longer than τ.
  kBounded,
  /// The subspace contains no path at any τ; it can be discarded.
  kEmpty,
};

struct SubspaceSearchResult {
  SearchOutcome outcome = SearchOutcome::kEmpty;
  /// For kFound: nodes from `start` to the destination, inclusive (from
  /// the seed it entered through, for a virtual start). Backed by the
  /// ConstrainedSearch's arena — valid only until that engine's next Run
  /// call; callers copy what they keep.
  std::span<const NodeId> suffix;
  /// For kFound: total weight of the suffix edges (excludes the prefix).
  PathLength suffix_length = 0;

  /// The found path's nodes after the subspace's vertex, as
  /// SubspaceEntry::suffix stores them: a real start heads its own suffix
  /// and is dropped; at a virtual root the suffix keeps its first node,
  /// the seed the path entered through.
  std::span<const NodeId> SuffixAfter(NodeId start) const {
    return start == kInvalidNode ? suffix : suffix.subspan(1);
  }
};

/// Reusable engine for subspace-constrained (possibly bounded) A*.
///
/// Owns the per-search workspace — distance labels, parents, settled set,
/// heap, and the `forbidden` prefix-node set — all epoch-reset, so a query
/// issuing thousands of subspace searches pays O(touched) per search.
///
/// The engine is orientation-agnostic: forward-searching algorithms bind
/// it to the forward graph with the destination category as target set;
/// the reverse-oriented IterBound-SPT_I binds it to the reverse graph with
/// the (virtual) source as the single target.
class ConstrainedSearch {
 public:
  explicit ConstrainedSearch(const Graph& graph);

  /// Declares the destination set for subsequent Run calls. Kept across
  /// runs; typical use sets it once per query.
  void SetTargets(std::span<const NodeId> targets);

  /// Clears the forbidden set; callers then mark the subspace prefix via
  /// PseudoTree::MarkPrefix(&forbidden()).
  void ClearForbidden() { forbidden_.ClearAll(); }
  EpochSet& forbidden() { return forbidden_; }

  /// Runs one subspace search with heuristic `h` (a lower bound on the
  /// remaining distance to the destination set). Work counters are added
  /// to `stats`.
  SubspaceSearchResult Run(const SubspaceSearchRequest& request,
                           const Heuristic& h, QueryStats* stats);

  /// True when the zero-length suffix is a path of vertex `vx`'s subspace:
  /// its node is a destination and finishing there is not banned (the
  /// virtual edge (u, t) of the paper's reduction is intact). Never true
  /// at a virtual root.
  bool CanFinishAt(const PseudoTree::Vertex& vx) const {
    return !vx.finish_banned && vx.node != kInvalidNode &&
           targets_.Contains(vx.node);
  }

  /// The search of vertex `vx`'s subspace, before τ, the SPT_I restriction
  /// and cancellation: from vx's node past its prefix and banned hops, or,
  /// at a virtual root, from `root_seeds` over 0-weight hops.
  SubspaceSearchRequest RequestFor(const PseudoTree::Vertex& vx,
                                   std::span<const NodeId> root_seeds) const {
    SubspaceSearchRequest request;
    request.start = vx.node;
    if (vx.node == kInvalidNode) request.seeds = root_seeds;
    request.prefix_length = vx.prefix_length;
    request.banned_first_hops = vx.banned;
    request.start_counts_as_destination = CanFinishAt(vx);
    return request;
  }

  const Graph& graph() const { return graph_; }

 private:
  const Graph& graph_;
  EpochSet targets_;
  EpochSet forbidden_;
  EpochArray<PathLength> dist_;
  EpochArray<NodeId> parent_;
  IndexedHeap<PathLength> heap_;
  /// Backs the suffix of the most recent result; recycled every Run.
  Arena suffix_arena_;
};

}  // namespace kpj

#endif  // KPJ_CORE_CONSTRAINT_H_
