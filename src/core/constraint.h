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
#include "util/logging.h"
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

  /// Runs one subspace search with bound `h` (a lower bound on the
  /// remaining distance to the destination set; see sssp/heuristic.h).
  /// Work counters are added to `stats`.
  template <typename Bound>
  SubspaceSearchResult Run(const SubspaceSearchRequest& request,
                           const Bound& h, QueryStats* stats);

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

template <typename Bound>
SubspaceSearchResult ConstrainedSearch::Run(
    const SubspaceSearchRequest& request, const Bound& h, QueryStats* stats) {
  SubspaceSearchResult out;
  KPJ_DCHECK(request.start < graph_.NumNodes() ||
             request.start == kInvalidNode);
  // The previous result's suffix dies here, as documented on
  // SubspaceSearchResult.
  suffix_arena_.Reset();

  // Zero-length suffix: the prefix itself ends at a target and finishing
  // there is allowed — it is necessarily the shortest path in the subspace.
  if (request.start_counts_as_destination) {
    if (static_cast<double>(request.prefix_length) <= request.tau) {
      out.outcome = SearchOutcome::kFound;
      std::span<NodeId> only = suffix_arena_.AllocateArray<NodeId>(1);
      only[0] = request.start;
      out.suffix = only;
      out.suffix_length = 0;
    } else {
      out.outcome = SearchOutcome::kBounded;
    }
    return out;
  }

  dist_.NewEpoch();
  parent_.NewEpoch();
  heap_.Clear();

  bool pruned_by_tau = false;
  bool skipped_unsettled = false;

  if (request.start != kInvalidNode) {
    PathLength h0 = h.Estimate(request.start);
    if (h0 == kInfLength) {
      // The heuristic proves the destination set unreachable from the
      // start even without constraints: the subspace is empty.
      out.outcome = SearchOutcome::kEmpty;
      return out;
    }
    if (static_cast<double>(SatAdd(request.prefix_length, h0)) >
        request.tau) {
      out.outcome = SearchOutcome::kBounded;
      return out;
    }
    dist_.Set(request.start, 0);
    ++stats->algo.heap_pushes;
    heap_.Push(request.start, h0);
  } else {
    // Virtual root: seed from its real neighbours over 0-weight hops.
    if (request.seeds_incomplete) skipped_unsettled = true;
    for (NodeId seed : request.seeds) {
      bool banned = false;
      for (NodeId b : request.banned_first_hops) {
        if (b == seed) {
          banned = true;
          break;
        }
      }
      if (banned || forbidden_.Contains(seed)) continue;
      if (request.restrict_to != nullptr &&
          !request.restrict_to->Settled(seed)) {
        if (!request.restrict_to->Exhausted()) skipped_unsettled = true;
        continue;
      }
      PathLength hs = h.Estimate(seed);
      if (hs == kInfLength) continue;
      if (static_cast<double>(SatAdd(request.prefix_length, hs)) >
          request.tau) {
        pruned_by_tau = true;
        continue;
      }
      if (!heap_.Contains(seed)) {
        dist_.Set(seed, 0);
        ++stats->algo.heap_pushes;
        heap_.Push(seed, hs);
      }
    }
  }

  while (!heap_.empty()) {
    if (request.cancel != nullptr && request.cancel->ShouldStop()) {
      // Abandon mid-search: kBounded keeps the subspace alive, and the
      // caller notices the latched token before acting on the outcome.
      out.outcome = SearchOutcome::kBounded;
      return out;
    }
    NodeId u = heap_.Pop();
    ++stats->nodes_settled;
    ++stats->algo.node_expansions;
    if (u != request.start && targets_.Contains(u)) {
      // First pop of a target: optimal by A* admissibility (heuristics
      // here are admissible; the SPT_P-augmented one is not consistent,
      // which the reopening relaxation below accounts for).
      out.outcome = SearchOutcome::kFound;
      out.suffix_length = dist_.Get(u);
      size_t hops = 0;
      for (NodeId cur = u; cur != kInvalidNode; cur = parent_.Get(cur)) {
        ++hops;
      }
      std::span<NodeId> suffix = suffix_arena_.AllocateArray<NodeId>(hops);
      size_t slot = hops;
      for (NodeId cur = u; cur != kInvalidNode; cur = parent_.Get(cur)) {
        suffix[--slot] = cur;
      }
      out.suffix = suffix;
      // A real start heads its own suffix; a virtual root's suffix starts
      // at whichever seed the path entered through.
      KPJ_DCHECK(request.start == kInvalidNode ||
                 out.suffix.front() == request.start);
      return out;
    }
    const std::span<const OutEdge> arcs = graph_.OutEdges(u);
    // Start the bound's loads for every head before the first Estimate, so
    // their cache misses overlap instead of queueing behind each other.
    for (const OutEdge& e : arcs) {
      if (!forbidden_.Contains(e.to)) h.Prefetch(e.to);
    }
    const PathLength du = dist_.Get(u);
    for (const OutEdge& e : arcs) {
      ++stats->edges_relaxed;
      NodeId w = e.to;
      if (u == request.start) {
        bool banned = false;
        for (NodeId b : request.banned_first_hops) {
          if (b == w) {
            banned = true;
            break;
          }
        }
        if (banned) continue;
      }
      if (forbidden_.Contains(w)) continue;  // Prefix node: keep it simple.
      if (request.restrict_to != nullptr && !request.restrict_to->Settled(w)) {
        // SPT_I restriction (§5.3). If the incremental search is exhausted,
        // an unsettled node is plainly unreachable from the source and can
        // never be on a result path; otherwise Prop. 5.2 only guarantees
        // coverage up to τ, so record that we may have cut a longer path.
        if (!request.restrict_to->Exhausted()) skipped_unsettled = true;
        continue;
      }
      PathLength nd = du + e.weight;
      if (nd < dist_.Get(w)) {
        PathLength hw = h.Estimate(w);
        if (hw == kInfLength) continue;  // Provably a dead end.
        double est = static_cast<double>(
            SatAdd(request.prefix_length, SatAdd(nd, hw)));
        if (est > request.tau) {
          // Alg. 5 line 10: only nodes whose estimate is within τ enter
          // the queue.
          pruned_by_tau = true;
          continue;
        }
        dist_.Set(w, nd);
        parent_.Set(w, u);
        if (heap_.PushOrDecrease(w, SatAdd(nd, hw)) == HeapUpdate::kPushed) {
          ++stats->algo.heap_pushes;
        } else {
          ++stats->algo.heap_decrease_keys;
        }
      }
    }
  }

  out.outcome = (pruned_by_tau || skipped_unsettled)
                    ? SearchOutcome::kBounded
                    : SearchOutcome::kEmpty;
  return out;
}

}  // namespace kpj

#endif  // KPJ_CORE_CONSTRAINT_H_
