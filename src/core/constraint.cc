#include "core/constraint.h"

#include <algorithm>

#include "util/logging.h"

namespace kpj {

ConstrainedSearch::ConstrainedSearch(const Graph& graph)
    : graph_(graph),
      targets_(graph.NumNodes()),
      forbidden_(graph.NumNodes()),
      dist_(graph.NumNodes(), kInfLength),
      parent_(graph.NumNodes(), kInvalidNode),
      heap_(graph.NumNodes()) {}

void ConstrainedSearch::SetTargets(std::span<const NodeId> targets) {
  targets_.ClearAll();
  for (NodeId t : targets) {
    KPJ_CHECK(t < graph_.NumNodes());
    targets_.Insert(t);
  }
}

SubspaceSearchResult ConstrainedSearch::Run(
    const SubspaceSearchRequest& request, const Heuristic& h,
    QueryStats* stats) {
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
    PathLength du = dist_.Get(u);
    for (const OutEdge& e : graph_.OutEdges(u)) {
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
        if (heap_.Contains(w)) {
          ++stats->algo.heap_decrease_keys;
        } else {
          ++stats->algo.heap_pushes;
        }
        heap_.PushOrDecrease(w, SatAdd(nd, hw));
      }
    }
  }

  out.outcome = (pruned_by_tau || skipped_unsettled)
                    ? SearchOutcome::kBounded
                    : SearchOutcome::kEmpty;
  return out;
}

}  // namespace kpj
