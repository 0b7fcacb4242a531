#include "core/da_spt.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/spt_cache.h"

namespace kpj {

DaSptSolver::DaSptSolver(const Graph& graph, const Graph& reverse,
                         const KpjOptions& options)
    : graph_(graph),
      reverse_(reverse),
      search_(graph),
      reverse_search_(reverse) {
  (void)options;  // DA-SPT uses neither landmarks nor alpha.
}

bool DaSptSolver::TryConcatenation(uint32_t v, ConstrainedSearch& cs,
                                   SubspaceEntry* entry, QueryStats* stats) {
  const PseudoTree::Vertex& vx = tree_.vertex(v);
  // Prefix nodes are already marked in cs.forbidden() by the caller.
  const EpochSet& forbidden = cs.forbidden();

  // Find the deviation edge minimizing weight + exact SPT distance.
  NodeId best_hop = kInvalidNode;
  PathLength best_estimate = kInfLength;
  std::span<const OutEdge> arcs = vx.node == kInvalidNode
                                      ? std::span<const OutEdge>(root_arcs_)
                                      : graph_.OutEdges(vx.node);
  for (const OutEdge& e : arcs) {
    if (forbidden.Contains(e.to)) continue;
    bool banned = false;
    for (NodeId b : vx.banned) {
      if (b == e.to) {
        banned = true;
        break;
      }
    }
    if (banned) continue;
    PathLength est = SatAdd(e.weight, full_spt_->dist[e.to]);
    if (est < best_estimate) {
      best_estimate = est;
      best_hop = e.to;
    }
  }
  if (best_hop == kInvalidNode || best_estimate == kInfLength) {
    // No finite deviation: either the subspace is empty or only the
    // zero-length suffix remains; let the general search decide.
    return false;
  }

  // Pascoal's test: the SPT path from best_hop must avoid prefix nodes
  // (it is itself simple, so this suffices for whole-path simplicity).
  SmallVec<NodeId, 8> suffix;
  suffix.push_back(best_hop);
  for (NodeId cur = best_hop;;) {
    // The walk is O(|path|) but paths can span most of a road network;
    // poll so a deadline cannot be overshot by a full concatenation. A
    // cancelled candidate falls back to the general search, which bails
    // on its first heap pop — the caller's loop then stops either way.
    if (cancel_ != nullptr && cancel_->ShouldStop()) return false;
    NodeId parent = full_spt_->parent[cur];
    if (parent == kInvalidNode) break;
    if (forbidden.Contains(parent)) return false;  // Not simple: fall back.
    suffix.push_back(parent);
    cur = parent;
  }

  ++stats->algo.candidates_generated;
  entry->vertex = v;
  entry->has_path = true;
  entry->suffix_length = best_estimate;
  entry->key = static_cast<double>(vx.prefix_length + best_estimate);
  entry->suffix = std::move(suffix);
  // Not counted in shortest_path_computations: the whole point of the
  // concatenation test is to avoid a shortest-path run.
  return true;
}

bool DaSptSolver::ComputeCandidate(uint32_t v, ConstrainedSearch& cs,
                                   SubspaceEntry* entry, QueryStats* stats) {
  const PseudoTree::Vertex& vx = tree_.vertex(v);
  cs.ClearForbidden();
  tree_.MarkPrefix(v, &cs.forbidden());
  ++stats->subspaces_created;

  // The zero-length suffix (prefix already ends at a target and finishing
  // is allowed) beats every deviation, so check it first.
  SubspaceSearchRequest request = cs.RequestFor(vx, sources_);
  request.cancel = cancel_;
  if (!request.start_counts_as_destination &&
      TryConcatenation(v, cs, entry, stats)) {
    return true;
  }

  FullSptBound bound(full_spt_.get());
  ++stats->shortest_path_computations;
  SubspaceSearchResult result = cs.Run(request, bound, stats);
  if (result.outcome != SearchOutcome::kFound) {
    ++stats->algo.candidates_pruned;
    return false;
  }

  ++stats->algo.candidates_generated;
  entry->vertex = v;
  entry->has_path = true;
  entry->suffix_length = result.suffix_length;
  entry->key = static_cast<double>(vx.prefix_length + result.suffix_length);
  std::span<const NodeId> suffix = result.SuffixAfter(vx.node);
  entry->suffix.assign(suffix.begin(), suffix.end());
  return true;
}

void DaSptSolver::PushCandidate(uint32_t v, SubspaceQueue& queue,
                                QueryStats* stats) {
  SubspaceEntry entry;
  if (ComputeCandidate(v, search_, &entry, stats)) {
    queue.Push(std::move(entry));
  }
}

void DaSptSolver::ExpandDivision(const DivisionResult& division,
                                 SubspaceQueue& queue, QueryStats* stats) {
  std::vector<uint32_t> slots;
  slots.reserve(1 + division.created.size());
  slots.push_back(division.revised);
  slots.insert(slots.end(), division.created.begin(),
               division.created.end());

  struct Slot {
    SubspaceEntry entry;
    QueryStats stats;
    bool found = false;
  };
  std::vector<Slot> results(slots.size());
  RunDeviationRound(
      intra_, slots.size(), &stats->algo, [&](size_t i, unsigned lane) {
        ConstrainedSearch& cs =
            lane == 0 ? search_ : *lane_search_[lane - 1];
        results[i].found =
            ComputeCandidate(slots[i], cs, &results[i].entry,
                             &results[i].stats);
      });
  for (Slot& r : results) {
    stats->Accumulate(r.stats);
    if (r.found) queue.Push(std::move(r.entry));
  }
}

KpjResult DaSptSolver::Run(const PreparedQuery& query) {
  KpjResult res;
  cancel_ = query.cancel;
  intra_ = query.intra;
  sources_ = query.sources;
  root_arcs_.clear();
  if (query.root() == kInvalidNode) {
    for (NodeId s : query.sources) root_arcs_.push_back({s, 0});
  }
  tree_.Reset(query.root());
  search_.SetTargets(query.targets);
  for (unsigned lane = 1; lane < IntraLanes(intra_); ++lane) {
    if (lane_search_.size() < lane) {
      lane_search_.push_back(std::make_unique<ConstrainedSearch>(graph_));
    }
    lane_search_[lane - 1]->SetTargets(query.targets);
  }

  // Build the full SPT toward the (virtual) destination: one multi-source
  // Dijkstra on the reverse graph over all of V_T. This is DA-SPT's
  // up-front cost (paper §3, deficiency 3) — and the payoff of the
  // cross-query cache: the SPT depends only on the target set, so every
  // query against the same category reuses it.
  SptCache* cache = query.cache != nullptr ? query.cache->spt : nullptr;
  SptCacheKey key;
  if (cache != nullptr) {
    key.kind = SptCacheKind::kReverseTargetSpt;
    key.epoch = query.cache->epoch;
    key.targets = query.targets;
  }
  full_spt_.reset();
  if (cache != nullptr) {
    if (std::optional<SptCacheValue> hit = cache->Lookup(key)) {
      full_spt_ = hit->full_spt;
      ++res.stats.algo.spt_cache_hits;
      // spt_nodes stays 0: stats report work actually performed.
    } else {
      ++res.stats.algo.spt_cache_misses;
    }
  }
  if (full_spt_ == nullptr) {
    std::vector<std::pair<NodeId, PathLength>> seeds;
    seeds.reserve(query.targets.size());
    for (NodeId t : query.targets) seeds.emplace_back(t, 0);
    reverse_search_.SetCancelToken(cancel_);
    reverse_search_.SetAlgoStats(&res.stats.algo);
    reverse_search_.Initialize(seeds, ZeroHeuristic{});
    reverse_search_.AdvanceToBound(kInfLength, ZeroHeuristic{});
    reverse_search_.SetAlgoStats(nullptr);  // res is stack storage.
    res.stats.nodes_settled += reverse_search_.stats().nodes_settled;
    res.stats.edges_relaxed += reverse_search_.stats().edges_relaxed;
    res.stats.spt_nodes = reverse_search_.stats().nodes_settled;
    if (cancel_ != nullptr && cancel_->ShouldStop()) {
      // A truncated SPT has unusable distances; stop before any candidate
      // and never cache it.
      res.status = cancel_->CancelStatus();
      return res;
    }
    full_spt_ =
        std::make_shared<const SptResult>(reverse_search_.ExportDense());
    if (cache != nullptr) {
      SptCacheValue value;
      value.full_spt = full_spt_;
      value.cost = res.stats.spt_nodes;
      cache->Insert(std::move(key), std::move(value));
    }
  }

  SubspaceQueue queue;
  PushCandidate(tree_.root(), queue, &res.stats);
  res.stats.subspaces_created = 0;

  while (res.paths.size() < query.k && !queue.empty()) {
    if (cancel_ != nullptr && cancel_->ShouldStop()) break;
    res.stats.max_queue_size =
        std::max<uint64_t>(res.stats.max_queue_size, queue.size());
    SubspaceEntry entry = queue.Pop();
    res.paths.push_back(AssemblePath(tree_, entry, /*reverse_oriented=*/false));

    if (res.paths.size() == query.k) break;
    DivisionResult division = DivideSubspace(
        tree_, graph_, entry.vertex, entry.suffix,
        /*create_destination_vertex=*/true);
    ExpandDivision(division, queue, &res.stats);
  }
  if (cancel_ != nullptr && cancel_->ShouldStop() &&
      res.paths.size() < query.k) {
    res.status = cancel_->CancelStatus();
  }
  return res;
}

}  // namespace kpj
