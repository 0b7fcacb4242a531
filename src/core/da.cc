#include "core/da.h"

#include <utility>

#include "sssp/heuristic.h"

namespace kpj {

DaSolver::DaSolver(const Graph& graph, const Graph& reverse,
                   const KpjOptions& options)
    : graph_(graph), search_(graph) {
  (void)reverse;   // DA needs no reverse graph.
  (void)options;   // ... and no landmarks / alpha.
}

bool DaSolver::ComputeCandidate(uint32_t v, ConstrainedSearch& cs,
                                SubspaceEntry* entry, QueryStats* stats) {
  const PseudoTree::Vertex& vx = tree_.vertex(v);
  cs.ClearForbidden();
  tree_.MarkPrefix(v, &cs.forbidden());

  SubspaceSearchRequest request = cs.RequestFor(vx, sources_);
  request.cancel = cancel_;

  ++stats->shortest_path_computations;
  ++stats->subspaces_created;
  SubspaceSearchResult result = cs.Run(request, ZeroHeuristic{}, stats);
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

void DaSolver::PushCandidate(uint32_t v, SubspaceQueue& queue,
                             QueryStats* stats) {
  SubspaceEntry entry;
  if (ComputeCandidate(v, search_, &entry, stats)) {
    queue.Push(std::move(entry));
  }
}

void DaSolver::ExpandDivision(const DivisionResult& division,
                              SubspaceQueue& queue, QueryStats* stats) {
  // Canonical slot order — revised vertex, then created vertices in
  // creation order — matches sequential execution exactly; everything
  // below preserves it regardless of which lane computes which slot.
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

KpjResult DaSolver::Run(const PreparedQuery& query) {
  KpjResult res;
  cancel_ = query.cancel;
  intra_ = query.intra;
  sources_ = query.sources;
  tree_.Reset(query.root());
  search_.SetTargets(query.targets);
  // Provision one extra search workspace per helper lane up front: lanes
  // must never allocate into shared vectors mid-round. Each workspace is a
  // pure function of (graph, targets), so every lane computes candidates
  // byte-identical to the main workspace.
  for (unsigned lane = 1; lane < IntraLanes(intra_); ++lane) {
    if (lane_search_.size() < lane) {
      lane_search_.push_back(std::make_unique<ConstrainedSearch>(graph_));
    }
    lane_search_[lane - 1]->SetTargets(query.targets);
  }

  SubspaceQueue queue;
  PushCandidate(tree_.root(), queue, &res.stats);
  // The root "candidate" is the true shortest path, not a division
  // by-product; it is not one of the O(k n) candidates of Alg. 1.
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
