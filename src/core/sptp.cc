#include "core/sptp.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/spt_cache.h"

namespace kpj {

IterBoundSptpSolver::IterBoundSptpSolver(const Graph& graph,
                                         const Graph& reverse,
                                         const KpjOptions& options)
    : BestFirstFramework(graph, reverse, options,
                         /*iterative_bounding=*/true),
      sptp_(reverse),
      source_set_(reverse.NumNodes()) {}

bool IterBoundSptpSolver::InitializeQuery(const PreparedQuery& query,
                                          SubspaceEntry* initial,
                                          QueryStats* stats) {
  // Guide PartialSPT (Alg. 6) with lb(s, w): the A* on the reverse graph
  // aims at the source.
  source_bound_ = LandmarkSetBound();
  if (options_.oracle != nullptr) {
    source_bound_ = MakeCachedSetBound(
        options_.oracle, query.sources, BoundDirection::kFromSet,
        query.targets.front(), options_.max_active_landmarks, query.cache,
        &stats->algo);
  }
  sptp_.SetCancelToken(query.cancel);

  sptp_.SetAlgoStats(&stats->algo);
  std::vector<std::pair<NodeId, PathLength>> seeds;
  seeds.reserve(query.targets.size());
  for (NodeId t : query.targets) seeds.emplace_back(t, 0);
  sptp_.Initialize(seeds, source_bound_);
  source_set_.ClearAll();
  for (NodeId s : query.sources) source_set_.Insert(s);
  // The first source settled is the nearest one: the virtual source's
  // shortest path enters through it.
  const NodeId entry =
      sptp_.AdvanceUntilAnySettled(source_set_, source_bound_);
  sptp_.SetAlgoStats(nullptr);  // stats points at caller stack storage.
  stats->nodes_settled += sptp_.stats().nodes_settled;
  stats->edges_relaxed += sptp_.stats().edges_relaxed;
  stats->spt_nodes = sptp_.num_settled();
  // This initial computation answers the first shortest path; it is not a
  // separate CompSP (the SPT_P comes "without any extra cost").
  ++stats->shortest_path_computations;
  if (entry == kInvalidNode) return false;

  // lb(v, V_T): exact inside SPT_P, the oracle's Eq. (2) bound outside
  // (§5.2).
  LandmarkSetBound fallback;
  if (options_.oracle != nullptr) {
    fallback = MakeCachedSetBound(
        options_.oracle, query.targets, BoundDirection::kToSet, query.root(),
        options_.max_active_landmarks, query.cache, &stats->algo);
  }
  bound_ = TreeBound(&sptp_, std::move(fallback));

  // The reverse-graph tree path from a target root down to the entry
  // source is the forward shortest path read backwards.
  std::vector<NodeId> rooted = sptp_.PathTo(entry);
  KPJ_CHECK(!rooted.empty());
  std::reverse(rooted.begin(), rooted.end());
  KPJ_DCHECK(rooted.front() == entry);

  initial->vertex = tree_.root();
  initial->has_path = true;
  initial->suffix_length = sptp_.Distance(entry);
  initial->key = static_cast<double>(initial->suffix_length);
  // At a virtual root the suffix keeps its entry source.
  const size_t skip = query.root() == kInvalidNode ? 0 : 1;
  initial->suffix.assign(rooted.begin() + skip, rooted.end());
  return true;
}

}  // namespace kpj
