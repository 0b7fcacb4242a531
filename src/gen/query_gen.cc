#include "gen/query_gen.h"

#include <algorithm>
#include <numeric>

#include "sssp/incremental_search.h"
#include "util/logging.h"
#include "util/rng.h"

namespace kpj {

std::vector<PathLength> DistancesToTargets(const Graph& reverse_graph,
                                           std::span<const NodeId> targets) {
  SptResult spt = DistancesToSet(reverse_graph, targets);
  return std::move(spt.dist);
}

QuerySets GenerateQuerySets(const Graph& reverse_graph,
                            std::span<const NodeId> targets, size_t per_set,
                            uint64_t seed) {
  std::vector<PathLength> dist = DistancesToTargets(reverse_graph, targets);

  EpochSet is_target(reverse_graph.NumNodes());
  for (NodeId t : targets) is_target.Insert(t);

  // Candidate pool: nodes that can reach the category and are not in it.
  std::vector<NodeId> candidates;
  candidates.reserve(dist.size());
  for (NodeId u = 0; u < dist.size(); ++u) {
    if (dist[u] != kInfLength && !is_target.Contains(u)) {
      candidates.push_back(u);
    }
  }
  KPJ_CHECK(!candidates.empty()) << "no node can reach the target category";

  std::sort(candidates.begin(), candidates.end(),
            [&dist](NodeId a, NodeId b) {
              return dist[a] < dist[b] || (dist[a] == dist[b] && a < b);
            });

  QuerySets out;
  Rng rng(seed);
  size_t total = candidates.size();
  for (size_t group = 0; group < 5; ++group) {
    size_t begin = total * group / 5;
    size_t end = total * (group + 1) / 5;
    size_t span = end - begin;
    if (span == 0) continue;
    size_t take = std::min(per_set, span);
    for (uint64_t offset : rng.SampleDistinct(take, span)) {
      out.q[group].push_back(candidates[begin + offset]);
    }
  }
  return out;
}

}  // namespace kpj
