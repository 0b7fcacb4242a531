#include "sssp/incremental_search.h"

#include <algorithm>

#include "util/logging.h"

namespace kpj {

IncrementalSearch::IncrementalSearch(const Graph& graph)
    : graph_(graph),
      dist_(graph.NumNodes(), kInfLength),
      parent_(graph.NumNodes(), kInvalidNode),
      settled_(graph.NumNodes()),
      heap_(graph.NumNodes()) {}

void IncrementalSearch::ExportSnapshot(SearchSnapshot* out) const {
  out->touched = touched_;
  out->dist.clear();
  out->parent.clear();
  out->settled.clear();
  out->dist.reserve(touched_.size());
  out->parent.reserve(touched_.size());
  out->settled.reserve(touched_.size());
  for (NodeId u : touched_) {
    KPJ_DCHECK(dist_.Stamped(u));
    out->dist.push_back(dist_.Get(u));
    out->parent.push_back(parent_.Get(u));
    out->settled.push_back(settled_.Contains(u) ? 1 : 0);
  }
  heap_.ExportRaw(&out->heap);
  out->num_settled = num_settled_;
}

void IncrementalSearch::RestoreSnapshot(const SearchSnapshot& snap) {
  KPJ_CHECK(snap.dist.size() == snap.touched.size());
  KPJ_CHECK(snap.parent.size() == snap.touched.size());
  KPJ_CHECK(snap.settled.size() == snap.touched.size());
  dist_.NewEpoch();
  parent_.NewEpoch();
  settled_.ClearAll();
  stats_.Reset();
  touched_ = snap.touched;
  for (size_t i = 0; i < snap.touched.size(); ++i) {
    NodeId u = snap.touched[i];
    KPJ_CHECK(u < graph_.NumNodes());
    dist_.Set(u, snap.dist[i]);
    parent_.Set(u, snap.parent[i]);
    if (snap.settled[i] != 0) settled_.Insert(u);
  }
  heap_.RestoreRaw(snap.heap);
  num_settled_ = snap.num_settled;
}

SptResult IncrementalSearch::ExportDense() const {
  SptResult out;
  const NodeId n = graph_.NumNodes();
  out.dist.resize(n);
  out.parent.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    out.dist[u] = dist_.Get(u);
    out.parent[u] = parent_.Get(u);
  }
  return out;
}

std::vector<NodeId> IncrementalSearch::PathTo(NodeId u) const {
  std::vector<NodeId> path;
  if (!Settled(u)) return path;
  NodeId cur = u;
  while (cur != kInvalidNode) {
    path.push_back(cur);
    KPJ_DCHECK(path.size() <= graph_.NumNodes()) << "parent cycle";
    cur = parent_.Get(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

SptResult SingleSourceShortestPaths(const Graph& graph, NodeId source) {
  ZeroHeuristic zero;
  IncrementalSearch engine(graph);
  std::pair<NodeId, PathLength> seed[] = {{source, 0}};
  engine.Initialize(seed, zero);
  engine.AdvanceToBound(kInfLength, zero);
  return engine.ExportDense();
}

SptResult DistancesToSet(const Graph& reverse_graph,
                         std::span<const NodeId> targets) {
  ZeroHeuristic zero;
  IncrementalSearch engine(reverse_graph);
  std::vector<std::pair<NodeId, PathLength>> seeds;
  seeds.reserve(targets.size());
  for (NodeId t : targets) seeds.emplace_back(t, 0);
  engine.Initialize(seeds, zero);
  engine.AdvanceToBound(kInfLength, zero);
  return engine.ExportDense();
}

}  // namespace kpj
