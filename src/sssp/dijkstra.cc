#include "sssp/dijkstra.h"

#include <algorithm>

#include "util/logging.h"

namespace kpj {

Dijkstra::Dijkstra(const Graph& graph)
    : graph_(graph),
      dist_(graph.NumNodes(), kInfLength),
      parent_(graph.NumNodes(), kInvalidNode),
      settled_(graph.NumNodes()),
      heap_(graph.NumNodes()) {}

void Dijkstra::Prepare(
    std::span<const std::pair<NodeId, PathLength>> sources) {
  dist_.NewEpoch();
  parent_.NewEpoch();
  settled_.ClearAll();
  heap_.Clear();
  stats_.Reset();
  for (const auto& [node, d0] : sources) {
    KPJ_CHECK(node < graph_.NumNodes());
    if (d0 < dist_.Get(node)) {
      dist_.Set(node, d0);
      parent_.Set(node, kInvalidNode);
      if (algo_ != nullptr) {
        if (heap_.Contains(node)) {
          ++algo_->heap_decrease_keys;
        } else {
          ++algo_->heap_pushes;
        }
      }
      heap_.PushOrDecrease(node, d0);
    }
  }
}

NodeId Dijkstra::Loop(NodeId stop_node, const EpochSet* stop_set) {
  while (!heap_.empty()) {
    if (cancel_ != nullptr && cancel_->ShouldStop()) return kInvalidNode;
    auto [u, du] = heap_.PopWithKey();
    settled_.Insert(u);
    ++stats_.nodes_settled;
    if (algo_ != nullptr) ++algo_->node_expansions;
    if (u == stop_node) return u;
    if (stop_set != nullptr && stop_set->Contains(u)) return u;
    for (const OutEdge& e : graph_.OutEdges(u)) {
      ++stats_.edges_relaxed;
      if (settled_.Contains(e.to)) continue;
      PathLength nd = du + e.weight;
      if (nd < dist_.Get(e.to)) {
        dist_.Set(e.to, nd);
        parent_.Set(e.to, u);
        if (algo_ != nullptr) {
          if (heap_.Contains(e.to)) {
            ++algo_->heap_decrease_keys;
          } else {
            ++algo_->heap_pushes;
          }
        }
        heap_.PushOrDecrease(e.to, nd);
      }
    }
  }
  return kInvalidNode;
}

void Dijkstra::Run(NodeId source) {
  std::pair<NodeId, PathLength> seed[] = {{source, 0}};
  Prepare(seed);
  Loop(kInvalidNode, nullptr);
}

void Dijkstra::RunMultiSource(
    std::span<const std::pair<NodeId, PathLength>> sources) {
  Prepare(sources);
  Loop(kInvalidNode, nullptr);
}

PathLength Dijkstra::RunToTarget(NodeId source, NodeId target) {
  std::pair<NodeId, PathLength> seed[] = {{source, 0}};
  Prepare(seed);
  NodeId hit = Loop(target, nullptr);
  return hit == kInvalidNode ? kInfLength : dist_.Get(target);
}

NodeId Dijkstra::RunToAnyTarget(NodeId source, const EpochSet& targets) {
  std::pair<NodeId, PathLength> seed[] = {{source, 0}};
  Prepare(seed);
  return Loop(kInvalidNode, &targets);
}

std::vector<NodeId> Dijkstra::PathTo(NodeId u) const {
  std::vector<NodeId> path;
  if (!Settled(u) && dist_.Get(u) == kInfLength) return path;
  NodeId cur = u;
  while (cur != kInvalidNode) {
    path.push_back(cur);
    KPJ_DCHECK(path.size() <= graph_.NumNodes()) << "parent cycle";
    cur = parent_.Get(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

SptResult Dijkstra::Snapshot() const {
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

SptResult SingleSourceShortestPaths(const Graph& graph, NodeId source) {
  Dijkstra engine(graph);
  engine.Run(source);
  return engine.Snapshot();
}

SptResult DistancesToSet(const Graph& reverse_graph,
                         std::span<const NodeId> targets) {
  Dijkstra engine(reverse_graph);
  std::vector<std::pair<NodeId, PathLength>> seeds;
  seeds.reserve(targets.size());
  for (NodeId t : targets) seeds.emplace_back(t, 0);
  engine.RunMultiSource(seeds);
  return engine.Snapshot();
}

}  // namespace kpj
