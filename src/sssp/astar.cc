#include "sssp/astar.h"

#include <algorithm>

#include "util/logging.h"

namespace kpj {

AStar::AStar(const Graph& graph, const Heuristic* heuristic)
    : graph_(graph),
      heuristic_(heuristic),
      dist_(graph.NumNodes(), kInfLength),
      parent_(graph.NumNodes(), kInvalidNode),
      settled_(graph.NumNodes()),
      heap_(graph.NumNodes()) {
  KPJ_CHECK(heuristic_ != nullptr);
}

NodeId AStar::Loop(NodeId stop_node, const EpochSet* stop_set) {
  while (!heap_.empty()) {
    NodeId u = heap_.Pop();
    settled_.Insert(u);
    ++stats_.nodes_settled;
    if (algo_ != nullptr) ++algo_->node_expansions;
    if (u == stop_node) return u;
    if (stop_set != nullptr && stop_set->Contains(u)) return u;
    PathLength du = dist_.Get(u);
    for (const OutEdge& e : graph_.OutEdges(u)) {
      ++stats_.edges_relaxed;
      if (settled_.Contains(e.to)) continue;  // Consistent heuristic.
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
        heap_.PushOrDecrease(e.to, SatAdd(nd, heuristic_->Estimate(e.to)));
      }
    }
  }
  return kInvalidNode;
}

PathLength AStar::RunToTarget(NodeId source, NodeId target) {
  dist_.NewEpoch();
  parent_.NewEpoch();
  settled_.ClearAll();
  heap_.Clear();
  stats_.Reset();
  KPJ_CHECK(source < graph_.NumNodes());
  dist_.Set(source, 0);
  if (algo_ != nullptr) ++algo_->heap_pushes;
  heap_.Push(source, heuristic_->Estimate(source));
  NodeId hit = Loop(target, nullptr);
  return hit == kInvalidNode ? kInfLength : dist_.Get(target);
}

NodeId AStar::RunToAnyTarget(
    std::span<const std::pair<NodeId, PathLength>> sources,
    const EpochSet& targets) {
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
      heap_.PushOrDecrease(node, SatAdd(d0, heuristic_->Estimate(node)));
    }
  }
  return Loop(kInvalidNode, &targets);
}

std::vector<NodeId> AStar::PathTo(NodeId u) const {
  std::vector<NodeId> path;
  if (dist_.Get(u) == kInfLength) return path;
  NodeId cur = u;
  while (cur != kInvalidNode) {
    path.push_back(cur);
    KPJ_DCHECK(path.size() <= graph_.NumNodes()) << "parent cycle";
    cur = parent_.Get(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace kpj
