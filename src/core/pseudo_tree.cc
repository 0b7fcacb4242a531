#include "core/pseudo_tree.h"

#include <algorithm>

namespace kpj {

void PseudoTree::Reset(NodeId root_node) {
  vertices_.clear();
  Vertex root;
  root.node = root_node;
  vertices_.push_back(std::move(root));
}

uint32_t PseudoTree::AddChild(uint32_t parent, NodeId node, Weight weight) {
  KPJ_DCHECK(parent < vertices_.size());
  Vertex child;
  child.node = node;
  child.parent = parent;
  child.prefix_length = vertices_[parent].prefix_length + weight;
  vertices_.push_back(std::move(child));
  return static_cast<uint32_t>(vertices_.size() - 1);
}

void PseudoTree::BanHop(uint32_t v, NodeId hop) {
  KPJ_DCHECK(v < vertices_.size());
  auto& banned = vertices_[v].banned;
  KPJ_DCHECK(std::find(banned.begin(), banned.end(), hop) == banned.end())
      << "hop banned twice";
  banned.push_back(hop);
}

void PseudoTree::MarkPrefix(uint32_t v, EpochSet* forbidden) const {
  for (uint32_t cur = v; cur != kNoVertex; cur = vertices_[cur].parent) {
    if (vertices_[cur].node != kInvalidNode) {
      forbidden->Insert(vertices_[cur].node);
    }
  }
}

DivisionResult DivideSubspace(PseudoTree& tree, const Graph& graph,
                              uint32_t u, std::span<const NodeId> suffix,
                              bool create_destination_vertex) {
  DivisionResult out;
  out.revised = u;

  if (suffix.empty()) {
    // The chosen path ends exactly at u's node: the only way to shrink
    // this subspace is to forbid ending there again.
    KPJ_CHECK(!tree.vertex(u).finish_banned)
        << "popped a zero-suffix path from a finish-banned subspace";
    tree.BanFinish(u);
    return out;
  }

  tree.BanHop(u, suffix[0]);

  uint32_t cur = u;
  for (size_t i = 0; i < suffix.size(); ++i) {
    bool is_last = (i + 1 == suffix.size());
    if (is_last && !create_destination_vertex) break;
    Weight weight = 0;
    NodeId cur_node = tree.vertex(cur).node;
    if (cur_node != kInvalidNode) {
      PathLength w = graph.EdgeWeight(cur_node, suffix[i]);
      KPJ_CHECK(w != kInfLength) << "chosen path uses a missing edge";
      weight = static_cast<Weight>(w);
    }
    uint32_t child = tree.AddChild(cur, suffix[i], weight);
    if (!is_last) {
      tree.BanHop(child, suffix[i + 1]);
    } else {
      tree.BanFinish(child);
    }
    out.created.push_back(child);
    cur = child;
  }
  return out;
}

uint32_t RankDivisionPath(const PseudoTree& tree,
                          const DivisionResult& division,
                          EpochArray<uint32_t>* rank) {
  rank->NewEpoch();
  uint32_t depth = 0;
  for (uint32_t cur = division.revised; cur != PseudoTree::kNoVertex;
       cur = tree.vertex(cur).parent) {
    if (tree.vertex(cur).node != kInvalidNode) ++depth;
  }
  // Chosen paths are simple, so no node is ranked twice.
  uint32_t r = depth;
  for (uint32_t cur = division.revised; cur != PseudoTree::kNoVertex;
       cur = tree.vertex(cur).parent) {
    NodeId node = tree.vertex(cur).node;
    if (node == kInvalidNode) continue;
    KPJ_DCHECK(!rank->Stamped(node));
    rank->Set(node, r--);
  }
  r = depth;
  for (uint32_t v : division.created) {
    NodeId node = tree.vertex(v).node;
    KPJ_DCHECK(!rank->Stamped(node));
    rank->Set(node, ++r);
  }
  return depth;
}

}  // namespace kpj
