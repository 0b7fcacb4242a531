#ifndef KPJ_CORE_PSEUDO_TREE_H_
#define KPJ_CORE_PSEUDO_TREE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/epoch_array.h"
#include "util/small_vec.h"
#include "util/types.h"

namespace kpj {

/// Trie-like pseudo-tree of chosen paths (paper §3) — the shared backbone
/// of the deviation baselines AND the best-first/iteratively-bounding
/// approaches: the paper's subspaces ⟨P_{s,u}, X_u⟩ (Def. 4.1) are in
/// one-to-one correspondence with its vertices (proof of Lemma 4.1).
///
/// A vertex stores its graph node, parent vertex, prefix length, and the
/// subspace's excluded-edge set X_u as a list of banned next-hop nodes. A
/// node of the graph may appear in many vertices (hence "pseudo"). For KPJ
/// the destination is a *set*, so a chosen path may be extended through its
/// own destination toward another target; the `finish_banned` flag plays
/// the role of the banned virtual edge (u, t) of the paper's reduction.
///
/// The same structure serves the reverse-oriented IterBound-SPT_I search
/// (§5.3): there the root is the virtual destination t (node ==
/// kInvalidNode) and edges are reverse-graph arcs.
class PseudoTree {
 public:
  static constexpr uint32_t kNoVertex = UINT32_MAX;

  struct Vertex {
    /// Graph node, or kInvalidNode for a virtual root.
    NodeId node = kInvalidNode;
    uint32_t parent = kNoVertex;
    /// Length of the tree path from the root to this vertex.
    PathLength prefix_length = 0;
    /// Banned next-hop nodes (the subspace's X_u, stored by target node).
    /// Small-vector backed: one division bans one hop, so most lists hold
    /// a handful of entries.
    SmallVec<NodeId, 4> banned;
    /// If true, paths of this subspace may pass through but not *end* at
    /// this vertex's node (the banned virtual edge (u, t)).
    bool finish_banned = false;
  };

  /// Clears the tree and creates vertex 0 rooted at `root_node`
  /// (kInvalidNode for the virtual destination of the reverse search).
  void Reset(NodeId root_node);

  uint32_t root() const { return 0; }
  size_t size() const { return vertices_.size(); }

  const Vertex& vertex(uint32_t v) const {
    KPJ_DCHECK(v < vertices_.size());
    return vertices_[v];
  }

  /// Appends a child of `parent` reached via an edge of weight `weight`.
  uint32_t AddChild(uint32_t parent, NodeId node, Weight weight);

  /// Adds `hop` to X_u of vertex `v`.
  void BanHop(uint32_t v, NodeId hop);

  /// Forbids paths of v's subspace from ending at v's node.
  void BanFinish(uint32_t v) {
    KPJ_DCHECK(v < vertices_.size());
    vertices_[v].finish_banned = true;
  }

  /// Marks the graph nodes on the root→v tree path (inclusive, skipping a
  /// virtual root) into `forbidden`. O(depth). The caller owns clearing.
  void MarkPrefix(uint32_t v, EpochSet* forbidden) const;

  /// Appends the graph nodes of the root→v path (skipping a virtual root)
  /// to `out`, in root-first order. O(depth). Works with any push_back-able
  /// contiguous container (std::vector, PathNodes).
  template <typename Container>
  void GetPrefixNodes(uint32_t v, Container* out) const {
    size_t first = out->size();
    for (uint32_t cur = v; cur != kNoVertex; cur = vertices_[cur].parent) {
      if (vertices_[cur].node != kInvalidNode) {
        out->push_back(vertices_[cur].node);
      }
    }
    std::reverse(out->begin() + first, out->end());
  }

 private:
  std::vector<Vertex> vertices_;
};

/// Vertices whose subspaces changed in a division: `revised` is the popped
/// vertex with a newly banned hop (or finish), `created` are fresh
/// vertices along the chosen path's suffix. Together they are the l+1
/// subspaces of the paper's §4.1 (minus the singleton {P}).
struct DivisionResult {
  uint32_t revised = PseudoTree::kNoVertex;
  std::vector<uint32_t> created;
};

/// Divides the subspace of vertex `u` after its shortest path was chosen
/// (Alg. 2 lines 7-10). `suffix` holds the path's nodes strictly after
/// u's node (so the full path is prefix(u) + suffix). `graph` supplies
/// deviation-edge weights; for a virtual root the first hop has weight 0.
///
/// If `create_destination_vertex` is true (forward KPJ orientation, where
/// other targets may lie beyond this path's destination), the suffix's
/// last node also becomes a vertex with `finish_banned` set; the reverse
/// orientation passes false because its destination is a single node.
DivisionResult DivideSubspace(PseudoTree& tree, const Graph& graph,
                              uint32_t u, std::span<const NodeId> suffix,
                              bool create_destination_vertex);

/// Rank of a node that is not on the ranked path (EpochArray default).
inline constexpr uint32_t kUnranked = UINT32_MAX;

/// Ranks the chosen path of `division` in one O(l + depth) pass, so the
/// division's CompLB round needs no prefix walk per subspace: the nodes of
/// prefix(revised) get 1..D (root first, a virtual root skipped) and the
/// node of created[i] gets D+1+i; every other node reads kUnranked. The
/// prefix of slot j (0 = revised, j = created[j-1]) is then exactly the
/// set of nodes whose rank is <= D + j. Starts a new epoch of `rank`
/// (default kUnranked) and returns D.
uint32_t RankDivisionPath(const PseudoTree& tree,
                          const DivisionResult& division,
                          EpochArray<uint32_t>* rank);

}  // namespace kpj

#endif  // KPJ_CORE_PSEUDO_TREE_H_
