#include "core/pseudo_tree.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/graph_builder.h"

namespace kpj {
namespace {

Graph Chain() {
  GraphBuilder b(5);
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 2, 2);
  b.AddEdge(2, 3, 3);
  b.AddEdge(1, 4, 5);
  b.AddEdge(4, 3, 1);
  return b.Build();
}

TEST(PseudoTreeTest, ResetCreatesRoot) {
  PseudoTree tree;
  tree.Reset(7);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.vertex(tree.root()).node, 7u);
  EXPECT_EQ(tree.vertex(tree.root()).parent, PseudoTree::kNoVertex);
  EXPECT_EQ(tree.vertex(tree.root()).prefix_length, 0u);
}

TEST(PseudoTreeTest, AddChildTracksPrefixLength) {
  PseudoTree tree;
  tree.Reset(0);
  uint32_t a = tree.AddChild(tree.root(), 1, 10);
  uint32_t b = tree.AddChild(a, 2, 5);
  EXPECT_EQ(tree.vertex(a).prefix_length, 10u);
  EXPECT_EQ(tree.vertex(b).prefix_length, 15u);
  EXPECT_EQ(tree.vertex(b).parent, a);
}

TEST(PseudoTreeTest, PrefixCollectionAndMarking) {
  PseudoTree tree;
  tree.Reset(0);
  uint32_t a = tree.AddChild(tree.root(), 3, 1);
  uint32_t b = tree.AddChild(a, 5, 1);
  std::vector<NodeId> prefix;
  tree.GetPrefixNodes(b, &prefix);
  EXPECT_EQ(prefix, (std::vector<NodeId>{0, 3, 5}));

  EpochSet marks(8);
  tree.MarkPrefix(b, &marks);
  EXPECT_TRUE(marks.Contains(0));
  EXPECT_TRUE(marks.Contains(3));
  EXPECT_TRUE(marks.Contains(5));
  EXPECT_FALSE(marks.Contains(1));
}

TEST(PseudoTreeTest, VirtualRootSkippedInPrefix) {
  PseudoTree tree;
  tree.Reset(kInvalidNode);
  uint32_t a = tree.AddChild(tree.root(), 2, 0);
  std::vector<NodeId> prefix;
  tree.GetPrefixNodes(a, &prefix);
  EXPECT_EQ(prefix, (std::vector<NodeId>{2}));
  EpochSet marks(4);
  tree.MarkPrefix(tree.root(), &marks);
  for (NodeId v = 0; v < 4; ++v) EXPECT_FALSE(marks.Contains(v));
}

TEST(PseudoTreeTest, DivideAlongSuffixForwardOrientation) {
  PseudoTree tree;
  tree.Reset(0);
  Graph g = Chain();
  // Chosen path 0 -> 1 -> 2 -> 3 from the root subspace.
  std::vector<NodeId> suffix = {1, 2, 3};
  DivisionResult div = DivideSubspace(tree, g, tree.root(), suffix,
                                      /*create_destination_vertex=*/true);
  EXPECT_EQ(div.revised, tree.root());
  ASSERT_EQ(div.created.size(), 3u);
  // Root now bans hop 1.
  EXPECT_EQ(tree.vertex(tree.root()).banned, (std::vector<NodeId>{1}));
  // Vertex for node 1 bans hop 2.
  const auto& v1 = tree.vertex(div.created[0]);
  EXPECT_EQ(v1.node, 1u);
  EXPECT_EQ(v1.banned, (std::vector<NodeId>{2}));
  EXPECT_EQ(v1.prefix_length, 1u);
  // Vertex for node 2 bans hop 3.
  const auto& v2 = tree.vertex(div.created[1]);
  EXPECT_EQ(v2.node, 2u);
  EXPECT_EQ(v2.banned, (std::vector<NodeId>{3}));
  EXPECT_EQ(v2.prefix_length, 3u);
  // Destination vertex: finish banned, nothing else.
  const auto& v3 = tree.vertex(div.created[2]);
  EXPECT_EQ(v3.node, 3u);
  EXPECT_TRUE(v3.finish_banned);
  EXPECT_TRUE(v3.banned.empty());
  EXPECT_EQ(v3.prefix_length, 6u);
}

TEST(PseudoTreeTest, DivideWithoutDestinationVertex) {
  PseudoTree tree;
  tree.Reset(0);
  Graph g = Chain();
  std::vector<NodeId> suffix = {1, 2, 3};
  DivisionResult div = DivideSubspace(tree, g, tree.root(), suffix,
                                      /*create_destination_vertex=*/false);
  ASSERT_EQ(div.created.size(), 2u);  // No vertex for node 3.
  EXPECT_EQ(tree.vertex(div.created[1]).node, 2u);
}

TEST(PseudoTreeTest, DivideEmptySuffixBansFinish) {
  PseudoTree tree;
  tree.Reset(0);
  Graph g = Chain();
  DivisionResult div = DivideSubspace(tree, g, tree.root(), {}, true);
  EXPECT_TRUE(div.created.empty());
  EXPECT_TRUE(tree.vertex(tree.root()).finish_banned);
  EXPECT_TRUE(tree.vertex(tree.root()).banned.empty());
}

TEST(PseudoTreeTest, RepeatedDivisionAccumulatesBans) {
  PseudoTree tree;
  tree.Reset(0);
  Graph g = Chain();
  std::vector<NodeId> first = {1, 2, 3};
  DivideSubspace(tree, g, tree.root(), first, true);
  // Second path from the (revised) root subspace: 0 -> 1 is banned, so
  // a hypothetical second chosen path can't start with 1... simulate a
  // division of the root along a different hop (none exists in Chain, so
  // just verify the ban list grows through BanHop).
  tree.BanHop(tree.root(), 4);
  EXPECT_EQ(tree.vertex(tree.root()).banned, (std::vector<NodeId>{1, 4}));
}

TEST(PseudoTreeTest, VirtualRootDivisionUsesZeroWeightFirstHop) {
  PseudoTree tree;
  tree.Reset(kInvalidNode);
  Graph g = Chain().Reverse();
  // Reverse-oriented chosen path: t -> 3 -> 2 -> 1 -> 0.
  std::vector<NodeId> suffix = {3, 2, 1, 0};
  DivisionResult div = DivideSubspace(tree, g, tree.root(), suffix,
                                      /*create_destination_vertex=*/false);
  EXPECT_EQ(tree.vertex(tree.root()).banned, (std::vector<NodeId>{3}));
  ASSERT_EQ(div.created.size(), 3u);
  // First child: virtual hop of weight 0.
  EXPECT_EQ(tree.vertex(div.created[0]).node, 3u);
  EXPECT_EQ(tree.vertex(div.created[0]).prefix_length, 0u);
  // Second child: reverse arc 3 -> 2 (weight of forward 2 -> 3 = 3).
  EXPECT_EQ(tree.vertex(div.created[1]).prefix_length, 3u);
}

/// Slot j of `div` (0 = revised, j = created[j-1]) must see exactly its
/// MarkPrefix set as the nodes ranked <= D + j.
void ExpectRanksMatchPrefixes(const PseudoTree& tree,
                              const DivisionResult& div, NodeId num_nodes) {
  EpochArray<uint32_t> rank(num_nodes, kUnranked);
  const uint32_t depth = RankDivisionPath(tree, div, &rank);
  std::vector<uint32_t> slots = {div.revised};
  slots.insert(slots.end(), div.created.begin(), div.created.end());
  for (uint32_t j = 0; j < slots.size(); ++j) {
    EpochSet marks(num_nodes);
    tree.MarkPrefix(slots[j], &marks);
    for (NodeId x = 0; x < num_nodes; ++x) {
      EXPECT_EQ(rank.Get(x) <= depth + j, marks.Contains(x))
          << "slot " << j << " node " << x;
    }
  }
}

TEST(PseudoTreeTest, RankDivisionPathMatchesMarkPrefixPerSlot) {
  Graph g = Chain();
  PseudoTree tree;
  tree.Reset(0);
  std::vector<NodeId> first = {1, 2, 3};
  DivisionResult root_div = DivideSubspace(tree, g, tree.root(), first,
                                           /*create_destination_vertex=*/true);
  ExpectRanksMatchPrefixes(tree, root_div, g.NumNodes());
  // A deeper division: the subspace of vertex "0 -> 1" along 1 -> 4 -> 3.
  std::vector<NodeId> second = {4, 3};
  DivisionResult deep = DivideSubspace(tree, g, root_div.created[0], second,
                                       /*create_destination_vertex=*/true);
  EpochArray<uint32_t> rank(g.NumNodes(), kUnranked);
  EXPECT_EQ(RankDivisionPath(tree, deep, &rank), 2u);
  ExpectRanksMatchPrefixes(tree, deep, g.NumNodes());

  // Reverse orientation: the virtual root has no node and no rank.
  Graph rev = g.Reverse();
  PseudoTree reverse_tree;
  reverse_tree.Reset(kInvalidNode);
  std::vector<NodeId> suffix = {3, 2, 1, 0};
  DivisionResult rev_div =
      DivideSubspace(reverse_tree, rev, reverse_tree.root(), suffix,
                     /*create_destination_vertex=*/false);
  EXPECT_EQ(RankDivisionPath(reverse_tree, rev_div, &rank), 0u);
  ExpectRanksMatchPrefixes(reverse_tree, rev_div, g.NumNodes());
}

}  // namespace
}  // namespace kpj
