// Reordering building blocks: Permutation algebra, the relabeling
// strategies, ApplyPermutation's structural equivalence, index Remap
// invariance, and the version-2 (graph + permutation) binary round trip.

#include "graph/reorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <span>
#include <vector>

#include "gen/poi_gen.h"
#include "gen/road_gen.h"
#include "graph/graph_builder.h"
#include "graph/serialize.h"
#include "index/category_index.h"
#include "index/landmark_index.h"
#include "sssp/incremental_search.h"
#include "util/rng.h"

namespace kpj {
namespace {

Graph RandomGraph(uint64_t seed, NodeId n, double p) {
  Rng rng(seed);
  GraphBuilder b(n);
  b.EnsureNode(n - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v && rng.NextBool(p)) {
        b.AddEdge(u, v, static_cast<Weight>(rng.NextInRange(1, 50)));
      }
    }
  }
  return b.Build();
}

Permutation RandomPermutation(uint64_t seed, NodeId n) {
  std::vector<NodeId> map(n);
  std::iota(map.begin(), map.end(), 0);
  Rng rng(seed);
  rng.Shuffle(map);
  Result<Permutation> p = Permutation::FromOldToNew(std::move(map));
  EXPECT_TRUE(p.ok());
  return p.value();
}

TEST(PermutationTest, EmptyActsAsIdentity) {
  Permutation p;
  EXPECT_TRUE(p.empty());
  EXPECT_TRUE(p.IsIdentity());
  EXPECT_EQ(p.ToNew(0), 0u);
  EXPECT_EQ(p.ToNew(123456), 123456u);
  EXPECT_EQ(p.ToOld(7), 7u);
}

TEST(PermutationTest, IdentityAndRoundTrip) {
  Permutation id = Permutation::Identity(5);
  EXPECT_EQ(id.size(), 5u);
  EXPECT_TRUE(id.IsIdentity());

  Permutation p = RandomPermutation(1, 40);
  EXPECT_FALSE(p.IsIdentity());
  for (NodeId v = 0; v < 40; ++v) {
    EXPECT_EQ(p.ToOld(p.ToNew(v)), v);
    EXPECT_EQ(p.ToNew(p.ToOld(v)), v);
  }
}

TEST(PermutationTest, OutOfRangeIdsPassThrough) {
  // Virtual query nodes (ids >= n) must survive translation unchanged.
  Permutation p = RandomPermutation(2, 10);
  EXPECT_EQ(p.ToNew(10), 10u);
  EXPECT_EQ(p.ToNew(kInvalidNode), kInvalidNode);
  EXPECT_EQ(p.ToOld(10), 10u);
}

TEST(PermutationTest, RejectsNonBijections) {
  EXPECT_FALSE(Permutation::FromOldToNew({0, 0, 1}).ok());   // duplicate
  EXPECT_FALSE(Permutation::FromOldToNew({0, 3, 1}).ok());   // out of range
  EXPECT_FALSE(Permutation::FromNewToOld({1, 1, 0}).ok());
  EXPECT_TRUE(Permutation::FromOldToNew({2, 0, 1}).ok());
}

TEST(PermutationTest, InverseAndCompose) {
  Permutation p = RandomPermutation(3, 25);
  Permutation q = RandomPermutation(4, 25);
  EXPECT_TRUE(p.ComposeWith(p.Inverse()).IsIdentity());
  Permutation pq = p.ComposeWith(q);  // p first, then q
  for (NodeId v = 0; v < 25; ++v) {
    EXPECT_EQ(pq.ToNew(v), q.ToNew(p.ToNew(v)));
  }
  // Empty sides act as identity.
  EXPECT_TRUE(p.ComposeWith(Permutation()).Equals(p));
  EXPECT_TRUE(Permutation().ComposeWith(p).Equals(p));
}

TEST(ReorderTest, StrategiesProduceValidPermutations) {
  Graph g = RandomGraph(5, 80, 0.05);
  for (ReorderStrategy s : kAllReorderStrategies) {
    Permutation p = ComputeReordering(g, s);
    EXPECT_EQ(p.size(), g.NumNodes()) << ReorderStrategyName(s);
    // FromOldToNew validated bijectivity internally; spot-check round trip.
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(p.ToOld(p.ToNew(v)), v);
    }
  }
  EXPECT_TRUE(ComputeReordering(g, ReorderStrategy::kNone).IsIdentity());
}

TEST(ReorderTest, ParseAndNameRoundTrip) {
  for (ReorderStrategy s : kAllReorderStrategies) {
    Result<ReorderStrategy> parsed =
        ParseReorderStrategy(ReorderStrategyName(s));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), s);
  }
  EXPECT_TRUE(ParseReorderStrategy("BFS").ok());  // case-insensitive
  EXPECT_FALSE(ParseReorderStrategy("rcm").ok());
}

TEST(ReorderTest, DegreeStrategySortsByOutDegree) {
  Graph g = RandomGraph(6, 60, 0.08);
  Permutation p = ComputeReordering(g, ReorderStrategy::kDegree);
  for (NodeId new_id = 0; new_id + 1 < g.NumNodes(); ++new_id) {
    EXPECT_GE(g.OutDegree(p.ToOld(new_id)), g.OutDegree(p.ToOld(new_id + 1)));
  }
}

TEST(ReorderTest, ApplyPermutationPreservesStructure) {
  Graph g = RandomGraph(7, 70, 0.06);
  for (ReorderStrategy s : kAllReorderStrategies) {
    Permutation p = ComputeReordering(g, s);
    Graph h = ApplyPermutation(g, p);
    ASSERT_EQ(h.NumNodes(), g.NumNodes());
    ASSERT_EQ(h.NumEdges(), g.NumEdges());
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      ASSERT_EQ(h.OutDegree(p.ToNew(u)), g.OutDegree(u));
      for (const OutEdge& e : g.OutEdges(u)) {
        EXPECT_EQ(h.EdgeWeight(p.ToNew(u), p.ToNew(e.to)),
                  static_cast<PathLength>(e.weight));
      }
    }
  }
  // Empty permutation: plain copy.
  EXPECT_TRUE(ApplyPermutation(g, Permutation()).Equals(g));
}

TEST(ReorderTest, ApplyPermutationPreservesDistances) {
  RoadGenOptions opt;
  opt.target_nodes = 1500;
  opt.seed = 8;
  Graph g = GenerateRoadNetwork(opt).graph;
  Permutation p = ComputeReordering(g, ReorderStrategy::kHybrid);
  Graph h = ApplyPermutation(g, p);
  SptResult before = SingleSourceShortestPaths(g, 17);
  SptResult after = SingleSourceShortestPaths(h, p.ToNew(17));
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(before.dist[v], after.dist[p.ToNew(v)]);
  }
}

TEST(ReorderTest, BfsKeepsNeighborsClose) {
  // On a path graph handed over in scrambled order, BFS numbering must
  // bring every arc's endpoints within distance 2 of each other (the seed
  // is an endpoint or an interior node, so levels have at most 2 nodes).
  const NodeId n = 101;
  Permutation scramble = RandomPermutation(9, n);
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) {
    b.AddBidirectional(scramble.ToNew(i), scramble.ToNew(i + 1), 1);
  }
  Graph g = b.Build();
  Permutation p = ComputeReordering(g, ReorderStrategy::kBfs);
  Graph h = ApplyPermutation(g, p);
  for (NodeId u = 0; u < n; ++u) {
    for (const OutEdge& e : h.OutEdges(u)) {
      EXPECT_LE(u < e.to ? e.to - u : u - e.to, 2u);
    }
  }
}

TEST(ReorderTest, SerializeRoundTripsPermutation) {
  Graph g = RandomGraph(10, 50, 0.08);
  Permutation p = ComputeReordering(g, ReorderStrategy::kHybrid);
  Graph h = ApplyPermutation(g, p);
  std::string path =
      (std::filesystem::temp_directory_path() / "kpj_reorder_v2.bin")
          .string();
  ASSERT_TRUE(SaveGraphBinary(h, p, path).ok());
  Result<GraphFile> loaded = LoadGraphFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().graph.Equals(h));
  EXPECT_TRUE(loaded.value().permutation.Equals(p));
  // The permutation-less loader still reads the graph.
  Result<Graph> bare = LoadGraphBinary(path);
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare.value().Equals(h));
  std::filesystem::remove(path);
}

TEST(ReorderTest, SerializeIdentityStaysVersionBare) {
  // No real permutation attached -> version-1 file, loadable with an empty
  // permutation (bit-compatible with pre-reordering files).
  Graph g = RandomGraph(11, 30, 0.1);
  std::string path =
      (std::filesystem::temp_directory_path() / "kpj_reorder_v1.bin")
          .string();
  ASSERT_TRUE(SaveGraphBinary(g, Permutation::Identity(g.NumNodes()), path)
                  .ok());
  Result<GraphFile> loaded = LoadGraphFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().permutation.empty());
  EXPECT_TRUE(loaded.value().graph.Equals(g));
  std::filesystem::remove(path);
}

TEST(ReorderTest, CategoryIndexRemapPreservesMembership) {
  Graph g = RandomGraph(12, 90, 0.04);
  CategoryIndex index(g.NumNodes());
  AssignNestedPoiSets(index, /*seed=*/3);
  Permutation p = ComputeReordering(g, ReorderStrategy::kDegree);
  CategoryIndex remapped = index.Remap(p);
  ASSERT_EQ(remapped.NumCategories(), index.NumCategories());
  for (CategoryId c = 0; c < index.NumCategories(); ++c) {
    std::vector<NodeId> expected;
    for (NodeId v : index.Nodes(c)) expected.push_back(p.ToNew(v));
    std::sort(expected.begin(), expected.end());
    auto actual = remapped.Nodes(c);
    EXPECT_EQ(std::vector<NodeId>(actual.begin(), actual.end()), expected)
        << "category " << c;
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    std::span<const CategoryId> moved = remapped.CategoriesOf(p.ToNew(v));
    std::span<const CategoryId> orig = index.CategoriesOf(v);
    EXPECT_TRUE(std::equal(moved.begin(), moved.end(), orig.begin(),
                           orig.end()))
        << "node " << v;
  }
}

TEST(ReorderTest, LandmarkIndexRemapPreservesBounds) {
  Graph g = RandomGraph(13, 70, 0.06);
  LandmarkIndexOptions opt;
  opt.num_landmarks = 5;
  LandmarkIndex index = LandmarkIndex::Build(g, g.Reverse(), opt);
  Permutation p = ComputeReordering(g, ReorderStrategy::kBfs);
  LandmarkIndex remapped = index.Remap(p);
  ASSERT_EQ(remapped.num_landmarks(), index.num_landmarks());
  for (uint32_t l = 0; l < index.num_landmarks(); ++l) {
    EXPECT_EQ(remapped.landmarks()[l], p.ToNew(index.landmarks()[l]));
  }
  for (NodeId u = 0; u < g.NumNodes(); u += 3) {
    for (NodeId v = 0; v < g.NumNodes(); v += 2) {
      EXPECT_EQ(remapped.LowerBound(p.ToNew(u), p.ToNew(v)),
                index.LowerBound(u, v));
    }
  }
  // Remapping an equivalent build of the permuted graph gives the same
  // index only up to landmark choice, so equality is checked via bounds
  // above; the empty permutation must be a plain copy.
  EXPECT_TRUE(index.Remap(Permutation()).Equals(index));
}

}  // namespace
}  // namespace kpj
