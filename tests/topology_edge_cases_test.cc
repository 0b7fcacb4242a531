// Hand-built topology edge cases exercised against every algorithm:
// degenerate graphs where off-by-one or termination bugs hide.

#include <gtest/gtest.h>

#include "core/kpj.h"
#include "core/kpj_instance.h"
#include "core/verifier.h"
#include "graph/graph_builder.h"
#include "sssp/incremental_search.h"

namespace kpj {
namespace {

class TopologyTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  KpjResult MustRun(const Graph& graph, KpjQuery query) {
    Result<KpjInstance> inst = KpjInstance::Wrap(graph, Permutation());
    EXPECT_TRUE(inst.ok());
    KpjOptions options;
    options.algorithm = GetParam();
    Result<KpjResult> result = RunKpj(inst.value(), query, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    Status check =
        ValidateAgainstReference(graph, query, result.value().paths);
    EXPECT_TRUE(check.ok()) << check.ToString();
    return std::move(result).value();
  }
};

TEST_P(TopologyTest, LineGraphHasExactlyOnePath) {
  GraphBuilder b(5);
  for (NodeId i = 0; i + 1 < 5; ++i) b.AddEdge(i, i + 1, i + 1);
  Graph g = b.Build();
  KpjQuery q;
  q.sources = {0};
  q.targets = {4};
  q.k = 7;
  KpjResult r = MustRun(g, q);
  ASSERT_EQ(r.paths.size(), 1u);
  EXPECT_EQ(r.paths[0].length, 1u + 2 + 3 + 4);
}

TEST_P(TopologyTest, StarFromCenter) {
  GraphBuilder b(6);
  for (NodeId leaf = 1; leaf < 6; ++leaf) b.AddEdge(0, leaf, leaf);
  Graph g = b.Build();
  KpjQuery q;
  q.sources = {0};
  q.targets = {2, 4, 5};
  q.k = 10;
  KpjResult r = MustRun(g, q);
  ASSERT_EQ(r.paths.size(), 3u);
  EXPECT_EQ(r.paths[0].length, 2u);
  EXPECT_EQ(r.paths[1].length, 4u);
  EXPECT_EQ(r.paths[2].length, 5u);
}

TEST_P(TopologyTest, ChainOfTargets) {
  // 0 -> 1 -> 2 -> 3, every node past 0 a target: paths through targets.
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 2, 1);
  b.AddEdge(2, 3, 1);
  Graph g = b.Build();
  KpjQuery q;
  q.sources = {0};
  q.targets = {1, 2, 3};
  q.k = 10;
  KpjResult r = MustRun(g, q);
  ASSERT_EQ(r.paths.size(), 3u);
  EXPECT_EQ(r.paths[0].length, 1u);
  EXPECT_EQ(r.paths[1].length, 2u);
  EXPECT_EQ(r.paths[2].length, 3u);
}

TEST_P(TopologyTest, SourceWithoutOutEdges) {
  GraphBuilder b(3);
  b.AddEdge(1, 0, 1);
  b.AddEdge(1, 2, 1);
  Graph g = b.Build();
  KpjQuery q;
  q.sources = {0};
  q.targets = {2};
  q.k = 3;
  KpjResult r = MustRun(g, q);
  EXPECT_TRUE(r.paths.empty());
}

TEST_P(TopologyTest, TargetWithoutInEdges) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1);
  b.AddEdge(2, 1, 1);
  Graph g = b.Build();
  KpjQuery q;
  q.sources = {0};
  q.targets = {2};
  q.k = 3;
  KpjResult r = MustRun(g, q);
  EXPECT_TRUE(r.paths.empty());
}

TEST_P(TopologyTest, MixedReachableAndUnreachableTargets) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 5);
  b.EnsureNode(3);  // Node 3 isolated.
  Graph g = b.Build();
  KpjQuery q;
  q.sources = {0};
  q.targets = {1, 3};
  q.k = 5;
  KpjResult r = MustRun(g, q);
  ASSERT_EQ(r.paths.size(), 1u);
  EXPECT_EQ(r.paths[0].Destination(), 1u);
}

TEST_P(TopologyTest, CompleteGraphK4AllPathsEnumerated) {
  GraphBuilder b(4);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      if (u != v) b.AddEdge(u, v, 1 + u + v);
    }
  }
  Graph g = b.Build();
  KpjQuery q;
  q.sources = {0};
  q.targets = {3};
  q.k = 100;
  KpjResult r = MustRun(g, q);
  // Simple 0->3 paths in K4: direct, via one, via two = 1 + 2 + 2 = 5.
  EXPECT_EQ(r.paths.size(), 5u);
}

TEST_P(TopologyTest, Top1EqualsDijkstra) {
  GraphBuilder b(8);
  b.AddBidirectional(0, 1, 3);
  b.AddBidirectional(1, 2, 4);
  b.AddBidirectional(0, 3, 2);
  b.AddBidirectional(3, 2, 6);
  b.AddBidirectional(2, 7, 1);
  b.AddBidirectional(1, 6, 9);
  Graph g = b.Build();
  Graph rev = g.Reverse();
  std::vector<NodeId> targets = {6, 7};
  SptResult to_t = DistancesToSet(rev, targets);
  KpjQuery q;
  q.sources = {0};
  q.targets = targets;
  q.k = 1;
  KpjResult r = MustRun(g, q);
  ASSERT_EQ(r.paths.size(), 1u);
  EXPECT_EQ(r.paths[0].length, to_t.dist[0]);
}

TEST_P(TopologyTest, TwoNodeGraph) {
  GraphBuilder b(2);
  b.AddBidirectional(0, 1, 42);
  Graph g = b.Build();
  KpjQuery q;
  q.sources = {0};
  q.targets = {1};
  q.k = 5;
  KpjResult r = MustRun(g, q);
  ASSERT_EQ(r.paths.size(), 1u);
  EXPECT_EQ(r.paths[0].length, 42u);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, TopologyTest, ::testing::ValuesIn(kAllAlgorithms),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      std::string name = AlgorithmName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace kpj
