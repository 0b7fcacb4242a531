// Prefix closure in k: for every solver, the top-k answer is the first k
// paths of the top-kmax answer, node for node, for every k <= kmax. The
// answer cache relies on it to serve a smaller k from a larger cached
// answer (DESIGN.md "Cross-query reuse"), so this suite runs every solver
// (IterBoundI-NL included) where tie order is most likely to depend on k:
// a unit-weight grid, where most path lengths tie, beside a random-weight
// graph; single-source KPJ and two-source GKPJ queries; and a query with
// fewer than kmax paths, whose answer is complete.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/kpj.h"
#include "core/kpj_instance.h"
#include "graph/graph_builder.h"
#include "index/landmark_index.h"
#include "util/rng.h"

namespace kpj {
namespace {

constexpr uint32_t kMaxK = 32;

/// A `side` x `side` grid of unit-weight bidirectional arcs.
Graph UnitGrid(NodeId side) {
  GraphBuilder builder(side * side);
  for (NodeId r = 0; r < side; ++r) {
    for (NodeId c = 0; c < side; ++c) {
      const NodeId u = r * side + c;
      if (c + 1 < side) builder.AddBidirectional(u, u + 1, 1);
      if (r + 1 < side) builder.AddBidirectional(u, u + side, 1);
    }
  }
  return builder.Build();
}

/// A bidirectional ring plus random chords, weights uniform in [1, 40].
Graph RandomWeightGraph(NodeId nodes, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(nodes);
  for (NodeId u = 0; u < nodes; ++u) {
    builder.AddBidirectional(u, (u + 1) % nodes,
                             static_cast<Weight>(rng.NextInRange(1, 40)));
  }
  for (NodeId i = 0; i < 2 * nodes; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(nodes));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(nodes));
    if (u == v) continue;
    builder.AddBidirectional(u, v,
                             static_cast<Weight>(rng.NextInRange(1, 40)));
  }
  return builder.Build();
}

/// Three unit-weight diamonds in a chain: 8 equal-length paths from node 0
/// to node 9, fewer than kMaxK.
Graph UnitDiamondChain() {
  GraphBuilder builder(10);
  for (NodeId d = 0; d < 3; ++d) {
    const NodeId u = 3 * d;
    builder.AddEdge(u, u + 1, 1);
    builder.AddEdge(u + 1, u + 3, 1);
    builder.AddEdge(u, u + 2, 1);
    builder.AddEdge(u + 2, u + 3, 1);
  }
  return builder.Build();
}

KpjInstance LandmarkedInstance(Graph graph) {
  KpjInstance instance =
      KpjInstance::Wrap(std::move(graph), Permutation()).value();
  LandmarkIndexOptions options;
  options.num_landmarks = 4;
  EXPECT_TRUE(instance
                  .AttachLandmarks(LandmarkIndex::Build(
                      instance.graph(), instance.reverse(), options))
                  .ok());
  return instance;
}

struct Answer {
  std::vector<std::vector<NodeId>> nodes;
  std::vector<PathLength> lengths;
};

Answer Solve(const KpjInstance& instance, KpjQuery query, uint32_t k,
             Algorithm algorithm) {
  query.k = k;
  KpjOptions options;
  options.algorithm = algorithm;
  Result<KpjResult> result = RunKpj(instance, query, options);
  Answer answer;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return answer;
  EXPECT_TRUE(result.value().status.ok());
  for (const Path& p : result.value().paths) {
    answer.nodes.emplace_back(p.nodes.begin(), p.nodes.end());
    answer.lengths.push_back(p.length);
  }
  return answer;
}

/// Checks Run(k) against the first k paths of Run(kMaxK) for every solver
/// and every k; returns the size of the top-kMaxK answer (equal across
/// solvers).
size_t ExpectPrefixClosed(const KpjInstance& instance,
                          const KpjQuery& query) {
  size_t full_size = 0;
  for (Algorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    const Answer full = Solve(instance, query, kMaxK, algorithm);
    if (algorithm == kAllAlgorithms[0]) full_size = full.nodes.size();
    EXPECT_EQ(full.nodes.size(), full_size);
    for (uint32_t k = 1; k < kMaxK; ++k) {
      const Answer answer = Solve(instance, query, k, algorithm);
      const size_t expect = std::min<size_t>(k, full.nodes.size());
      EXPECT_EQ(answer.nodes.size(), expect) << "k " << k;
      if (answer.nodes.size() != expect) continue;
      for (size_t i = 0; i < expect; ++i) {
        EXPECT_EQ(answer.nodes[i], full.nodes[i])
            << "k " << k << " path " << i;
        EXPECT_EQ(answer.lengths[i], full.lengths[i])
            << "k " << k << " path " << i;
      }
    }
  }
  return full_size;
}

KpjQuery Query(std::vector<NodeId> sources, std::vector<NodeId> targets) {
  KpjQuery query;
  query.sources = std::move(sources);
  query.targets = std::move(targets);
  return query;
}

TEST(PrefixClosureTest, UnitWeightGridKpj) {
  const KpjInstance grid = LandmarkedInstance(UnitGrid(12));
  EXPECT_EQ(ExpectPrefixClosed(grid, Query({66}, {0, 11, 132, 143})), kMaxK);
  EXPECT_EQ(ExpectPrefixClosed(grid, Query({3}, {125, 77})), kMaxK);
}

TEST(PrefixClosureTest, UnitWeightGridGkpj) {
  const KpjInstance grid = LandmarkedInstance(UnitGrid(12));
  EXPECT_EQ(ExpectPrefixClosed(grid, Query({0, 143}, {66, 60, 70})), kMaxK);
}

TEST(PrefixClosureTest, RandomWeightGraphKpjAndGkpj) {
  const KpjInstance graph = LandmarkedInstance(RandomWeightGraph(150, 7));
  EXPECT_EQ(ExpectPrefixClosed(graph, Query({5}, {60, 90, 120, 149})),
            kMaxK);
  EXPECT_EQ(ExpectPrefixClosed(graph, Query({5, 100}, {30, 75, 140})),
            kMaxK);
}

TEST(PrefixClosureTest, FewerPathsThanKmaxIsComplete) {
  const KpjInstance chain = LandmarkedInstance(UnitDiamondChain());
  EXPECT_EQ(ExpectPrefixClosed(chain, Query({0}, {9})), 8u);
  // From the set {0, 3}: the 8 paths from node 0 and the 4 from node 3.
  EXPECT_EQ(ExpectPrefixClosed(chain, Query({0, 3}, {9})), 12u);
}

}  // namespace
}  // namespace kpj
