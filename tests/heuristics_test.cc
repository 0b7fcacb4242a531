// Admissibility of the online-index heuristics (FullSptBound, and TreeBound
// in its SPT_P and SPT_I roles) — the property every solver's correctness
// rests on.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/heuristics.h"
#include "graph/graph_builder.h"
#include "index/landmark_index.h"
#include "index/target_bound.h"
#include "sssp/incremental_search.h"
#include "util/rng.h"

namespace kpj {
namespace {

Graph RandomGraph(uint64_t seed, NodeId n, double p) {
  Rng rng(seed);
  GraphBuilder b(n);
  b.EnsureNode(n - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.NextBool(p)) {
        b.AddBidirectional(u, v, static_cast<Weight>(rng.NextInRange(1, 9)));
      }
    }
  }
  return b.Build();
}

TEST(FullSptBoundTest, ExactDistancesToTargetSet) {
  Graph g = RandomGraph(1, 40, 0.1);
  Graph rev = g.Reverse();
  std::vector<NodeId> targets = {3, 17};
  SptResult spt = DistancesToSet(rev, targets);
  FullSptBound bound(&spt);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_EQ(bound.Estimate(u), spt.dist[u]);
  }
}

TEST(TreeBoundTest, SptpRoleExactInsideTreeAdmissibleOutside) {
  Graph g = RandomGraph(2, 60, 0.08);
  Graph rev = g.Reverse();
  std::vector<NodeId> targets = {5, 30};
  SptResult truth = DistancesToSet(rev, targets);

  LandmarkIndexOptions lopt;
  lopt.num_landmarks = 4;
  LandmarkIndex landmarks = LandmarkIndex::Build(g, rev, lopt);
  LandmarkSetBound fallback(&landmarks, targets, BoundDirection::kToSet);

  // Partial tree: advance the reverse search only part way.
  ZeroHeuristic zero;
  IncrementalSearch sptp(rev);
  std::vector<std::pair<NodeId, PathLength>> seeds = {{5, 0}, {30, 0}};
  sptp.Initialize(seeds, zero);
  sptp.AdvanceToBound(10, zero);

  TreeBound bound(&sptp, fallback);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    PathLength h = bound.Estimate(u);
    if (truth.dist[u] != kInfLength) {
      EXPECT_LE(h, truth.dist[u]) << "node " << u;
    }
    if (sptp.Settled(u)) {
      EXPECT_EQ(h, truth.dist[u]) << "settled node " << u;
    }
  }
}

TEST(TreeBoundTest, SptiRoleExactForSettledNodes) {
  Graph g = RandomGraph(3, 50, 0.1);
  SptResult truth = SingleSourceShortestPaths(g, 0);

  ZeroHeuristic zero;
  IncrementalSearch spti(g);
  std::pair<NodeId, PathLength> seed[] = {{0, 0}};
  spti.Initialize(seed, zero);
  spti.AdvanceToBound(15, zero);

  TreeBound bound(&spti, LandmarkSetBound());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (spti.Settled(u)) {
      EXPECT_EQ(bound.Estimate(u), truth.dist[u]);
    } else {
      EXPECT_EQ(bound.Estimate(u), 0u);  // Zero fallback.
    }
  }
}

TEST(TreeBoundTest, SptiRoleLandmarkFallbackIsAdmissible) {
  Graph g = RandomGraph(4, 50, 0.1);
  Graph rev = g.Reverse();
  SptResult truth = SingleSourceShortestPaths(g, 2);
  LandmarkIndexOptions lopt;
  lopt.num_landmarks = 4;
  LandmarkIndex landmarks = LandmarkIndex::Build(g, rev, lopt);
  std::vector<NodeId> source = {2};
  LandmarkSetBound fallback(&landmarks, source, BoundDirection::kFromSet);

  ZeroHeuristic zero;
  IncrementalSearch spti(g);
  std::pair<NodeId, PathLength> seed[] = {{2, 0}};
  spti.Initialize(seed, zero);
  spti.AdvanceToBound(8, zero);

  TreeBound bound(&spti, fallback);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (truth.dist[u] != kInfLength) {
      EXPECT_LE(bound.Estimate(u), truth.dist[u]) << "node " << u;
    }
  }
}

TEST(TreeBoundTest, WithoutTreeIsTheFallback) {
  Graph g = RandomGraph(5, 40, 0.1);
  Graph rev = g.Reverse();
  LandmarkIndexOptions lopt;
  lopt.num_landmarks = 4;
  LandmarkIndex landmarks = LandmarkIndex::Build(g, rev, lopt);
  std::vector<NodeId> targets = {7, 21};
  LandmarkSetBound fallback(&landmarks, targets, BoundDirection::kToSet);
  TreeBound bound(/*tree=*/nullptr, fallback);
  TreeBound zero;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_EQ(bound.Estimate(u), fallback.Estimate(u)) << "node " << u;
    EXPECT_EQ(zero.Estimate(u), 0u) << "node " << u;
  }
}

}  // namespace
}  // namespace kpj
