// Admissibility of the online-index heuristics (FullSptBound, SptpBound,
// SptiSourceBound) — the property every solver's correctness rests on.

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

TEST(SptpBoundTest, ExactInsideTreeAdmissibleOutside) {
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
  IncrementalSearch sptp(rev, &zero);
  std::vector<std::pair<NodeId, PathLength>> seeds = {{5, 0}, {30, 0}};
  sptp.Initialize(seeds);
  sptp.AdvanceToBound(10);

  SptpBound bound(&sptp, &fallback);
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

TEST(SptiSourceBoundTest, ExactForSettledNodes) {
  Graph g = RandomGraph(3, 50, 0.1);
  SptResult truth = SingleSourceShortestPaths(g, 0);

  ZeroHeuristic zero;
  IncrementalSearch spti(g, &zero);
  std::pair<NodeId, PathLength> seed[] = {{0, 0}};
  spti.Initialize(seed);
  spti.AdvanceToBound(15);

  SptiSourceBound bound(&spti, &zero);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (spti.Settled(u)) {
      EXPECT_EQ(bound.Estimate(u), truth.dist[u]);
    } else {
      EXPECT_EQ(bound.Estimate(u), 0u);  // Zero fallback.
    }
  }
}

TEST(SptiSourceBoundTest, LandmarkFallbackIsAdmissible) {
  Graph g = RandomGraph(4, 50, 0.1);
  Graph rev = g.Reverse();
  SptResult truth = SingleSourceShortestPaths(g, 2);
  LandmarkIndexOptions lopt;
  lopt.num_landmarks = 4;
  LandmarkIndex landmarks = LandmarkIndex::Build(g, rev, lopt);
  std::vector<NodeId> source = {2};
  LandmarkSetBound fallback(&landmarks, source, BoundDirection::kFromSet);

  ZeroHeuristic zero;
  IncrementalSearch spti(g, &zero);
  std::pair<NodeId, PathLength> seed[] = {{2, 0}};
  spti.Initialize(seed);
  spti.AdvanceToBound(8);

  SptiSourceBound bound(&spti, &fallback);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (truth.dist[u] != kInfLength) {
      EXPECT_LE(bound.Estimate(u), truth.dist[u]) << "node " << u;
    }
  }
}

}  // namespace
}  // namespace kpj
