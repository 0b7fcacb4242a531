// Conformance suite for the landmark (ALT) lower bounds: every solver that
// bounds its search consumes them through LandmarkIndex::LowerBound and
// LandmarkSetBound, so any bound that is admissible + consistent here is
// safe for all seven algorithms.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/instrumentation.h"
#include "graph/graph_builder.h"
#include "graph/reorder.h"
#include "index/landmark_index.h"
#include "index/target_bound.h"
#include "sssp/dijkstra.h"
#include "util/rng.h"

namespace kpj {
namespace {

Graph RandomGraph(uint64_t seed, NodeId n, double p, bool bidir,
                  Weight min_weight = 1) {
  Rng rng(seed);
  GraphBuilder b(n);
  b.EnsureNode(n - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = bidir ? u + 1 : 0; v < n; ++v) {
      if (u == v || !rng.NextBool(p)) continue;
      Weight w = static_cast<Weight>(rng.NextInRange(min_weight, 9));
      if (bidir) {
        b.AddBidirectional(u, v, w);
      } else {
        b.AddEdge(u, v, w);
      }
    }
  }
  return b.Build();
}

std::unique_ptr<LandmarkIndex> MakeOracle(const Graph& g, const Graph& rev) {
  LandmarkIndexOptions opt;
  opt.num_landmarks = 6;
  return std::make_unique<LandmarkIndex>(LandmarkIndex::Build(g, rev, opt));
}

TEST(OracleConformanceTest, PointBoundAdmissibleAndConsistent) {
  for (uint64_t seed : {21u, 22u}) {
    Graph g = RandomGraph(seed, 40, 0.1, seed % 2 == 0);
    Graph rev = g.Reverse();
    std::unique_ptr<LandmarkIndex> oracle = MakeOracle(g, rev);
    EXPECT_EQ(oracle->num_nodes(), g.NumNodes());
    for (NodeId t = 0; t < g.NumNodes(); t += 5) {
      SptResult to_t = SingleSourceShortestPaths(rev, t);
      for (NodeId u = 0; u < g.NumNodes(); ++u) {
        PathLength lb = oracle->LowerBound(u, t);
        if (to_t.dist[u] != kInfLength) {
          ASSERT_LE(lb, to_t.dist[u]) << "u=" << u << " t=" << t;
        }
      }
      // Consistency: lb(u,t) <= w(u,v) + lb(v,t) along every arc. An
      // inconsistent heuristic silently breaks A*-style search order.
      for (NodeId u = 0; u < g.NumNodes(); ++u) {
        PathLength lb_u = oracle->LowerBound(u, t);
        for (const OutEdge& e : g.OutEdges(u)) {
          PathLength lb_v = oracle->LowerBound(e.to, t);
          if (lb_v == kInfLength) continue;
          ASSERT_LE(lb_u, lb_v + e.weight)
              << "edge " << u << "->" << e.to << " t=" << t;
        }
      }
    }
  }
}

TEST(OracleConformanceTest, SetBoundAdmissibleConsistentBothDirections) {
  Graph g = RandomGraph(23, 45, 0.1, false, /*min_weight=*/0);
  Graph rev = g.Reverse();
  std::unique_ptr<LandmarkIndex> oracle = MakeOracle(g, rev);
  std::vector<NodeId> set = {3, 11, 29, 40};

  for (BoundDirection dir :
       {BoundDirection::kToSet, BoundDirection::kFromSet}) {
    std::unique_ptr<Heuristic> bound = std::make_unique<LandmarkSetBound>(
        oracle.get(), set, dir, /*scoring_node=*/0, /*max_active=*/0);

    // True node<->set distances, one Dijkstra per set member.
    std::vector<PathLength> truth(g.NumNodes(), kInfLength);
    for (NodeId x : set) {
      SptResult spt = SingleSourceShortestPaths(
          dir == BoundDirection::kToSet ? rev : g, x);
      for (NodeId u = 0; u < g.NumNodes(); ++u) {
        truth[u] = std::min(truth[u], spt.dist[u]);
      }
    }

    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      PathLength est = bound->Estimate(u);
      if (truth[u] != kInfLength) {
        ASSERT_LE(est, truth[u]) << "u=" << u;
      }
    }
    for (NodeId x : set) ASSERT_EQ(bound->Estimate(x), 0u);

    // Consistency along arcs, in the direction the solvers search:
    // kToSet guides forward searches, kFromSet backward ones.
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      for (const OutEdge& e : g.OutEdges(u)) {
        if (dir == BoundDirection::kToSet) {
          PathLength hv = bound->Estimate(e.to);
          if (hv == kInfLength) continue;
          ASSERT_LE(bound->Estimate(u), hv + e.weight);
        } else {
          PathLength hu = bound->Estimate(u);
          if (hu == kInfLength) continue;
          ASSERT_LE(bound->Estimate(e.to), hu + e.weight);
        }
      }
    }
  }
}

TEST(OracleConformanceTest, VirtualNodesGetZeroBounds) {
  // GKPJ augments the graph with a virtual super-source beyond num_nodes;
  // the only admissible offline bound for it is 0.
  Graph g = RandomGraph(24, 30, 0.12, true);
  Graph rev = g.Reverse();
  std::unique_ptr<LandmarkIndex> oracle = MakeOracle(g, rev);
  const NodeId virtual_node = g.NumNodes() + 2;
  EXPECT_EQ(oracle->LowerBound(virtual_node, 5), 0u);
  EXPECT_EQ(oracle->LowerBound(5, virtual_node), 0u);
  std::vector<NodeId> set = {1, 7};
  std::unique_ptr<Heuristic> bound = std::make_unique<LandmarkSetBound>(
      oracle.get(), set, BoundDirection::kToSet, kInvalidNode, 0);
  EXPECT_EQ(bound->Estimate(virtual_node), 0u);
}

TEST(OracleConformanceTest, CachedSetBoundMatchesUncached) {
  Graph g = RandomGraph(25, 40, 0.1, true);
  Graph rev = g.Reverse();
  std::unique_ptr<LandmarkIndex> oracle = MakeOracle(g, rev);
  std::vector<NodeId> set = {2, 18, 33};
  TargetBoundCache cache(1 << 20);
  AlgoStats algo;
  std::unique_ptr<Heuristic> plain = MakeCachedSetBound(
      oracle.get(), set, BoundDirection::kToSet, /*scoring_node=*/4,
      /*max_active=*/2, /*cache=*/nullptr, /*epoch=*/1, nullptr);
  for (int round = 0; round < 2; ++round) {  // Round 0 misses, 1 hits.
    std::unique_ptr<Heuristic> cached = MakeCachedSetBound(
        oracle.get(), set, BoundDirection::kToSet, 4, 2, &cache, 1, &algo);
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      ASSERT_EQ(cached->Estimate(u), plain->Estimate(u))
          << "round " << round << " u=" << u;
    }
  }
  EXPECT_EQ(algo.bound_cache_misses, 1u);
  EXPECT_EQ(algo.bound_cache_hits, 1u);
}

TEST(OracleConformanceTest, IdentityIsStableAndContentBound) {
  Graph g = RandomGraph(26, 35, 0.1, true);
  Graph rev = g.Reverse();
  std::unique_ptr<LandmarkIndex> a = MakeOracle(g, rev);
  std::unique_ptr<LandmarkIndex> b = MakeOracle(g, rev);
  // Same build recipe => same identity (cache keys survive rebuilds)...
  EXPECT_EQ(a->Identity(), b->Identity());
  // ...different graph => different identity (no cross-content reuse).
  Graph other = RandomGraph(27, 35, 0.1, true);
  std::unique_ptr<LandmarkIndex> c = MakeOracle(other, other.Reverse());
  EXPECT_NE(a->Identity(), c->Identity());
}

TEST(OracleRemapTest, RemapRoundTrips) {
  // Remapping with a permutation and asking about remapped ids must give
  // the original answers — the instance layer relies on this when
  // --reorder relabels a graph under an already-built landmark index.
  Graph g = RandomGraph(29, 40, 0.1, false);
  Graph rev = g.Reverse();
  Permutation perm = ComputeReordering(g, ReorderStrategy::kDegree);

  LandmarkIndexOptions opt;
  opt.num_landmarks = 5;
  LandmarkIndex alt = LandmarkIndex::Build(g, rev, opt);
  LandmarkIndex alt_remap = alt.Remap(perm);

  for (NodeId u = 0; u < g.NumNodes(); u += 3) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      NodeId pu = perm.ToNew(u), pv = perm.ToNew(v);
      ASSERT_EQ(alt_remap.LowerBound(pu, pv), alt.LowerBound(u, v));
    }
  }
}

}  // namespace
}  // namespace kpj
