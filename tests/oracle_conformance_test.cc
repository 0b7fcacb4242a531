// Conformance suite for the landmark (ALT) lower bounds: every solver that
// bounds its search consumes them through LandmarkIndex::LowerBound and
// LandmarkSetBound, so any bound that is admissible + consistent here is
// safe for all seven algorithms.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "core/instrumentation.h"
#include "core/spt_cache.h"
#include "graph/graph_builder.h"
#include "graph/reorder.h"
#include "index/landmark_index.h"
#include "index/target_bound.h"
#include "sssp/incremental_search.h"
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
    const LandmarkSetBound bound(oracle.get(), set, dir, /*scoring_node=*/0,
                                 /*max_active=*/0);

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
      PathLength est = bound.Estimate(u);
      if (truth[u] != kInfLength) {
        ASSERT_LE(est, truth[u]) << "u=" << u;
      }
    }
    for (NodeId x : set) ASSERT_EQ(bound.Estimate(x), 0u);

    // Consistency along arcs, in the direction the solvers search:
    // kToSet guides forward searches, kFromSet backward ones.
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      for (const OutEdge& e : g.OutEdges(u)) {
        if (dir == BoundDirection::kToSet) {
          PathLength hv = bound.Estimate(e.to);
          if (hv == kInfLength) continue;
          ASSERT_LE(bound.Estimate(u), hv + e.weight);
        } else {
          PathLength hu = bound.Estimate(u);
          if (hu == kInfLength) continue;
          ASSERT_LE(bound.Estimate(e.to), hu + e.weight);
        }
      }
    }
  }
}

/// Eq. (2) written out per landmark, with the unreachability proofs of
/// LandmarkSetBound's contract: the reference for its branch-free kernel.
PathLength ReferenceSetBound(const LandmarkIndex& index,
                             std::span<const NodeId> set,
                             BoundDirection dir,
                             const std::vector<uint32_t>& active, NodeId u,
                             int* infinite_aggregates) {
  PathLength best = 0;
  for (uint32_t l : active) {
    // With near = δ(w, ·) and far = δ(·, w) for kToSet (swapped for
    // kFromSet): lb >= min_x near(x) - near(u) and
    // lb >= far(u) - max_x far(x).
    auto near = [&](NodeId v) {
      return dir == BoundDirection::kToSet ? index.DistFromLandmark(l, v)
                                           : index.DistToLandmark(l, v);
    };
    auto far = [&](NodeId v) {
      return dir == BoundDirection::kToSet ? index.DistToLandmark(l, v)
                                           : index.DistFromLandmark(l, v);
    };
    PathLength min_near = kInfLength;
    PathLength max_far = 0;
    for (NodeId x : set) {
      min_near = std::min(min_near, near(x));
      max_far = std::max(max_far, far(x));
    }
    if (min_near == kInfLength || max_far == kInfLength) {
      ++*infinite_aggregates;
    }
    if (near(u) != kInfLength) {
      if (min_near == kInfLength) return kInfLength;
      if (min_near > near(u)) best = std::max(best, min_near - near(u));
    }
    if (max_far != kInfLength) {
      if (far(u) == kInfLength) return kInfLength;
      if (far(u) > max_far) best = std::max(best, far(u) - max_far);
    }
  }
  return best;
}

TEST(OracleConformanceTest, EstimateKernelEqualsScalarFormula) {
  // A strongly connected core 0..23, a one-way chain 24..33 entered from
  // node 5 that never leads back, and node 34 that reaches the core but
  // is reached by nothing: unreachable table rows and infinite set
  // aggregates both occur.
  Rng rng(28);
  GraphBuilder b(35);
  b.EnsureNode(34);
  for (NodeId u = 0; u < 24; ++u) {
    b.AddBidirectional(u, (u + 1) % 24, 1 + u % 5);
    NodeId v = static_cast<NodeId>(rng.NextBounded(24));
    if (v != u) b.AddEdge(u, v, static_cast<Weight>(rng.NextInRange(0, 9)));
  }
  b.AddEdge(5, 24, 3);
  for (NodeId u = 24; u < 33; ++u) b.AddEdge(u, u + 1, 2);
  b.AddEdge(34, 0, 4);
  Graph g = b.Build();
  Graph rev = g.Reverse();
  // Random selection spreads the landmarks over the core, the chain and
  // node 34 (farthest-point selection stops at the chain's dead end).
  LandmarkIndexOptions opt;
  opt.num_landmarks = 8;
  opt.selection = LandmarkSelection::kRandom;
  LandmarkIndex index = LandmarkIndex::Build(g, rev, opt);
  ASSERT_EQ(index.num_landmarks(), 8u);

  const std::vector<std::vector<NodeId>> sets = {
      {2, 9, 17}, {28, 31}, {3, 30}, {34}};
  int infinite_aggregates = 0;
  int infinite_bounds = 0;
  for (const std::vector<NodeId>& set : sets) {
    for (BoundDirection dir :
         {BoundDirection::kToSet, BoundDirection::kFromSet}) {
      for (uint32_t max_active : {0u, 3u}) {
        for (NodeId scoring : {NodeId{0}, NodeId{26}}) {
          LandmarkSetBound bound(&index, set, dir, scoring, max_active);
          ASSERT_EQ(bound.active_landmarks().size(),
                    max_active == 0 ? 8u : max_active);
          for (NodeId u = 0; u < g.NumNodes(); ++u) {
            PathLength want =
                ReferenceSetBound(index, set, dir, bound.active_landmarks(),
                                  u, &infinite_aggregates);
            ASSERT_EQ(bound.Estimate(u), want)
                << "u=" << u << " dir=" << static_cast<int>(dir)
                << " max_active=" << max_active << " scoring=" << scoring;
            if (want == kInfLength) ++infinite_bounds;
          }
        }
      }
    }
  }
  EXPECT_GT(infinite_aggregates, 0);
  EXPECT_GT(infinite_bounds, 0);
}

TEST(OracleConformanceTest, CachedSetBoundMatchesUncached) {
  Graph g = RandomGraph(25, 40, 0.1, true);
  Graph rev = g.Reverse();
  std::unique_ptr<LandmarkIndex> oracle = MakeOracle(g, rev);
  std::vector<NodeId> set = {2, 18, 33};
  SptCache cache(1 << 20);
  const QueryCacheContext context{&cache, /*epoch=*/1};
  AlgoStats algo;
  const LandmarkSetBound plain = MakeCachedSetBound(
      oracle.get(), set, BoundDirection::kToSet, /*scoring_node=*/4,
      /*max_active=*/2, /*cache=*/nullptr, nullptr);
  for (int round = 0; round < 2; ++round) {  // Round 0 misses, 1 hits.
    const LandmarkSetBound cached = MakeCachedSetBound(
        oracle.get(), set, BoundDirection::kToSet, 4, 2, &context, &algo);
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      ASSERT_EQ(cached.Estimate(u), plain.Estimate(u))
          << "round " << round << " u=" << u;
    }
  }
  EXPECT_EQ(algo.bound_cache_misses, 1u);
  EXPECT_EQ(algo.bound_cache_hits, 1u);
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
