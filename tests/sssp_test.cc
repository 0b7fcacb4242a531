// Tests for the shortest-path engine: the resumable incremental search as
// plain Dijkstra (zero heuristic) and as A* (landmark bound), and the
// one-shot helpers built on it. Ground truth is Bellman-Ford.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"
#include "index/landmark_index.h"
#include "index/target_bound.h"
#include "sssp/incremental_search.h"
#include "util/rng.h"

namespace kpj {
namespace {

std::vector<PathLength> BellmanFord(const Graph& g, NodeId source) {
  std::vector<PathLength> dist(g.NumNodes(), kInfLength);
  dist[source] = 0;
  for (NodeId round = 0; round + 1 < g.NumNodes(); ++round) {
    bool changed = false;
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      if (dist[u] == kInfLength) continue;
      for (const OutEdge& e : g.OutEdges(u)) {
        if (dist[u] + e.weight < dist[e.to]) {
          dist[e.to] = dist[u] + e.weight;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return dist;
}

Graph RandomGraph(uint64_t seed, NodeId n, double p) {
  Rng rng(seed);
  GraphBuilder b(n);
  b.EnsureNode(n - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v && rng.NextBool(p)) {
        b.AddEdge(u, v, static_cast<Weight>(rng.NextInRange(1, 20)));
      }
    }
  }
  return b.Build();
}

/// Seeds `engine` with `sources` and runs it to exhaustion.
void RunFull(IncrementalSearch& engine,
             std::span<const std::pair<NodeId, PathLength>> sources) {
  ZeroHeuristic zero;
  engine.Initialize(sources, zero);
  engine.AdvanceToBound(kInfLength, zero);
}

TEST(IncrementalSearchTest, FullyAdvancedMatchesBellmanFord) {
  struct Case {
    uint64_t seed;
    double p;
  };
  std::vector<Case> cases = {{31, 0.12}};
  for (uint64_t seed = 0; seed < 10; ++seed) cases.push_back({seed, 0.1});
  for (const auto& [seed, p] : cases) {
    Graph g = RandomGraph(seed, 40, p);
    IncrementalSearch inc(g);
    std::pair<NodeId, PathLength> source[] = {{0, 0}};
    RunFull(inc, source);
    EXPECT_TRUE(inc.Exhausted());
    std::vector<PathLength> expected = BellmanFord(g, 0);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(inc.Settled(v), expected[v] != kInfLength)
          << "seed " << seed << " node " << v;
      EXPECT_EQ(inc.Distance(v), expected[v])
          << "seed " << seed << " node " << v;
    }
  }
}

TEST(IncrementalSearchTest, PathToReconstructsConsistentPath) {
  Graph g = RandomGraph(3, 30, 0.15);
  IncrementalSearch inc(g);
  std::pair<NodeId, PathLength> source[] = {{0, 0}};
  RunFull(inc, source);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (!inc.Settled(v)) continue;
    std::vector<NodeId> path = inc.PathTo(v);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), 0u);
    EXPECT_EQ(path.back(), v);
    PathLength len = 0;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      PathLength w = g.EdgeWeight(path[i], path[i + 1]);
      ASSERT_NE(w, kInfLength);
      len += w;
    }
    EXPECT_EQ(len, inc.Distance(v));
  }
}

TEST(IncrementalSearchTest, MultiSourceIsMinOverSources) {
  Graph g = RandomGraph(7, 35, 0.12);
  IncrementalSearch inc(g);
  std::vector<std::pair<NodeId, PathLength>> seeds = {{3, 0}, {11, 0}, {20, 0}};
  RunFull(inc, seeds);
  std::vector<PathLength> d3 = BellmanFord(g, 3);
  std::vector<PathLength> d11 = BellmanFord(g, 11);
  std::vector<PathLength> d20 = BellmanFord(g, 20);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    PathLength expected = std::min({d3[v], d11[v], d20[v]});
    EXPECT_EQ(inc.Distance(v), expected);
  }
}

TEST(IncrementalSearchTest, MultiSourceInitialOffsets) {
  // Virtual-node emulation: seeding with nonzero offsets.
  GraphBuilder b(3);
  b.AddEdge(0, 2, 10);
  b.AddEdge(1, 2, 10);
  Graph g = b.Build();
  IncrementalSearch inc(g);
  std::vector<std::pair<NodeId, PathLength>> seeds = {{0, 5}, {1, 1}};
  RunFull(inc, seeds);
  EXPECT_EQ(inc.Distance(2), 11u);  // Via node 1.
  EXPECT_EQ(inc.Parent(2), 1u);
}

TEST(IncrementalSearchTest, AdvanceUntilAnySettledStopsWithExactDistance) {
  struct Case {
    uint64_t graph_seed;
    NodeId n;
    double p;
    NodeId source;
    std::vector<NodeId> stops;
  };
  const Case cases[] = {{9, 50, 0.1, 0, {5, 17, 42}},
                        {21, 40, 0.12, 2, {0, 9, 33}}};
  for (const Case& c : cases) {
    Graph g = RandomGraph(c.graph_seed, c.n, c.p);
    ZeroHeuristic zero;
    IncrementalSearch inc(g);
    std::vector<PathLength> expected = BellmanFord(g, c.source);
    EpochSet stop(g.NumNodes());
    for (NodeId t : c.stops) {
      std::pair<NodeId, PathLength> source[] = {{c.source, 0}};
      inc.Initialize(source, zero);
      stop.ClearAll();
      stop.Insert(t);
      EXPECT_EQ(inc.AdvanceUntilAnySettled(stop, zero),
                expected[t] != kInfLength ? t : kInvalidNode);
      if (expected[t] != kInfLength) {
        EXPECT_EQ(inc.Distance(t), expected[t]);
      }
      // Early stop: nothing farther than the stop was settled.
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        if (inc.Settled(v)) {
          EXPECT_LE(expected[v], expected[t]);
        }
      }
    }
  }
}

TEST(IncrementalSearchTest, LandmarkHeuristicIsExactAndAdmissible) {
  Graph g = RandomGraph(23, 50, 0.1);
  Graph rev = g.Reverse();
  LandmarkIndexOptions lopt;
  lopt.num_landmarks = 6;
  LandmarkIndex landmarks = LandmarkIndex::Build(g, rev, lopt);
  std::vector<NodeId> targets = {13};
  LandmarkSetBound bound(&landmarks, targets, BoundDirection::kToSet);
  IncrementalSearch astar(g);
  EpochSet stop(g.NumNodes());
  stop.Insert(13);
  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    std::vector<PathLength> expected = BellmanFord(g, s);
    EXPECT_LE(bound.Estimate(s), expected[13]) << "source " << s;
    std::pair<NodeId, PathLength> source[] = {{s, 0}};
    astar.Initialize(source, bound);
    EXPECT_EQ(astar.AdvanceUntilAnySettled(stop, bound),
              expected[13] != kInfLength ? 13 : kInvalidNode)
        << "source " << s;
    if (expected[13] != kInfLength) {
      EXPECT_EQ(astar.Distance(13), expected[13]) << "source " << s;
    }
  }
}

TEST(IncrementalSearchTest, ExportDenseMatchesBellmanFordWithTightParents) {
  // A random graph plus two isolated nodes, so some labels stay infinite.
  Graph base = RandomGraph(17, 45, 0.08);
  GraphBuilder b(base.NumNodes() + 2);
  b.EnsureNode(base.NumNodes() + 1);
  for (NodeId u = 0; u < base.NumNodes(); ++u) {
    for (const OutEdge& e : base.OutEdges(u)) b.AddEdge(u, e.to, e.weight);
  }
  Graph g = b.Build();
  IncrementalSearch inc(g);
  std::vector<std::pair<NodeId, PathLength>> seeds = {{0, 0}, {30, 0}};
  RunFull(inc, seeds);
  SptResult spt = inc.ExportDense();
  ASSERT_EQ(spt.dist.size(), g.NumNodes());
  ASSERT_EQ(spt.parent.size(), g.NumNodes());
  std::vector<PathLength> d0 = BellmanFord(g, 0);
  std::vector<PathLength> d30 = BellmanFord(g, 30);
  size_t unreached = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(spt.dist[v], std::min(d0[v], d30[v])) << "node " << v;
    NodeId p = spt.parent[v];
    if (p == kInvalidNode) {
      // Roots carry their seed offset; unreached nodes stay infinite.
      EXPECT_TRUE(spt.dist[v] == 0 || spt.dist[v] == kInfLength)
          << "node " << v;
      unreached += spt.dist[v] == kInfLength ? 1 : 0;
      continue;
    }
    PathLength w = g.EdgeWeight(p, v);
    ASSERT_NE(w, kInfLength) << "parent " << p << " of " << v;
    EXPECT_EQ(spt.dist[p] + w, spt.dist[v]) << "node " << v;
  }
  EXPECT_GE(unreached, 2u);
  // The one-shot helper is the same run, exported.
  SptResult single = SingleSourceShortestPaths(g, 0);
  EXPECT_EQ(single.dist, d0);
}

TEST(IncrementalSearchTest, UnreachableNodesStayInfinite) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1);
  b.EnsureNode(2);
  Graph g = b.Build();
  ZeroHeuristic zero;
  IncrementalSearch inc(g);
  std::pair<NodeId, PathLength> source[] = {{0, 0}};
  RunFull(inc, source);
  EXPECT_EQ(inc.Distance(2), kInfLength);
  EXPECT_FALSE(inc.Settled(2));
  EXPECT_TRUE(inc.PathTo(2).empty());
  EpochSet stop(g.NumNodes());
  stop.Insert(2);
  EXPECT_EQ(inc.AdvanceUntilAnySettled(stop, zero), kInvalidNode);
}

TEST(IncrementalSearchTest, DistancesToSetHelper) {
  Graph g = RandomGraph(15, 40, 0.12);
  Graph rev = g.Reverse();
  std::vector<NodeId> targets = {7, 22};
  SptResult spt = DistancesToSet(rev, targets);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    // dist(v -> targets) in g equals reverse multi-source distance.
    std::vector<PathLength> dv = BellmanFord(g, v);
    EXPECT_EQ(spt.dist[v], std::min(dv[7], dv[22]));
  }
}

TEST(IncrementalSearchTest, BoundCoverageProperty) {
  // Prop. 5.2 analogue: after AdvanceToBound(B) with the zero heuristic,
  // every node at true distance <= B is settled with its exact distance,
  // and no settled node exceeds B.
  Graph g = RandomGraph(37, 50, 0.1);
  ZeroHeuristic zero;
  IncrementalSearch inc(g);
  std::pair<NodeId, PathLength> seed[] = {{1, 0}};
  inc.Initialize(seed, zero);
  std::vector<PathLength> expected = BellmanFord(g, 1);
  PathLength previous = 0;
  for (PathLength bound : {5u, 12u, 30u, 80u}) {
    inc.AdvanceToBound(bound, zero);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (expected[v] <= bound) {
        EXPECT_TRUE(inc.Settled(v)) << "bound " << bound << " node " << v;
        EXPECT_EQ(inc.Distance(v), expected[v]);
      } else if (inc.Settled(v)) {
        ADD_FAILURE() << "node " << v << " settled beyond bound " << bound;
      }
    }
    EXPECT_GE(bound, previous);
    previous = bound;
  }
}

TEST(IncrementalSearchTest, SettleCallbackSeesEveryNodeOnce) {
  Graph g = RandomGraph(41, 30, 0.15);
  ZeroHeuristic zero;
  IncrementalSearch inc(g);
  std::pair<NodeId, PathLength> seed[] = {{0, 0}};
  inc.Initialize(seed, zero);
  std::vector<int> count(g.NumNodes(), 0);
  inc.AdvanceToBound(kInfLength, zero, [&](NodeId v) { ++count[v]; });
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(count[v], inc.Settled(v) ? 1 : 0);
  }
  EXPECT_EQ(static_cast<size_t>(
                std::count(count.begin(), count.end(), 1)),
            inc.num_settled());
}

TEST(IncrementalSearchTest, AdvanceUntilAnySettledStopsAtNearest) {
  // Single- and multi-source runs, each stopped at the nearest stop node.
  struct Case {
    uint64_t graph_seed;
    NodeId n;
    double p;
    std::vector<NodeId> sources;
    std::vector<NodeId> stops;
  };
  const Case cases[] = {{43, 40, 0.12, {0}, {9, 27}},
                        {12, 50, 0.1, {0}, {10, 20, 30}},
                        {29, 40, 0.12, {0, 17}, {31, 4}}};
  for (const Case& c : cases) {
    Graph g = RandomGraph(c.graph_seed, c.n, c.p);
    ZeroHeuristic zero;
    IncrementalSearch inc(g);
    std::vector<std::pair<NodeId, PathLength>> seeds;
    for (NodeId s : c.sources) seeds.emplace_back(s, 0);
    inc.Initialize(seeds, zero);
    EpochSet stops(g.NumNodes());
    for (NodeId t : c.stops) stops.Insert(t);
    NodeId hit = inc.AdvanceUntilAnySettled(stops, zero);
    PathLength best = kInfLength;
    for (NodeId s : c.sources) {
      std::vector<PathLength> expected = BellmanFord(g, s);
      for (NodeId t : c.stops) best = std::min(best, expected[t]);
    }
    if (best == kInfLength) {
      EXPECT_EQ(hit, kInvalidNode) << "graph " << c.graph_seed;
    } else {
      ASSERT_NE(hit, kInvalidNode) << "graph " << c.graph_seed;
      EXPECT_TRUE(stops.Contains(hit));
      EXPECT_EQ(inc.Distance(hit), best) << "graph " << c.graph_seed;
    }
  }
}

TEST(IncrementalSearchTest, ReinitializeResetsState) {
  // One engine reused across runs: each Initialize forgets the last run.
  Graph g = RandomGraph(47, 30, 0.15);
  ZeroHeuristic zero;
  IncrementalSearch inc(g);
  for (NodeId s : {0u, 5u, 9u, 0u}) {
    std::pair<NodeId, PathLength> source[] = {{s, 0}};
    inc.Initialize(source, zero);
    EXPECT_EQ(inc.num_settled(), 0u);
    inc.AdvanceToBound(kInfLength, zero);
    std::vector<PathLength> expected = BellmanFord(g, s);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(inc.Distance(v), expected[v]) << "source " << s;
      EXPECT_EQ(inc.Settled(v), expected[v] != kInfLength) << "source " << s;
    }
  }
}

TEST(IncrementalSearchTest, EmptyIndexBoundSettlesLikeZeroBound) {
  // IterBound_I-NL guides SPT_I with a landmark bound over no landmarks
  // instead of ZeroHeuristic: both must settle the same nodes in the same
  // order, with the same labels and heap work.
  Graph g = RandomGraph(53, 60, 0.08);
  LandmarkIndex empty;
  std::vector<NodeId> targets = {7, 31};
  const LandmarkSetBound from_empty_index(&empty, targets,
                                          BoundDirection::kToSet);
  const LandmarkSetBound default_bound;
  ZeroHeuristic zero;
  for (NodeId s : {0u, 11u, 42u}) {
    std::pair<NodeId, PathLength> source[] = {{s, 0}};
    auto settle_order = [&](const auto& bound, AlgoStats* algo) {
      IncrementalSearch inc(g);
      inc.SetAlgoStats(algo);
      std::vector<std::pair<NodeId, PathLength>> order;
      inc.Initialize(source, bound);
      inc.AdvanceToBound(kInfLength, bound, [&](NodeId v) {
        order.emplace_back(v, inc.Distance(v));
      });
      return order;
    };
    AlgoStats zero_algo;
    AlgoStats empty_algo;
    AlgoStats default_algo;
    const auto expected = settle_order(zero, &zero_algo);
    EXPECT_EQ(settle_order(from_empty_index, &empty_algo), expected)
        << "source " << s;
    EXPECT_EQ(settle_order(default_bound, &default_algo), expected)
        << "source " << s;
    EXPECT_EQ(empty_algo.heap_pushes, zero_algo.heap_pushes);
    EXPECT_EQ(empty_algo.heap_decrease_keys, zero_algo.heap_decrease_keys);
    EXPECT_EQ(default_algo.heap_pushes, zero_algo.heap_pushes);
    EXPECT_EQ(default_algo.heap_decrease_keys, zero_algo.heap_decrease_keys);
    EXPECT_GT(zero_algo.heap_decrease_keys, 0u);
  }
}

}  // namespace
}  // namespace kpj
