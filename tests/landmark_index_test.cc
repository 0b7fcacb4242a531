// Landmark index and per-query set bounds: admissibility against true
// distances is the key property — an inadmissible bound breaks every
// solver built on it.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "graph/graph_builder.h"
#include "index/landmark_index.h"
#include "index/target_bound.h"
#include "sssp/incremental_search.h"
#include "util/rng.h"

namespace kpj {
namespace {

Graph RandomGraph(uint64_t seed, NodeId n, double p, bool bidir) {
  Rng rng(seed);
  GraphBuilder b(n);
  b.EnsureNode(n - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = bidir ? u + 1 : 0; v < n; ++v) {
      if (u == v || !rng.NextBool(p)) continue;
      Weight w = static_cast<Weight>(rng.NextInRange(1, 9));
      if (bidir) {
        b.AddBidirectional(u, v, w);
      } else {
        b.AddEdge(u, v, w);
      }
    }
  }
  return b.Build();
}

TEST(LandmarkIndexTest, BuildSelectsDistinctLandmarks) {
  Graph g = RandomGraph(1, 60, 0.1, true);
  Graph rev = g.Reverse();
  LandmarkIndexOptions opt;
  opt.num_landmarks = 8;
  LandmarkIndex index = LandmarkIndex::Build(g, rev, opt);
  EXPECT_EQ(index.num_landmarks(), 8u);
  std::vector<NodeId> lms = index.landmarks();
  std::sort(lms.begin(), lms.end());
  EXPECT_EQ(std::unique(lms.begin(), lms.end()), lms.end());
}

/// Expects every stored table entry to equal a reference Dijkstra's.
void ExpectExactTables(const Graph& g, const Graph& rev,
                       const LandmarkIndex& index) {
  for (uint32_t l = 0; l < index.num_landmarks(); ++l) {
    NodeId w = index.landmarks()[l];
    SptResult from = SingleSourceShortestPaths(g, w);
    SptResult to = SingleSourceShortestPaths(rev, w);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(index.DistFromLandmark(l, v), from.dist[v]);
      EXPECT_EQ(index.DistToLandmark(l, v), to.dist[v]);
    }
  }
}

TEST(LandmarkIndexTest, StoredDistancesAreExact) {
  // A directed graph takes the forward-and-backward build; a bidirectional
  // one (graph == reverse) fills both tables from forward runs alone.
  for (bool bidir : {false, true}) {
    Graph g = RandomGraph(2, 50, 0.12, bidir);
    Graph rev = g.Reverse();
    EXPECT_EQ(g.Equals(rev), bidir);
    for (LandmarkSelection selection :
         {LandmarkSelection::kFarthest, LandmarkSelection::kRandom}) {
      SCOPED_TRACE(testing::Message() << "bidir=" << bidir << " selection="
                                      << static_cast<int>(selection));
      LandmarkIndexOptions opt;
      opt.num_landmarks = 5;
      opt.selection = selection;
      ExpectExactTables(g, rev, LandmarkIndex::Build(g, rev, opt));
    }
  }
}

TEST(LandmarkIndexTest, OneAsymmetricArcTakesTheTwoRunBuild) {
  // A bidirectional graph with one arc made lighter than its twin is no
  // longer its own reverse: the build must run backward searches, and the
  // tables it stores must still be exact.
  Graph sym = RandomGraph(5, 50, 0.12, true);
  std::vector<WeightedEdge> edges = sym.ToEdgeList();
  auto heavy = std::find_if(edges.begin(), edges.end(),
                            [](const WeightedEdge& e) { return e.weight > 5; });
  ASSERT_NE(heavy, edges.end());
  heavy->weight = 1;
  Graph g = BuildGraph(sym.NumNodes(), edges);
  Graph rev = g.Reverse();
  ASSERT_FALSE(g.Equals(rev));
  for (LandmarkSelection selection :
       {LandmarkSelection::kFarthest, LandmarkSelection::kRandom}) {
    SCOPED_TRACE(testing::Message()
                 << "selection=" << static_cast<int>(selection));
    LandmarkIndexOptions opt;
    opt.num_landmarks = 5;
    opt.selection = selection;
    LandmarkIndex index = LandmarkIndex::Build(g, rev, opt);
    ExpectExactTables(g, rev, index);
    // The changed arc shows in the tables: some landmark is nearer in one
    // direction than in the other, which a forward-only build would miss.
    bool asymmetric = false;
    for (uint32_t l = 0; l < index.num_landmarks(); ++l) {
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        asymmetric |= index.DistFromLandmark(l, v) != index.DistToLandmark(l, v);
      }
    }
    EXPECT_TRUE(asymmetric);
  }
}

TEST(LandmarkIndexTest, PointBoundIsAdmissible) {
  for (uint64_t seed : {3u, 4u}) {
    Graph g = RandomGraph(seed, 40, 0.1, seed % 2 == 0);
    Graph rev = g.Reverse();
    LandmarkIndexOptions opt;
    opt.num_landmarks = 6;
    LandmarkIndex index = LandmarkIndex::Build(g, rev, opt);
    for (NodeId u = 0; u < g.NumNodes(); u += 3) {
      SptResult truth = SingleSourceShortestPaths(g, u);
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        PathLength lb = index.LowerBound(u, v);
        if (truth.dist[v] == kInfLength) {
          // Anything up to infinity is fine.
          continue;
        }
        EXPECT_LE(lb, truth.dist[v]) << "u=" << u << " v=" << v;
      }
    }
  }
}

TEST(LandmarkIndexTest, UnreachabilityInference) {
  // Two disconnected bidirectional islands (a 10-node chain and a pair):
  // the tables prove cross-island distances infinite, and distances along
  // the chain from a landmark endpoint are exact.
  GraphBuilder b(12);
  for (NodeId i = 0; i < 9; ++i) b.AddBidirectional(i, i + 1, 1);
  b.AddBidirectional(10, 11, 1);
  Graph g = b.Build();
  Graph rev = g.Reverse();
  LandmarkIndexOptions opt;
  opt.num_landmarks = 4;
  opt.seed = 1;  // Deterministic placement: landmarks {9, 0, 5, 7}.
  LandmarkIndex index = LandmarkIndex::Build(g, rev, opt);
  EXPECT_EQ(index.LowerBound(0, 9), 9u);          // Exact via landmark 0.
  EXPECT_EQ(index.LowerBound(0, 11), kInfLength);  // Proven unreachable.
  EXPECT_EQ(index.LowerBound(11, 0), kInfLength);
  EXPECT_LE(index.LowerBound(10, 11), 1u);  // Admissible off-landmark-island.
  EXPECT_EQ(index.LowerBound(5, 5), 0u);
}

TEST(LandmarkIndexTest, SetBoundToSetIsAdmissibleAndZeroOnMembers) {
  Graph g = RandomGraph(5, 45, 0.12, true);
  Graph rev = g.Reverse();
  LandmarkIndexOptions opt;
  opt.num_landmarks = 6;
  LandmarkIndex index = LandmarkIndex::Build(g, rev, opt);
  std::vector<NodeId> set = {4, 17, 30};
  LandmarkSetBound bound(&index, set, BoundDirection::kToSet);
  SptResult to_set = DistancesToSet(rev, set);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    PathLength lb = bound.Estimate(u);
    if (to_set.dist[u] != kInfLength) {
      EXPECT_LE(lb, to_set.dist[u]) << "node " << u;
    }
  }
  for (NodeId member : set) EXPECT_EQ(bound.Estimate(member), 0u);
}

TEST(LandmarkIndexTest, SetBoundFromSetIsAdmissible) {
  Graph g = RandomGraph(6, 45, 0.12, false);
  Graph rev = g.Reverse();
  LandmarkIndexOptions opt;
  opt.num_landmarks = 6;
  LandmarkIndex index = LandmarkIndex::Build(g, rev, opt);
  std::vector<NodeId> set = {2, 9};
  LandmarkSetBound bound(&index, set, BoundDirection::kFromSet);
  // dist(set, u) via forward multi-source Dijkstra.
  ZeroHeuristic zero;
  IncrementalSearch engine(g);
  std::vector<std::pair<NodeId, PathLength>> seeds = {{2, 0}, {9, 0}};
  engine.Initialize(seeds, zero);
  engine.AdvanceToBound(kInfLength, zero);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    PathLength truth = engine.Distance(u);
    if (truth != kInfLength) {
      EXPECT_LE(bound.Estimate(u), truth) << "node " << u;
    }
  }
}

TEST(LandmarkIndexTest, SetBoundConsistencyAlongEdges) {
  // h(u) <= w(u,v) + h(v): required for single-settle A*.
  Graph g = RandomGraph(7, 40, 0.15, true);
  Graph rev = g.Reverse();
  LandmarkIndexOptions opt;
  opt.num_landmarks = 5;
  LandmarkIndex index = LandmarkIndex::Build(g, rev, opt);
  std::vector<NodeId> set = {1, 8};
  LandmarkSetBound bound(&index, set, BoundDirection::kToSet);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    PathLength hu = bound.Estimate(u);
    if (hu == kInfLength) continue;
    for (const OutEdge& e : g.OutEdges(u)) {
      PathLength hv = bound.Estimate(e.to);
      if (hv == kInfLength) continue;
      EXPECT_LE(hu, e.weight + hv)
          << "inconsistent along " << u << "->" << e.to;
    }
  }
}

TEST(LandmarkIndexTest, EmptyIndexGivesZeroBounds) {
  LandmarkIndex index;
  std::vector<NodeId> set = {0};
  LandmarkSetBound bound(&index, set, BoundDirection::kToSet);
  EXPECT_EQ(bound.Estimate(0), 0u);
  EXPECT_EQ(bound.Estimate(5), 0u);
}

TEST(LandmarkIndexTest, MoreLandmarksNeverHurtPointBounds) {
  Graph g = RandomGraph(9, 40, 0.12, true);
  Graph rev = g.Reverse();
  LandmarkIndexOptions small;
  small.num_landmarks = 2;
  small.seed = 77;
  LandmarkIndexOptions large;
  large.num_landmarks = 10;
  large.seed = 77;
  LandmarkIndex s = LandmarkIndex::Build(g, rev, small);
  LandmarkIndex l = LandmarkIndex::Build(g, rev, large);
  // Same seed: the first 2 landmarks coincide, so the larger index
  // dominates pointwise.
  for (NodeId u = 0; u < g.NumNodes(); u += 5) {
    for (NodeId v = 0; v < g.NumNodes(); v += 3) {
      EXPECT_GE(l.LowerBound(u, v), s.LowerBound(u, v));
    }
  }
}

TEST(LandmarkIndexTest, SaveLoadRoundTrip) {
  Graph g = RandomGraph(10, 30, 0.15, true);
  LandmarkIndexOptions opt;
  opt.num_landmarks = 4;
  LandmarkIndex index = LandmarkIndex::Build(g, g.Reverse(), opt);
  std::string path =
      (std::filesystem::temp_directory_path() / "kpj_lm_test.bin").string();
  ASSERT_TRUE(index.Save(path).ok());
  Result<LandmarkIndex> loaded = LandmarkIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().Equals(index));
  std::filesystem::remove(path);
}

TEST(LandmarkIndexTest, FewNodesClampLandmarkCount) {
  GraphBuilder b(3);
  b.AddBidirectional(0, 1, 1);
  b.AddBidirectional(1, 2, 1);
  Graph g = b.Build();
  LandmarkIndexOptions opt;
  opt.num_landmarks = 16;
  LandmarkIndex index = LandmarkIndex::Build(g, g.Reverse(), opt);
  EXPECT_LE(index.num_landmarks(), 3u);
  EXPECT_GE(index.num_landmarks(), 1u);
}


TEST(LandmarkIndexTest, ActiveSelectionKeepsSubsetAndAdmissibility) {
  Graph g = RandomGraph(11, 50, 0.12, true);
  Graph rev = g.Reverse();
  LandmarkIndexOptions opt;
  opt.num_landmarks = 8;
  LandmarkIndex index = LandmarkIndex::Build(g, rev, opt);
  std::vector<NodeId> set = {4, 19};
  LandmarkSetBound all(&index, set, BoundDirection::kToSet);
  LandmarkSetBound active(&index, set, BoundDirection::kToSet,
                          /*scoring_node=*/0, /*max_active=*/3);
  EXPECT_EQ(all.active_landmarks().size(), 8u);
  EXPECT_EQ(active.active_landmarks().size(), 3u);
  SptResult truth = DistancesToSet(rev, set);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    PathLength lb = active.Estimate(u);
    // Subset bound: admissible and dominated by the full bound.
    if (truth.dist[u] != kInfLength) {
      EXPECT_LE(lb, truth.dist[u]);
    }
    PathLength full = all.Estimate(u);
    if (full != kInfLength) {
      EXPECT_LE(lb, full);
    }
  }
  // At the scoring node the subset keeps the best landmark: equal bounds.
  EXPECT_EQ(active.Estimate(0), all.Estimate(0));
}

TEST(LandmarkIndexTest, ActiveSelectionIgnoredForVirtualScoringNode) {
  Graph g = RandomGraph(12, 30, 0.15, true);
  LandmarkIndexOptions opt;
  opt.num_landmarks = 6;
  LandmarkIndex index = LandmarkIndex::Build(g, g.Reverse(), opt);
  std::vector<NodeId> set = {1};
  LandmarkSetBound bound(&index, set, BoundDirection::kToSet,
                         /*scoring_node=*/g.NumNodes(), /*max_active=*/2);
  EXPECT_EQ(bound.active_landmarks().size(), 6u);  // Falls back to all.
}


TEST(LandmarkIndexTest, RandomSelectionIsDistinctAndAdmissible) {
  Graph g = RandomGraph(13, 50, 0.12, true);
  Graph rev = g.Reverse();
  LandmarkIndexOptions opt;
  opt.num_landmarks = 6;
  opt.selection = LandmarkSelection::kRandom;
  LandmarkIndex index = LandmarkIndex::Build(g, rev, opt);
  EXPECT_EQ(index.num_landmarks(), 6u);
  std::vector<NodeId> lms = index.landmarks();
  std::sort(lms.begin(), lms.end());
  EXPECT_EQ(std::unique(lms.begin(), lms.end()), lms.end());
  for (NodeId u = 0; u < g.NumNodes(); u += 4) {
    SptResult truth = SingleSourceShortestPaths(g, u);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (truth.dist[v] != kInfLength) {
        EXPECT_LE(index.LowerBound(u, v), truth.dist[v]);
      }
    }
  }
}

TEST(LandmarkIndexTest, ParallelBuildIsByteIdenticalToSerial) {
  // Table filling parallelizes over landmarks; distances are exact and the
  // write slots disjoint, so any thread count must reproduce the serial
  // build bit for bit — for both selection strategies.
  for (LandmarkSelection selection :
       {LandmarkSelection::kFarthest, LandmarkSelection::kRandom}) {
    Graph g = RandomGraph(14, 80, 0.08, true);
    Graph rev = g.Reverse();
    LandmarkIndexOptions opt;
    opt.num_landmarks = 6;
    opt.selection = selection;
    opt.threads = 1;
    LandmarkIndex serial = LandmarkIndex::Build(g, rev, opt);
    for (unsigned threads : {2u, 8u}) {
      opt.threads = threads;
      LandmarkIndex parallel = LandmarkIndex::Build(g, rev, opt);
      EXPECT_TRUE(parallel.Equals(serial))
          << "threads=" << threads
          << " selection=" << static_cast<int>(selection);
    }
  }
}

TEST(LandmarkIndexTest, FarthestSelectionSpreadsBetterThanRandom) {
  // On a long chain, farthest-point selection must include both
  // endpoints; the point bound between them is then exact.
  GraphBuilder b(100);
  for (NodeId i = 0; i + 1 < 100; ++i) b.AddBidirectional(i, i + 1, 1);
  Graph g = b.Build();
  Graph rev = g.Reverse();
  LandmarkIndexOptions opt;
  opt.num_landmarks = 2;
  LandmarkIndex far = LandmarkIndex::Build(g, rev, opt);
  EXPECT_EQ(far.LowerBound(0, 99), 99u);
}

}  // namespace
}  // namespace kpj
