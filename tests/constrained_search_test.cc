// The subspace-constrained search engine: prefix exclusion, banned first
// hops, τ-bounding (TestLB contract, paper Lemma 5.1), and the SPT_I
// restriction.

#include <gtest/gtest.h>

#include "core/constraint.h"
#include "graph/graph_builder.h"
#include "sssp/incremental_search.h"

namespace kpj {
namespace {

// 0 -1- 1 -1- 2 -1- 3 (targets {3}), alternative 0 -5- 3, detour
// 1 -1- 4 -1- 3.
Graph Web() {
  GraphBuilder b(5);
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 2, 1);
  b.AddEdge(2, 3, 1);
  b.AddEdge(0, 3, 5);
  b.AddEdge(1, 4, 1);
  b.AddEdge(4, 3, 1);
  return b.Build();
}

class ConstrainedSearchTest : public ::testing::Test {
 protected:
  ConstrainedSearchTest() : graph_(Web()), search_(graph_) {
    std::vector<NodeId> targets = {3};
    search_.SetTargets(targets);
  }

  SubspaceSearchResult Run(SubspaceSearchRequest req) {
    return search_.Run(req, zero_, &stats_);
  }

  Graph graph_;
  ConstrainedSearch search_;
  ZeroHeuristic zero_;
  QueryStats stats_;
};

TEST_F(ConstrainedSearchTest, UnconstrainedFindsShortest) {
  SubspaceSearchRequest req;
  req.start = 0;
  search_.ClearForbidden();
  SubspaceSearchResult r = Run(req);
  EXPECT_EQ(r.outcome, SearchOutcome::kFound);
  EXPECT_EQ(std::vector<NodeId>(r.suffix.begin(), r.suffix.end()),
            (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(r.suffix_length, 3u);
}

TEST_F(ConstrainedSearchTest, BannedFirstHopReroutes) {
  SubspaceSearchRequest req;
  req.start = 0;
  std::vector<NodeId> banned = {1};
  req.banned_first_hops = banned;
  search_.ClearForbidden();
  SubspaceSearchResult r = Run(req);
  EXPECT_EQ(r.outcome, SearchOutcome::kFound);
  EXPECT_EQ(std::vector<NodeId>(r.suffix.begin(), r.suffix.end()),
            (std::vector<NodeId>{0, 3}));
  EXPECT_EQ(r.suffix_length, 5u);
}

TEST_F(ConstrainedSearchTest, ForbiddenNodeReroutes) {
  SubspaceSearchRequest req;
  req.start = 1;
  req.prefix_length = 1;  // Prefix (0, 1).
  search_.ClearForbidden();
  search_.forbidden().Insert(0);
  search_.forbidden().Insert(2);  // Pretend 2 is on the prefix.
  SubspaceSearchResult r = Run(req);
  EXPECT_EQ(r.outcome, SearchOutcome::kFound);
  EXPECT_EQ(std::vector<NodeId>(r.suffix.begin(), r.suffix.end()),
            (std::vector<NodeId>{1, 4, 3}));
  EXPECT_EQ(r.suffix_length, 2u);
}

TEST_F(ConstrainedSearchTest, EmptyWhenFullyCut) {
  SubspaceSearchRequest req;
  req.start = 0;
  std::vector<NodeId> banned = {1, 3};
  req.banned_first_hops = banned;
  search_.ClearForbidden();
  SubspaceSearchResult r = Run(req);
  EXPECT_EQ(r.outcome, SearchOutcome::kEmpty);
}

TEST_F(ConstrainedSearchTest, TauBoundedVersusFound) {
  // Lemma 5.1 contract: path of length 3 + prefix 10 = 13 total.
  SubspaceSearchRequest req;
  req.start = 0;
  req.prefix_length = 10;
  req.tau = 12.0;
  search_.ClearForbidden();
  SubspaceSearchResult r = Run(req);
  EXPECT_EQ(r.outcome, SearchOutcome::kBounded);

  req.tau = 13.0;
  search_.ClearForbidden();
  r = Run(req);
  EXPECT_EQ(r.outcome, SearchOutcome::kFound);
  EXPECT_EQ(r.suffix_length, 3u);
}

TEST_F(ConstrainedSearchTest, StartCountsAsDestination) {
  SubspaceSearchRequest req;
  req.start = 3;
  req.prefix_length = 7;
  req.start_counts_as_destination = true;
  search_.ClearForbidden();
  SubspaceSearchResult r = Run(req);
  EXPECT_EQ(r.outcome, SearchOutcome::kFound);
  EXPECT_EQ(std::vector<NodeId>(r.suffix.begin(), r.suffix.end()),
            (std::vector<NodeId>{3}));
  EXPECT_EQ(r.suffix_length, 0u);

  req.tau = 6.0;  // Prefix alone exceeds τ.
  r = Run(req);
  EXPECT_EQ(r.outcome, SearchOutcome::kBounded);
}

TEST_F(ConstrainedSearchTest, StartNotDestinationWhenFinishBanned) {
  // Start is the target node 3 but finishing there is banned; the only
  // way out of 3 is... nothing (3 has no out-edges), so the subspace is
  // empty.
  SubspaceSearchRequest req;
  req.start = 3;
  req.start_counts_as_destination = false;
  search_.ClearForbidden();
  SubspaceSearchResult r = Run(req);
  EXPECT_EQ(r.outcome, SearchOutcome::kEmpty);
}

TEST_F(ConstrainedSearchTest, VirtualRootSeeds) {
  // Reverse-style usage: virtual start seeded at {1, 2}, target 3.
  SubspaceSearchRequest req;
  req.start = kInvalidNode;
  std::vector<NodeId> seeds = {1, 2};
  req.seeds = seeds;
  search_.ClearForbidden();
  SubspaceSearchResult r = Run(req);
  EXPECT_EQ(r.outcome, SearchOutcome::kFound);
  EXPECT_EQ(std::vector<NodeId>(r.suffix.begin(), r.suffix.end()),
            (std::vector<NodeId>{2, 3}));  // 2 is closer.
  EXPECT_EQ(r.suffix_length, 1u);

  std::vector<NodeId> banned = {2};
  req.banned_first_hops = banned;
  search_.ClearForbidden();
  r = Run(req);
  EXPECT_EQ(r.outcome, SearchOutcome::kFound);
  EXPECT_EQ(r.suffix.front(), 1u);
}

TEST_F(ConstrainedSearchTest, IncompleteSeedsNeverEmpty) {
  SubspaceSearchRequest req;
  req.start = kInvalidNode;
  std::vector<NodeId> seeds = {};
  req.seeds = seeds;
  req.seeds_incomplete = true;
  req.tau = 100.0;
  search_.ClearForbidden();
  SubspaceSearchResult r = Run(req);
  EXPECT_EQ(r.outcome, SearchOutcome::kBounded);

  req.seeds_incomplete = false;
  r = Run(req);
  EXPECT_EQ(r.outcome, SearchOutcome::kEmpty);
}

TEST_F(ConstrainedSearchTest, RestrictToSettledNodes) {
  // Grow an incremental search only around node 0 (bound 1), then require
  // the constrained search to stay inside it.
  ZeroHeuristic zero;
  IncrementalSearch inc(graph_);
  std::pair<NodeId, PathLength> seed[] = {{0, 0}};
  inc.Initialize(seed, zero);
  inc.AdvanceToBound(1, zero);  // Settles 0 and 1 only.
  ASSERT_TRUE(inc.Settled(1));
  ASSERT_FALSE(inc.Settled(2));

  SubspaceSearchRequest req;
  req.start = 0;
  req.tau = 100.0;
  req.restrict_to = &inc;
  search_.ClearForbidden();
  SubspaceSearchResult r = Run(req);
  // Path to 3 requires nodes outside the tree: bounded, not empty.
  EXPECT_EQ(r.outcome, SearchOutcome::kBounded);

  inc.AdvanceToBound(kInfLength, zero);  // Now exhausted: everything settled.
  search_.ClearForbidden();
  r = Run(req);
  EXPECT_EQ(r.outcome, SearchOutcome::kFound);
  EXPECT_EQ(r.suffix_length, 3u);
}

TEST_F(ConstrainedSearchTest, InfiniteHeuristicMeansEmpty) {
  // A heuristic that proves unreachability short-circuits to kEmpty.
  struct InfHeuristic {
    PathLength Estimate(NodeId) const { return kInfLength; }
    void Prefetch(NodeId) const {}
  } inf;
  SubspaceSearchRequest req;
  req.start = 0;
  search_.ClearForbidden();
  QueryStats stats;
  SubspaceSearchResult r = search_.Run(req, inf, &stats);
  EXPECT_EQ(r.outcome, SearchOutcome::kEmpty);
}

}  // namespace
}  // namespace kpj
