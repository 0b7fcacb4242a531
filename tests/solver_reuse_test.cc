// Solvers are long-lived objects that reuse workspaces across queries
// (epoch resets); these tests pin down that repeated/interleaved use gives
// exactly the same answers as fresh solvers.

#include <gtest/gtest.h>

#include <memory>

#include "core/kpj.h"
#include "core/solver.h"
#include "core/verifier.h"
#include "gen/road_gen.h"
#include "index/landmark_index.h"
#include "util/rng.h"

namespace kpj {
namespace {

class SolverReuseTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  static void SetUpTestSuite() {
    RoadGenOptions opt;
    opt.target_nodes = 3000;
    opt.seed = 77;
    net_ = new RoadNetwork(GenerateRoadNetwork(opt));
    reverse_ = new Graph(net_->graph.Reverse());
    LandmarkIndexOptions lopt;
    lopt.num_landmarks = 6;
    landmarks_ = new LandmarkIndex(
        LandmarkIndex::Build(net_->graph, *reverse_, lopt));
  }
  static void TearDownTestSuite() {
    delete net_;
    delete reverse_;
    delete landmarks_;
  }

  static PreparedQuery Prepare(NodeId source, std::vector<NodeId> targets,
                               uint32_t k) {
    KpjQuery query;
    query.sources = {source};
    query.targets = std::move(targets);
    query.k = k;
    Result<PreparedQuery> prepared = PrepareQuery(net_->graph, query);
    EXPECT_TRUE(prepared.ok());
    return std::move(prepared).value();
  }

  static RoadNetwork* net_;
  static Graph* reverse_;
  static LandmarkIndex* landmarks_;
};

RoadNetwork* SolverReuseTest::net_ = nullptr;
Graph* SolverReuseTest::reverse_ = nullptr;
LandmarkIndex* SolverReuseTest::landmarks_ = nullptr;

TEST_P(SolverReuseTest, RepeatedQueriesMatchFreshSolvers) {
  KpjOptions options;
  options.algorithm = GetParam();
  options.oracle = landmarks_;
  std::unique_ptr<KpjSolver> reused =
      MakeSolver(net_->graph, *reverse_, options);

  Rng rng(31337);
  for (int round = 0; round < 12; ++round) {
    NodeId source =
        static_cast<NodeId>(rng.NextBounded(net_->graph.NumNodes()));
    std::vector<NodeId> targets;
    uint32_t nt = static_cast<uint32_t>(rng.NextInRange(1, 5));
    for (uint64_t t : rng.SampleDistinct(nt, net_->graph.NumNodes())) {
      targets.push_back(static_cast<NodeId>(t));
    }
    uint32_t k = static_cast<uint32_t>(rng.NextInRange(1, 15));
    PreparedQuery prepared = Prepare(source, targets, k);
    if (prepared.targets.empty()) continue;

    KpjResult from_reused = reused->Run(prepared);
    std::unique_ptr<KpjSolver> fresh =
        MakeSolver(net_->graph, *reverse_, options);
    KpjResult from_fresh = fresh->Run(prepared);

    ASSERT_EQ(from_reused.paths.size(), from_fresh.paths.size())
        << "round " << round;
    for (size_t i = 0; i < from_reused.paths.size(); ++i) {
      EXPECT_EQ(from_reused.paths[i].length, from_fresh.paths[i].length);
    }
  }
}

TEST_P(SolverReuseTest, SameQueryTwiceIsIdentical) {
  KpjOptions options;
  options.algorithm = GetParam();
  options.oracle = landmarks_;
  std::unique_ptr<KpjSolver> solver =
      MakeSolver(net_->graph, *reverse_, options);
  PreparedQuery prepared = Prepare(1, {100, 200, 300}, 10);
  KpjResult first = solver->Run(prepared);
  KpjResult second = solver->Run(prepared);
  ASSERT_EQ(first.paths.size(), second.paths.size());
  for (size_t i = 0; i < first.paths.size(); ++i) {
    EXPECT_TRUE(first.paths[i] == second.paths[i]) << "rank " << i;
  }
}

TEST_P(SolverReuseTest, GrowingKIsPrefixConsistent) {
  KpjOptions options;
  options.algorithm = GetParam();
  options.oracle = landmarks_;
  std::unique_ptr<KpjSolver> solver =
      MakeSolver(net_->graph, *reverse_, options);
  PreparedQuery small = Prepare(5, {50, 500}, 4);
  PreparedQuery large = Prepare(5, {50, 500}, 12);
  KpjResult rs = solver->Run(small);
  KpjResult rl = solver->Run(large);
  ASSERT_LE(rs.paths.size(), rl.paths.size());
  for (size_t i = 0; i < rs.paths.size(); ++i) {
    EXPECT_EQ(rs.paths[i].length, rl.paths[i].length) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SolverReuseTest, ::testing::ValuesIn(kAllAlgorithms),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      std::string name = AlgorithmName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace kpj
