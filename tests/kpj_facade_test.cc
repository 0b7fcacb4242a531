// The kpj.h facade: validation errors, KSP convenience, category queries,
// and GKPJ's virtual source (paths through a second source, source order).

#include <gtest/gtest.h>

#include "core/kpj.h"
#include "core/kpj_instance.h"
#include "core/verifier.h"
#include "graph/graph_builder.h"
#include "index/category_index.h"
#include "index/landmark_index.h"

namespace kpj {
namespace {

Graph Web() {
  GraphBuilder b(6);
  b.AddBidirectional(0, 1, 1);
  b.AddBidirectional(1, 2, 2);
  b.AddBidirectional(2, 3, 1);
  b.AddBidirectional(0, 4, 3);
  b.AddBidirectional(4, 3, 2);
  b.AddBidirectional(1, 5, 1);
  b.AddBidirectional(5, 3, 3);
  return b.Build();
}

class FacadeTest : public ::testing::Test {
 protected:
  FacadeTest()
      : graph_(Web()),
        instance_(KpjInstance::Wrap(Web(), Permutation()).value()) {}
  Graph graph_;  // Identity-layout copy for reference validation.
  KpjInstance instance_;
  KpjOptions options_;  // Defaults: IterBoundI, no landmarks.
};

TEST_F(FacadeTest, RejectsEmptySources) {
  KpjQuery q;
  q.targets = {3};
  q.k = 1;
  EXPECT_FALSE(RunKpj(instance_, q, options_).ok());
}

TEST_F(FacadeTest, RejectsEmptyTargets) {
  KpjQuery q;
  q.sources = {0};
  q.k = 1;
  EXPECT_FALSE(RunKpj(instance_, q, options_).ok());
}

TEST_F(FacadeTest, RejectsZeroK) {
  KpjQuery q;
  q.sources = {0};
  q.targets = {3};
  q.k = 0;
  EXPECT_FALSE(RunKpj(instance_, q, options_).ok());
}

TEST_F(FacadeTest, RejectsOutOfRangeIds) {
  KpjQuery q;
  q.sources = {99};
  q.targets = {3};
  q.k = 1;
  EXPECT_FALSE(RunKpj(instance_, q, options_).ok());
  q.sources = {0};
  q.targets = {99};
  EXPECT_FALSE(RunKpj(instance_, q, options_).ok());
}

TEST_F(FacadeTest, RejectsDuplicateSources) {
  KpjQuery q;
  q.sources = {0, 0};
  q.targets = {3};
  q.k = 1;
  EXPECT_FALSE(RunKpj(instance_, q, options_).ok());
}

TEST_F(FacadeTest, RejectsGkpjWithOverlap) {
  KpjQuery q;
  q.sources = {0, 3};
  q.targets = {3, 2};
  q.k = 1;
  Result<KpjResult> r = RunKpj(instance_, q, options_);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FacadeTest, SingleSourceInTargetsDropsTrivialPath) {
  KpjQuery q;
  q.sources = {0};
  q.targets = {0, 3};
  q.k = 10;
  Result<KpjResult> r = RunKpj(instance_, q, options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const Path& p : r.value().paths) EXPECT_GE(p.nodes.size(), 2u);
  Status check = ValidateAgainstReference(graph_, q, r.value().paths);
  EXPECT_TRUE(check.ok()) << check.ToString();
}

TEST_F(FacadeTest, AllTargetsEqualSourceYieldsEmptyResult) {
  KpjQuery q;
  q.sources = {0};
  q.targets = {0};
  q.k = 3;
  Result<KpjResult> r = RunKpj(instance_, q, options_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().paths.empty());
}

TEST_F(FacadeTest, UnreachableTargetGivesEmptyResult) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1);
  b.EnsureNode(2);
  Result<KpjInstance> inst = KpjInstance::Wrap(b.Build(), Permutation());
  ASSERT_TRUE(inst.ok());
  for (Algorithm a : kAllAlgorithms) {
    KpjOptions o;
    o.algorithm = a;
    Result<KpjResult> r = RunKsp(inst.value(), 0, 2, 5, o);
    ASSERT_TRUE(r.ok()) << AlgorithmName(a);
    EXPECT_TRUE(r.value().paths.empty()) << AlgorithmName(a);
  }
}

TEST_F(FacadeTest, KspConvenience) {
  Result<KpjResult> r = RunKsp(instance_, 0, 3, 3, options_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().paths.size(), 3u);
  EXPECT_EQ(r.value().paths[0].length, 4u);  // 0-1-2-3.
  KpjQuery q;
  q.sources = {0};
  q.targets = {3};
  q.k = 3;
  EXPECT_TRUE(ValidateAgainstReference(graph_, q, r.value().paths).ok());
}

TEST_F(FacadeTest, MakeCategoryQuery) {
  CategoryIndex index(graph_.NumNodes());
  CategoryId hotels = index.AddCategory("H");
  index.Assign(3, hotels);
  index.Assign(4, hotels);
  Result<KpjQuery> q = MakeCategoryQuery(index, 0, hotels, 2);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().targets, (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(q.value().k, 2u);

  CategoryId empty = index.AddCategory("Empty");
  EXPECT_FALSE(MakeCategoryQuery(index, 0, empty, 2).ok());
  EXPECT_FALSE(MakeCategoryQuery(index, 0, 999, 2).ok());
}

TEST_F(FacadeTest, GkpjBasic) {
  KpjQuery q;
  q.sources = {0, 2};
  q.targets = {3};
  q.k = 4;
  for (Algorithm a : kAllAlgorithms) {
    KpjOptions o;
    o.algorithm = a;
    Result<KpjResult> r = RunKpj(instance_, q, o);
    ASSERT_TRUE(r.ok()) << AlgorithmName(a) << ": "
                        << r.status().ToString();
    const auto& paths = r.value().paths;
    ASSERT_FALSE(paths.empty()) << AlgorithmName(a);
    // Best path: 2 -> 3 with length 1.
    EXPECT_EQ(paths[0].length, 1u) << AlgorithmName(a);
    EXPECT_EQ(paths[0].nodes, (std::vector<NodeId>{2, 3}));
    Status check = ValidateAgainstReference(graph_, q, paths);
    EXPECT_TRUE(check.ok()) << AlgorithmName(a) << ": " << check.ToString();
  }
}

TEST_F(FacadeTest, GkpjPathMayRunThroughASecondSource) {
  // Sources 0 and 1, target 3. The second path leaves source 0 and runs
  // through source 1: the virtual source's arc to 0 is its first hop, and
  // nothing bans passing another source.
  GraphBuilder b(4);
  b.AddEdge(1, 2, 1);
  b.AddEdge(2, 3, 1);
  b.AddEdge(0, 1, 1);
  b.AddEdge(0, 3, 5);
  b.AddEdge(1, 3, 10);
  Graph graph = b.Build();
  KpjInstance instance = KpjInstance::Wrap(graph, Permutation()).value();
  LandmarkIndexOptions lopt;
  lopt.num_landmarks = 2;
  LandmarkIndex landmarks =
      LandmarkIndex::Build(graph, graph.Reverse(), lopt);
  KpjQuery q;
  q.sources = {0, 1};
  q.targets = {3};
  q.k = 6;
  const std::vector<Path> expected = {
      Path{{1, 2, 3}, 2},  Path{{0, 1, 2, 3}, 3}, Path{{0, 3}, 5},
      Path{{1, 3}, 10},    Path{{0, 1, 3}, 11},
  };
  const LandmarkIndex* oracles[] = {nullptr, &landmarks};
  for (const LandmarkIndex* oracle : oracles) {
    for (Algorithm a : kAllAlgorithms) {
      KpjOptions o;
      o.algorithm = a;
      o.oracle = oracle;
      Result<KpjResult> r = RunKpj(instance, q, o);
      ASSERT_TRUE(r.ok()) << AlgorithmName(a) << ": "
                          << r.status().ToString();
      const std::vector<Path>& paths = r.value().paths;
      ASSERT_EQ(paths.size(), expected.size()) << AlgorithmName(a);
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(paths[i].nodes, expected[i].nodes)
            << AlgorithmName(a) << " landmarks=" << (oracle != nullptr)
            << " rank " << i;
        EXPECT_EQ(paths[i].length, expected[i].length) << AlgorithmName(a);
      }
    }
  }
}

TEST_F(FacadeTest, GkpjAnswerDoesNotDependOnSourceOrder) {
  // The answer cache keys GKPJ on the sorted source set, so every listing
  // of one set must give the same paths, ties included.
  const std::vector<std::vector<NodeId>> orders = {
      {0, 2, 4}, {4, 0, 2}, {2, 4, 0}};
  for (Algorithm a : kAllAlgorithms) {
    KpjOptions o;
    o.algorithm = a;
    std::vector<std::vector<NodeId>> first;
    for (const std::vector<NodeId>& sources : orders) {
      KpjQuery q;
      q.sources = sources;
      q.targets = {3, 5};
      q.k = 12;
      Result<KpjResult> r = RunKpj(instance_, q, o);
      ASSERT_TRUE(r.ok()) << AlgorithmName(a);
      Status check = ValidateAgainstReference(graph_, q, r.value().paths);
      EXPECT_TRUE(check.ok()) << AlgorithmName(a) << ": " << check.ToString();
      std::vector<std::vector<NodeId>> nodes;
      for (const Path& p : r.value().paths) {
        nodes.emplace_back(p.nodes.begin(), p.nodes.end());
      }
      if (first.empty()) {
        first = nodes;
      } else {
        EXPECT_EQ(nodes, first) << AlgorithmName(a);
      }
    }
  }
}

TEST_F(FacadeTest, AlgorithmNamesAreUnique) {
  std::set<std::string> names;
  for (Algorithm a : kAllAlgorithms) names.insert(AlgorithmName(a));
  EXPECT_EQ(names.size(), 7u);
}

}  // namespace
}  // namespace kpj
