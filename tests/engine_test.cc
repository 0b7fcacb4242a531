#include "core/engine.h"

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "api/api.h"
#include "core/kpj.h"
#include "core/kpj_instance.h"
#include "gen/road_gen.h"
#include "util/rng.h"

namespace kpj {
namespace {

Graph TestGraph(uint32_t nodes = 3000, uint64_t seed = 55) {
  RoadGenOptions opt;
  opt.target_nodes = nodes;
  opt.seed = seed;
  return GenerateRoadNetwork(opt).graph;
}

std::vector<KpjQuery> TestQueries(NodeId num_nodes, size_t count = 24,
                                  uint32_t k = 6) {
  Rng rng(3);
  std::vector<KpjQuery> queries(count);
  for (auto& q : queries) {
    q.sources = {static_cast<NodeId>(rng.NextBounded(num_nodes))};
    for (uint64_t t : rng.SampleDistinct(3, num_nodes)) {
      q.targets.push_back(static_cast<NodeId>(t));
    }
    q.k = k;
  }
  return queries;
}

std::vector<std::vector<NodeId>> FlattenPaths(const KpjResult& result) {
  std::vector<std::vector<NodeId>> out;
  for (const Path& p : result.paths) {
    out.emplace_back(p.nodes.begin(), p.nodes.end());
  }
  return out;
}

KpjEngineOptions Unclamped(unsigned threads) {
  api::EngineConfig config;
  config.workers = threads;
  // Correctness must not depend on the core count of the test machine.
  config.clamp_to_hardware = false;
  return config.ToEngineOptions();
}

TEST(KpjEngineTest, ResultsAreIdenticalAcrossWorkerCounts) {
  Result<KpjInstance> instance = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(instance.ok());
  std::vector<KpjQuery> queries = TestQueries(instance.value().NumNodes());

  KpjEngine serial(instance.value(), Unclamped(1));
  std::vector<Result<KpjResult>> reference = serial.RunBatch(queries);

  for (unsigned threads : {2u, 4u}) {
    KpjEngine engine(instance.value(), Unclamped(threads));
    EXPECT_EQ(engine.num_workers(), threads);
    std::vector<Result<KpjResult>> results = engine.RunBatch(queries);
    ASSERT_EQ(results.size(), reference.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(reference[i].ok());
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      EXPECT_TRUE(results[i].value().status.ok());
      EXPECT_EQ(FlattenPaths(results[i].value()),
                FlattenPaths(reference[i].value()))
          << "query " << i << " at threads=" << threads;
    }
  }
}

TEST(KpjEngineTest, SubmitMatchesRunBatch) {
  Result<KpjInstance> instance = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(instance.ok());
  std::vector<KpjQuery> queries =
      TestQueries(instance.value().NumNodes(), 8);

  KpjEngine engine(instance.value(), Unclamped(3));
  std::vector<Result<KpjResult>> batch = engine.RunBatch(queries);

  std::vector<std::future<Result<KpjResult>>> futures;
  for (const KpjQuery& q : queries) futures.push_back(engine.Submit(q));
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<KpjResult> r = futures[i].get();
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(batch[i].ok());
    EXPECT_EQ(FlattenPaths(r.value()), FlattenPaths(batch[i].value()));
  }
}

TEST(KpjEngineTest, ValidationErrorsSurfaceAsStatuses) {
  Result<KpjInstance> instance = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(instance.ok());
  KpjEngine engine(instance.value(), Unclamped(2));

  KpjQuery bad;
  bad.sources = {instance.value().NumNodes() + 7};  // Out of range.
  bad.targets = {1};
  bad.k = 3;
  Result<KpjResult> r = engine.Submit(bad).get();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.MetricsSnapshot().queries_failed, 1u);
}

TEST(KpjEngineTest, ExpiredDeadlineYieldsWellFormedPartialResult) {
  // A query with an already-expired budget must come back as a partial
  // result carrying kDeadlineExceeded — never a crash, never a hang.
  Result<KpjInstance> instance = KpjInstance::Make(TestGraph(20000, 7));
  ASSERT_TRUE(instance.ok());
  std::vector<KpjQuery> queries =
      TestQueries(instance.value().NumNodes(), 6, /*k=*/40);

  KpjEngine engine(instance.value(), Unclamped(2));
  std::vector<Result<KpjResult>> full = engine.RunBatch(queries);
  std::vector<Result<KpjResult>> bounded =
      engine.RunBatch(queries, /*deadline_ms=*/1e-6);

  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(bounded[i].ok()) << bounded[i].status().ToString();
    const KpjResult& r = bounded[i].value();
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_LT(r.paths.size(), queries[i].k);
    // Whatever was proven before the deadline is a prefix of the full
    // answer (the solver is deterministic and only emits settled paths).
    ASSERT_TRUE(full[i].ok());
    ASSERT_LE(r.paths.size(), full[i].value().paths.size());
    for (size_t p = 0; p < r.paths.size(); ++p) {
      EXPECT_EQ(r.paths[p].nodes, full[i].value().paths[p].nodes);
    }
  }
  EXPECT_EQ(engine.MetricsSnapshot().deadline_exceeded, queries.size());
}

TEST(KpjEngineTest, PerQueryDeadlineOverridesEngineDefault) {
  Result<KpjInstance> instance = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(instance.ok());
  api::EngineConfig config;
  config.workers = 2;
  config.clamp_to_hardware = false;
  config.deadline_ms = 1e-6;  // Engine default: already expired.
  KpjEngine engine(instance.value(), config.ToEngineOptions());

  KpjQuery query = TestQueries(instance.value().NumNodes(), 1).front();
  Result<KpjResult> bounded = engine.Submit(query).get();
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(bounded.value().status.code(), StatusCode::kDeadlineExceeded);

  // Explicit 0 disables the deadline for this query.
  Result<KpjResult> unbounded = engine.Submit(query, 0.0).get();
  ASSERT_TRUE(unbounded.ok());
  EXPECT_TRUE(unbounded.value().status.ok());
  EXPECT_EQ(unbounded.value().paths.size(), query.k);
}

TEST(KpjEngineTest, GkpjQueriesRunOnTheEngine) {
  Graph g = TestGraph();
  Result<KpjInstance> instance = KpjInstance::Make(g);
  ASSERT_TRUE(instance.ok());
  KpjEngine engine(instance.value(), Unclamped(2));

  Rng rng(17);
  KpjQuery query;
  for (uint64_t s : rng.SampleDistinct(4, g.NumNodes())) {
    query.sources.push_back(static_cast<NodeId>(s));
  }
  for (uint64_t t : Rng(18).SampleDistinct(3, g.NumNodes())) {
    query.targets.push_back(static_cast<NodeId>(t));
  }
  query.k = 5;

  Result<KpjResult> via_engine = engine.Submit(query).get();
  Result<KpjResult> legacy =
      RunKpj(instance.value(), query, KpjOptions());
  ASSERT_TRUE(via_engine.ok()) << via_engine.status().ToString();
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(FlattenPaths(via_engine.value()), FlattenPaths(legacy.value()));
}

TEST(KpjEngineTest, MetricsCountServedQueriesAndReset) {
  Result<KpjInstance> instance = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(instance.ok());
  std::vector<KpjQuery> queries =
      TestQueries(instance.value().NumNodes(), 10);

  KpjEngine engine(instance.value(), Unclamped(2));
  std::vector<Result<KpjResult>> results = engine.RunBatch(queries);

  EngineMetricsSnapshot snap = engine.MetricsSnapshot();
  EXPECT_EQ(snap.queries_served, queries.size());
  EXPECT_EQ(snap.queries_failed, 0u);
  EXPECT_EQ(snap.latency.count, queries.size());
  uint64_t paths = 0;
  for (const auto& r : results) paths += r.value().paths.size();
  EXPECT_EQ(snap.paths_returned, paths);
  EXPECT_GT(snap.algo.node_expansions, 0u);
  EXPECT_GE(snap.latency.max, snap.latency.min);

  std::string json = engine.MetricsJson();
  EXPECT_NE(json.find("\"queries_served\": " +
                      std::to_string(queries.size())),
            std::string::npos);

  engine.ResetMetrics();
  snap = engine.MetricsSnapshot();
  EXPECT_EQ(snap.queries_served, 0u);
  EXPECT_EQ(snap.latency.count, 0u);
}

}  // namespace
}  // namespace kpj
