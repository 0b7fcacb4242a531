// Observability layer: AlgoStats population per algorithm, deterministic
// counters (run-to-run and across engine worker counts), slow-query
// accounting, and the JSON / Prometheus metrics expositions checked
// against the metric registry (core/metrics.def).

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <regex>
#include <string>
#include <type_traits>
#include <vector>

#include "api/api.h"
#include "core/engine.h"
#include "core/instrumentation.h"
#include "core/kpj.h"
#include "core/kpj_instance.h"
#include "core/metrics.h"
#include "gen/road_gen.h"
#include "graph/serialize.h"
#include "server/server.h"
#include "util/rng.h"

namespace kpj {
namespace {

Graph TestGraph(uint32_t nodes = 3000, uint64_t seed = 55) {
  RoadGenOptions opt;
  opt.target_nodes = nodes;
  opt.seed = seed;
  return GenerateRoadNetwork(opt).graph;
}

std::vector<KpjQuery> TestQueries(NodeId num_nodes, size_t count = 16,
                                  uint32_t k = 6) {
  Rng rng(9);
  std::vector<KpjQuery> queries(count);
  for (auto& q : queries) {
    q.sources = {static_cast<NodeId>(rng.NextBounded(num_nodes))};
    for (uint64_t t : rng.SampleDistinct(4, num_nodes)) {
      q.targets.push_back(static_cast<NodeId>(t));
    }
    q.k = k;
  }
  return queries;
}

TEST(AlgoStatsTest, AccumulateSumsEveryField) {
  AlgoStats a;
  a.heap_pushes = 1;
  a.heap_decrease_keys = 3;
  a.node_expansions = 4;
  a.spt_resume_hits = 5;
  a.spt_resume_misses = 6;
  a.iter_bound_rounds = 7;
  a.candidates_generated = 8;
  a.candidates_pruned = 9;
  a.lb_tightness_num = 10;
  a.lb_tightness_den = 20;
  AlgoStats b = a;
  b.Accumulate(a);
  EXPECT_EQ(b.heap_pushes, 2u);
  EXPECT_EQ(b.heap_decrease_keys, 6u);
  EXPECT_EQ(b.node_expansions, 8u);
  EXPECT_EQ(b.spt_resume_hits, 10u);
  EXPECT_EQ(b.spt_resume_misses, 12u);
  EXPECT_EQ(b.iter_bound_rounds, 14u);
  EXPECT_EQ(b.candidates_generated, 16u);
  EXPECT_EQ(b.candidates_pruned, 18u);
  EXPECT_DOUBLE_EQ(b.LowerBoundTightness(), 0.5);

  AlgoStats empty;
  EXPECT_DOUBLE_EQ(empty.LowerBoundTightness(), 0.0);
  empty.Reset();
  EXPECT_EQ(empty, AlgoStats{});
}

TEST(AlgoStatsTest, AtomicMirrorsPlainAccumulation) {
  AlgoStats delta;
  delta.heap_pushes = 11;
  delta.node_expansions = 7;
  delta.lb_tightness_num = 3;
  delta.lb_tightness_den = 4;
  AtomicAlgoStats atomic;
  atomic.Add(delta);
  atomic.Add(delta);
  AlgoStats snap = atomic.Snapshot();
  EXPECT_EQ(snap.heap_pushes, 22u);
  EXPECT_EQ(snap.node_expansions, 14u);
  EXPECT_EQ(snap.lb_tightness_num, 6u);
  EXPECT_EQ(snap.lb_tightness_den, 8u);
  atomic.Reset();
  EXPECT_EQ(atomic.Snapshot(), AlgoStats{});
}

TEST(ObservabilityTest, EveryAlgorithmPopulatesCoreCounters) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(made.ok());
  const KpjInstance& instance = made.value();
  KpjQuery query;
  query.sources = {5};
  query.targets = {400, 900, 1400, 2100};
  query.k = 6;

  for (Algorithm a : kAllAlgorithms) {
    KpjOptions options;
    options.algorithm = a;
    Result<KpjResult> result = RunKpj(instance, query, options);
    ASSERT_TRUE(result.ok()) << AlgorithmName(a);
    const AlgoStats& stats = result.value().stats.algo;
    // Every solver drives at least one priority queue.
    EXPECT_GT(stats.heap_pushes, 0u) << AlgorithmName(a);
    EXPECT_GT(stats.node_expansions, 0u) << AlgorithmName(a);
    // Each returned path had to be generated as a candidate first.
    EXPECT_GE(stats.candidates_generated, result.value().paths.size())
        << AlgorithmName(a);
  }
}

TEST(ObservabilityTest, IterBoundVariantsReportTheirSpecificCounters) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(made.ok());
  KpjQuery query;
  query.sources = {5};
  query.targets = {400, 900, 1400, 2100};
  query.k = 8;

  KpjOptions options;
  options.algorithm = Algorithm::kIterBoundSptI;
  Result<KpjResult> result = RunKpj(made.value(), query, options);
  ASSERT_TRUE(result.ok());
  const AlgoStats& stats = result.value().stats.algo;
  // SPT_I grows one shared tree: each growth call either resumes into the
  // existing frontier (hit) or settles new nodes (miss); at least the first
  // call must be a miss.
  EXPECT_GT(stats.spt_resume_hits + stats.spt_resume_misses, 0u);
  EXPECT_GT(stats.spt_resume_misses, 0u);
  // Lower-bound tightness is a ratio of sums of path lengths in (0, 1].
  ASSERT_GT(stats.lb_tightness_den, 0u);
  EXPECT_GT(stats.LowerBoundTightness(), 0.0);
  EXPECT_LE(stats.LowerBoundTightness(), 1.0 + 1e-9);
}

TEST(ObservabilityTest, CountersAreDeterministicRunToRun) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(made.ok());
  KpjQuery query;
  query.sources = {17};
  query.targets = {300, 1100, 2500};
  query.k = 5;
  for (Algorithm a : kAllAlgorithms) {
    KpjOptions options;
    options.algorithm = a;
    Result<KpjResult> first = RunKpj(made.value(), query, options);
    Result<KpjResult> second = RunKpj(made.value(), query, options);
    ASSERT_TRUE(first.ok() && second.ok()) << AlgorithmName(a);
    EXPECT_EQ(first.value().stats.algo, second.value().stats.algo)
        << AlgorithmName(a);
  }
}

TEST(ObservabilityTest, EngineAggregateIsIdenticalAcrossWorkerCounts) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(made.ok());
  std::vector<KpjQuery> queries = TestQueries(made.value().NumNodes());

  AlgoStats reference;
  bool have_reference = false;
  for (unsigned threads : {1u, 2u, 4u}) {
    api::EngineConfig config;
    config.workers = threads;
    config.clamp_to_hardware = false;
    KpjEngine engine(made.value(), config.ToEngineOptions());
    for (const Result<KpjResult>& r : engine.RunBatch(queries)) {
      ASSERT_TRUE(r.ok());
    }
    AlgoStats aggregate = engine.MetricsSnapshot().algo;
    EXPECT_GT(aggregate.node_expansions, 0u);
    if (!have_reference) {
      reference = aggregate;
      have_reference = true;
    } else {
      EXPECT_EQ(aggregate, reference) << "threads=" << threads;
    }
  }
}

TEST(ObservabilityTest, SlowQueryThresholdCountsAndLogs) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(made.ok());
  std::vector<KpjQuery> queries = TestQueries(made.value().NumNodes(), 4);

  // Threshold far below any real query: everything is "slow".
  api::EngineConfig config;
  config.workers = 1;
  config.slow_query_ms = 1e-6;
  KpjEngine engine(made.value(), config.ToEngineOptions());
  for (const Result<KpjResult>& r : engine.RunBatch(queries)) {
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(engine.MetricsSnapshot().slow_queries, queries.size());

  // Disabled threshold: nothing is slow.
  api::EngineConfig quiet;
  quiet.workers = 1;
  KpjEngine quiet_engine(made.value(), quiet.ToEngineOptions());
  for (const Result<KpjResult>& r : quiet_engine.RunBatch(queries)) {
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(quiet_engine.MetricsSnapshot().slow_queries, 0u);
}

/// How often each JSON key and each Prometheus family (`# TYPE` line)
/// occurs in a pair of expositions.
struct ExposedNames {
  std::map<std::string, int> json;
  std::map<std::string, int> prom;
};

ExposedNames CountExposedNames(const std::string& json,
                               const std::string& prom) {
  ExposedNames names;
  static const std::regex kKey("\"(\\w+)\": ");
  for (std::sregex_iterator it(json.begin(), json.end(), kKey), end;
       it != end; ++it) {
    ++names.json[(*it)[1]];
  }
  static const std::regex kType("# TYPE (\\w+) ");
  for (std::sregex_iterator it(prom.begin(), prom.end(), kType), end;
       it != end; ++it) {
    ++names.prom[(*it)[1]];
  }
  return names;
}

/// Every registry entry the exposition carries appears exactly once in the
/// JSON and once in the Prometheus text, and nothing else appears.
void ExpectEveryEntryOnce(const EngineMetricsSnapshot& snapshot,
                          const std::string& json, const std::string& prom,
                          bool with_server) {
  ExposedNames exposed = CountExposedNames(json, prom);
  size_t json_keys = 0;
  size_t prom_families = 0;
  ForEachMetric(snapshot, [&](const MetricInfo& m, const auto&) {
    if (m.owner == MetricOwner::kServer && !with_server) return;
    for (const std::string& key : JsonKeys(m)) {
      EXPECT_EQ(exposed.json[key], 1) << "JSON key " << key;
      ++json_keys;
    }
    EXPECT_EQ(exposed.prom[PromName(m)], 1) << "series " << PromName(m);
    ++prom_families;
  });
  EXPECT_EQ(exposed.json.size(), json_keys);
  EXPECT_EQ(exposed.prom.size(), prom_families);
}

TEST(ObservabilityTest, MetricsCarryEveryRegistryEntryOnce) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(made.ok());
  std::vector<KpjQuery> queries = TestQueries(made.value().NumNodes(), 8);
  api::EngineConfig config;
  config.workers = 2;
  config.clamp_to_hardware = false;
  config.intra_threads = 2;
  config.cache_mb = 8;
  KpjEngine engine(made.value(), config.ToEngineOptions());
  for (int round = 0; round < 2; ++round) {
    for (const Result<KpjResult>& r : engine.RunBatch(queries)) {
      ASSERT_TRUE(r.ok());
    }
  }
  QueryContext planned;
  planned.algorithm = Algorithm::kAuto;
  ASSERT_TRUE(engine.RunBatch(queries, 0.0, planned)[0].ok());

  EngineMetricsSnapshot before = engine.MetricsSnapshot();
  ASSERT_EQ(before.queries_served, 3 * queries.size());
  ASSERT_GT(before.spt_cache_insertions, 0u);
  ExpectEveryEntryOnce(before, engine.MetricsJson(),
                       engine.MetricsPrometheus(), /*with_server=*/false);
  std::string json = engine.MetricsJson();
  // JSON must stay parseable: no NaN/Inf literals even on odd inputs.
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);

  // ResetMetrics zeroes every counter and histogram; gauges are sampled.
  engine.ResetMetrics();
  ForEachMetric(engine.MetricsSnapshot(), [](const MetricInfo& m,
                                             const auto& value) {
    using Value = std::decay_t<decltype(value)>;
    if constexpr (std::is_same_v<Value, uint64_t>) {
      EXPECT_EQ(value, 0u) << m.field;
    } else if constexpr (std::is_same_v<Value, AlgorithmCounts>) {
      for (uint64_t count : value) EXPECT_EQ(count, 0u) << m.field;
    } else if constexpr (std::is_same_v<Value, HistogramSnapshot>) {
      EXPECT_EQ(value.count, 0u) << m.field;
      EXPECT_EQ(value.sum, 0.0) << m.field;
      for (uint64_t count : value.buckets) EXPECT_EQ(count, 0u) << m.field;
    }
  });
}

TEST(ObservabilityTest, ServerMetricsCarryEveryRegistryEntryOnce) {
  std::string path = ::testing::TempDir() + "kpj_observability_graph.bin";
  ASSERT_TRUE(SaveGraphBinary(TestGraph(), Permutation(), path).ok());
  server::KpjServerOptions options;
  options.graph_path = path;
  options.engine.workers = 1;
  server::KpjServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ExpectEveryEntryOnce(server.MetricsSnapshot(), server.MetricsJson(),
                       server.MetricsPrometheus(), /*with_server=*/true);
  server.RequestDrain();
  server.Wait();
  std::remove(path.c_str());
}

TEST(ObservabilityTest, TightnessIsLabelledByTheSolverThatRan) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(made.ok());
  std::vector<KpjQuery> queries = TestQueries(made.value().NumNodes(), 6);
  api::EngineConfig config;
  config.workers = 1;
  config.algorithm = Algorithm::kAuto;
  KpjEngine engine(made.value(), config.ToEngineOptions());

  // The per-solver samples of one tightness family, from the exposition.
  auto samples = [&engine](const std::string& family) {
    std::map<std::string, uint64_t> by_label;
    std::string prom = engine.MetricsPrometheus();
    std::regex sample(family + "\\{algorithm=\"([^\"]+)\"\\} (\\d+)");
    for (std::sregex_iterator it(prom.begin(), prom.end(), sample), end;
         it != end; ++it) {
      by_label[(*it)[1]] = std::stoull((*it)[2]);
    }
    return by_label;
  };
  auto expect_sums_match = [&] {
    EngineMetricsSnapshot s = engine.MetricsSnapshot();
    uint64_t num = 0;
    uint64_t den = 0;
    for (const auto& [label, value] : samples("kpj_lb_tightness_num_total")) {
      EXPECT_NE(label, "Auto");
      num += value;
    }
    for (const auto& [label, value] : samples("kpj_lb_tightness_den_total")) {
      EXPECT_NE(label, "Auto");
      den += value;
    }
    EXPECT_EQ(num, s.algo.lb_tightness_num);
    EXPECT_EQ(den, s.algo.lb_tightness_den);
    EXPECT_GT(den, 0u);
  };

  for (const Result<KpjResult>& r : engine.RunBatch(queries)) {
    ASSERT_TRUE(r.ok());
  }
  expect_sums_match();

  // A per-query override on the same auto engine counts under the solver
  // it forced, and only there.
  engine.ResetMetrics();
  QueryContext forced;
  forced.algorithm = Algorithm::kBestFirst;
  for (const Result<KpjResult>& r : engine.RunBatch(queries, 0.0, forced)) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().algorithm_used, Algorithm::kBestFirst);
  }
  expect_sums_match();
  for (const auto& [label, value] : samples("kpj_lb_tightness_den_total")) {
    if (label == AlgorithmName(Algorithm::kBestFirst)) {
      EXPECT_GT(value, 0u);
    } else {
      EXPECT_EQ(value, 0u) << label;
    }
  }
}

TEST(ObservabilityTest, MetricsPrometheusIsWellFormed) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph());
  ASSERT_TRUE(made.ok());
  std::vector<KpjQuery> queries = TestQueries(made.value().NumNodes(), 4);
  api::EngineConfig config;
  config.workers = 1;
  KpjEngine engine(made.value(), config.ToEngineOptions());
  for (const Result<KpjResult>& r : engine.RunBatch(queries)) {
    ASSERT_TRUE(r.ok());
  }
  std::string text = engine.MetricsPrometheus();
  for (const char* needle :
       {"# TYPE kpj_queries_served_total counter",
        "# TYPE kpj_workers gauge",
        "# TYPE kpj_heap_pushes_total counter",
        "# TYPE kpj_node_expansions_total counter",
        "# TYPE kpj_query_latency_ms histogram",
        "kpj_query_latency_ms_bucket{le=\"+Inf\"}",
        "kpj_query_latency_ms_sum", "kpj_query_latency_ms_count"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // The +Inf bucket equals the total count (cumulative buckets).
  std::string inf_line = "kpj_query_latency_ms_bucket{le=\"+Inf\"} " +
                         std::to_string(queries.size());
  EXPECT_NE(text.find(inf_line), std::string::npos);

  // An empty engine must expose zeros, not NaN.
  engine.ResetMetrics();
  std::string empty = engine.MetricsPrometheus();
  EXPECT_EQ(empty.find("nan"), std::string::npos);
  EXPECT_EQ(empty.find("inf"), std::string::npos);
  EXPECT_NE(empty.find("kpj_query_latency_ms_count 0"), std::string::npos);
}

}  // namespace
}  // namespace kpj
