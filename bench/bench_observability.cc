// Overhead and determinism of the PR-3 observability layer (util/trace.h +
// core/instrumentation.h) on the road_240k engine workload.
//
// Three properties are measured/verified:
//   1. Instrumented-but-dark cost: the AlgoStats counters and trace-span
//      call sites are always compiled in; with tracing disabled the batch
//      must run within ~3% of the PR-2 engine baseline (the counters are
//      null-guarded in the sssp loops and the span constructor is one
//      relaxed atomic load).
//   2. Tracing-on cost: with the recorder enabled each query adds three
//      spans (engine.query, instance.prepare, solver.run), so the slowdown
//      stays modest; the recorded event count is exactly 3x the queries.
//   3. Counter determinism: the engine's aggregated AlgoStats are exact
//      integer sums, so every thread count must produce byte-identical
//      counters (and answers) for the same batch.
//
// Workload mirrors bench_engine exactly (road_240k, scrambled layout,
// hybrid reorder, 8 landmarks, 40 queries x 32 targets, k=20,
// IterBoundI) so the tracing-off number is directly comparable to
// BENCH_engine.json's serial_ms from PR 2.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "api/api.h"
#include "core/engine.h"
#include "core/instrumentation.h"
#include "core/kpj_instance.h"
#include "gen/road_gen.h"
#include "graph/reorder.h"
#include "index/landmark_index.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/trace.h"

namespace kpj::bench {
namespace {

Graph ScrambleLayout(const Graph& graph, uint64_t seed) {
  std::vector<NodeId> map(graph.NumNodes());
  for (NodeId v = 0; v < graph.NumNodes(); ++v) map[v] = v;
  Rng rng(seed);
  rng.Shuffle(map);
  Result<Permutation> perm = Permutation::FromOldToNew(std::move(map));
  KPJ_CHECK(perm.ok());
  return ApplyPermutation(graph, perm.value());
}

std::string Canonicalize(const std::vector<Result<KpjResult>>& results) {
  std::ostringstream os;
  for (size_t i = 0; i < results.size(); ++i) {
    KPJ_CHECK(results[i].ok()) << results[i].status().ToString();
    const KpjResult& r = results[i].value();
    KPJ_CHECK(r.status.ok()) << r.status.ToString();
    os << "q" << i << ":";
    for (const Path& p : r.paths) {
      os << " [" << p.length << ":";
      for (NodeId v : p.nodes) os << " " << v;
      os << "]";
    }
    os << "\n";
  }
  return os.str();
}

std::string AlgoStatsKey(const AlgoStats& a) {
  std::ostringstream os;
  os << a.heap_pushes << "," << a.heap_decrease_keys << ","
     << a.node_expansions << "," << a.spt_resume_hits << ","
     << a.spt_resume_misses << "," << a.iter_bound_rounds << ","
     << a.candidates_generated << "," << a.candidates_pruned << ","
     << a.lb_tightness_num << "," << a.lb_tightness_den;
  return os.str();
}

constexpr double kInfMs = 1e300;

int Main() {
  const HarnessOptions harness = HarnessFromEnv();
  const size_t num_queries = std::max<size_t>(harness.queries_per_set * 8, 40);
  const uint32_t kTargets = 32;
  const uint32_t kK = 20;
  const uint32_t kLandmarks = 8;
  const int kRounds = 3;
  const unsigned kThreadCounts[] = {1, 2, 4};

  RoadGenOptions road;
  road.seed = 12;
  road.target_nodes = 240000;
  Graph base = ScrambleLayout(GenerateRoadNetwork(road).graph, 22);
  std::fprintf(stderr, "[bench_observability] road_240k: %u nodes, %u arcs\n",
               base.NumNodes(), base.NumEdges());
  const NodeId num_nodes = base.NumNodes();
  const uint32_t num_arcs = base.NumEdges();

  Result<KpjInstance> made = KpjInstance::Make(std::move(base),
                                               ReorderStrategy::kHybrid);
  KPJ_CHECK(made.ok()) << made.status().ToString();
  KpjInstance instance = std::move(made).value();

  LandmarkIndexOptions lm_opt;
  lm_opt.num_landmarks = kLandmarks;
  KPJ_CHECK(instance
                .AttachLandmarks(LandmarkIndex::Build(
                    instance.graph(), instance.reverse(), lm_opt))
                .ok());

  std::vector<NodeId> targets;
  for (uint64_t t : Rng(98).SampleDistinct(kTargets, num_nodes)) {
    targets.push_back(static_cast<NodeId>(t));
  }
  Rng rng(97);
  std::vector<KpjQuery> queries;
  for (size_t i = 0; i < num_queries; ++i) {
    KpjQuery q;
    q.sources = {static_cast<NodeId>(rng.NextBounded(num_nodes))};
    q.targets = targets;
    q.k = kK;
    queries.push_back(std::move(q));
  }

  KpjOptions solver_options;
  solver_options.algorithm = Algorithm::kIterBoundSptI;

  // --- Determinism: counters must be byte-identical at every thread count.
  std::string reference_answers;
  std::string reference_counters;
  std::vector<bool> counters_identical;
  for (unsigned threads : kThreadCounts) {
    api::EngineConfig config;
    config.workers = threads;
    config.clamp_to_hardware = false;
    config.algorithm = solver_options.algorithm;
    KpjEngine engine(instance, config.ToEngineOptions());
    std::string answers = Canonicalize(engine.RunBatch(queries));
    std::string counters = AlgoStatsKey(engine.MetricsSnapshot().algo);
    if (reference_answers.empty()) {
      reference_answers = answers;
      reference_counters = counters;
    }
    KPJ_CHECK(answers == reference_answers)
        << "answers diverge at threads=" << threads;
    counters_identical.push_back(counters == reference_counters);
    KPJ_CHECK(counters_identical.back())
        << "AlgoStats diverge at threads=" << threads << ": " << counters
        << " vs " << reference_counters;
  }
  std::fprintf(stderr,
               "[bench_observability] counters identical at all thread "
               "counts: %s\n",
               reference_counters.c_str());

  // --- Overhead: single-worker engine, tracing off vs on, interleaved
  // rounds, best-of. One engine so the solver pool is equally warm.
  api::EngineConfig overhead_config;
  overhead_config.workers = 1;
  overhead_config.clamp_to_hardware = false;
  overhead_config.algorithm = solver_options.algorithm;
  KpjEngine engine(instance, overhead_config.ToEngineOptions());
  engine.RunBatch(queries);  // Warm-up.

  TraceRecorder& recorder = TraceRecorder::Global();
  double off_ms = kInfMs;
  double on_ms = kInfMs;
  size_t trace_events = 0;
  for (int round = 0; round < kRounds; ++round) {
    recorder.Disable();
    Timer timer;
    engine.RunBatch(queries);
    off_ms = std::min(off_ms, timer.ElapsedMillis());

    recorder.Clear();
    recorder.Enable();
    timer.Restart();
    engine.RunBatch(queries);
    on_ms = std::min(on_ms, timer.ElapsedMillis());
    recorder.Disable();
    trace_events = recorder.event_count();
  }
  recorder.Clear();
  // Three spans per query: engine.query, instance.prepare, solver.run.
  KPJ_CHECK(trace_events == 3 * num_queries)
      << "expected " << 3 * num_queries << " trace events, got "
      << trace_events;

  const double tracing_overhead = on_ms / off_ms - 1.0;
  Table table("Observability overhead on road_240k (" +
                  std::to_string(num_queries) + " queries, 1 worker)",
              {"batch ms", "ms/query", "vs dark"});
  table.AddRow("tracing off",
               {off_ms, off_ms / static_cast<double>(num_queries), 1.0});
  table.AddRow("tracing on",
               {on_ms, on_ms / static_cast<double>(num_queries),
                on_ms / off_ms});
  table.Print();

  std::ostringstream json;
  json << "{\"bench\":\"bench_observability\",\"dataset\":\"road_240k\""
       << ",\"nodes\":" << num_nodes << ",\"arcs\":" << num_arcs
       << ",\"queries\":" << num_queries
       << ",\"algorithm\":\"" << AlgorithmName(solver_options.algorithm)
       << "\",\"tracing_off_ms\":" << off_ms
       << ",\"tracing_on_ms\":" << on_ms
       << ",\"tracing_overhead\":" << tracing_overhead
       << ",\"trace_events\":" << trace_events
       << ",\"counters\":\"" << reference_counters << "\""
       << ",\"counters_identical_across_threads\":[";
  for (size_t i = 0; i < counters_identical.size(); ++i) {
    if (i) json << ",";
    json << "{\"threads\":" << kThreadCounts[i] << ",\"identical\":"
         << (counters_identical[i] ? "true" : "false") << "}";
  }
  json << "],\"engine_metrics\":" << engine.MetricsJson() << "}";

  if (const char* path = std::getenv("KPJ_BENCH_JSON");
      path != nullptr && *path != '\0') {
    std::ofstream out(path, std::ios::trunc);
    out << json.str() << "\n";
    std::fprintf(stderr, "[bench_observability] JSON -> %s\n", path);
  } else {
    std::cout << json.str() << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace kpj::bench

int main() { return kpj::bench::Main(); }
