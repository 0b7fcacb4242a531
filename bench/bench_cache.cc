// Cross-query computation reuse (core/spt_cache.h) on the road_240k
// workload: a zipf-distributed source batch against one
// fixed 32-node target category, the shape of a POI-serving workload where
// popular sources repeat.
//
// For each SPT-carrying algorithm the same engine-served batch runs with
// the cache disabled and enabled; answers must be byte-identical in both
// configurations at 1 and at 4 worker threads (the caches only shortcut
// recomputation of state a cold run reaches at the same program point —
// see DESIGN.md "Cross-query reuse"). Timing is interleaved best-of-round
// so machine drift cannot fake a speedup; the cache-on engines keep their
// caches warm across rounds, mirroring a long-lived server.
//
// Each timed round asks for a larger k than every earlier pass, so no
// answer cached by an earlier pass covers it (each holds all k' < k paths
// it was asked for), and the rounds never take a prefix hit: only the zipf
// repeats within the round are hits. `answer_hit_ratio` is the share of
// timed cache-on queries served whole from the answer cache; the rest of
// the speedup is SPT and bound reuse. After the rounds, the first batch
// (the smallest k) runs again on the 1- and 4-worker cache-on engines:
// every answer of that pass is a prefix of a larger cached answer, served
// as a hit and gated byte-identical to the cache-off reference.
//
// The 64 MiB rows never evict. The `eviction_pressure` object runs the
// same passes on IterBoundI with a 2 MiB budget, below the batch's working
// set (`working_set_bytes`: the unbounded engine's resident cache bytes),
// so the eviction policy decides what each round finds resident. It reports the
// answer hit share and the nodes settled (deterministic at one worker)
// beside the unbounded engine's, under the same identity gates.
//
// Output: a table plus a JSON summary written to the path in
// KPJ_BENCH_JSON, or to stdout when the variable is unset.

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
#include "core/kpj_instance.h"
#include "gen/road_gen.h"
#include "graph/reorder.h"
#include "index/landmark_index.h"
#include "util/rng.h"
#include "util/timer.h"

namespace kpj::bench {
namespace {

/// Relabels `graph` by a deterministic random permutation, simulating the
/// topology-uncorrelated node numbering of real-world inputs (same baseline
/// convention as bench_reorder / bench_engine).
Graph ScrambleLayout(const Graph& graph, uint64_t seed) {
  std::vector<NodeId> map(graph.NumNodes());
  for (NodeId v = 0; v < graph.NumNodes(); ++v) map[v] = v;
  Rng rng(seed);
  rng.Shuffle(map);
  Result<Permutation> perm = Permutation::FromOldToNew(std::move(map));
  KPJ_CHECK(perm.ok());
  return ApplyPermutation(graph, perm.value());
}

/// Canonical rendering of a batch's answers: node sequences and lengths in
/// input order. Two runs agree iff these strings are byte-identical.
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

/// Zipf(s=1) draw over a rank-ordered pool: rank r is ~1/r as likely as
/// rank 1 — a few hot sources dominate, the tail still appears.
NodeId ZipfPick(Rng& rng, const std::vector<NodeId>& pool,
                const std::vector<double>& cumulative) {
  double x = rng.NextDouble() * cumulative.back();
  size_t lo = 0, hi = cumulative.size() - 1;
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (cumulative[mid] < x) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return pool[lo];
}

constexpr double kInfMs = 1e300;

int Main() {
  const HarnessOptions harness = HarnessFromEnv();
  const size_t num_queries = std::max<size_t>(harness.queries_per_set * 8, 48);
  const uint32_t kTargets = 32;
  const uint32_t kSourcePool = 64;
  const uint32_t kK = 20;
  const uint32_t kLandmarks = 8;
  const size_t kCacheMb = 64;
  const int kRounds = 3;
  const Algorithm kAlgorithms[] = {Algorithm::kDaSpt,
                                   Algorithm::kIterBoundSptP,
                                   Algorithm::kIterBoundSptI};

  RoadGenOptions road;
  road.seed = 12;
  road.target_nodes = 240000;
  Graph base = ScrambleLayout(GenerateRoadNetwork(road).graph, 22);
  std::fprintf(stderr, "[bench_cache] road_240k: %u nodes, %u arcs\n",
               base.NumNodes(), base.NumEdges());
  const NodeId num_nodes = base.NumNodes();
  const uint32_t num_arcs = base.NumEdges();

  Result<KpjInstance> made =
      KpjInstance::Make(std::move(base), ReorderStrategy::kHybrid);
  KPJ_CHECK(made.ok()) << made.status().ToString();
  KpjInstance instance = std::move(made).value();

  LandmarkIndexOptions lm_opt;
  lm_opt.num_landmarks = kLandmarks;
  KPJ_CHECK(instance
                .AttachLandmarks(LandmarkIndex::Build(
                    instance.graph(), instance.reverse(), lm_opt))
                .ok());

  // Fixed target category + zipf-popular sources, both in original ids.
  std::vector<NodeId> targets;
  for (uint64_t t : Rng(98).SampleDistinct(kTargets, num_nodes)) {
    targets.push_back(static_cast<NodeId>(t));
  }
  std::vector<NodeId> source_pool;
  for (uint64_t s : Rng(96).SampleDistinct(kSourcePool, num_nodes)) {
    source_pool.push_back(static_cast<NodeId>(s));
  }
  std::vector<double> cumulative(source_pool.size());
  double acc = 0.0;
  for (size_t r = 0; r < source_pool.size(); ++r) {
    acc += 1.0 / static_cast<double>(r + 1);
    cumulative[r] = acc;
  }
  Rng rng(97);
  std::vector<KpjQuery> queries;
  for (size_t i = 0; i < num_queries; ++i) {
    KpjQuery q;
    q.sources = {ZipfPick(rng, source_pool, cumulative)};
    q.targets = targets;
    q.k = kK;
    queries.push_back(std::move(q));
  }

  struct Row {
    Algorithm algorithm;
    double cache_off_ms = kInfMs;
    double cache_on_ms = kInfMs;
    double answer_hit_ratio = 0.0;
    bool identical_1t = false;
    bool identical_4t = false;
  };
  std::vector<Row> rows;
  std::string cache_metrics_json;

  auto make_engine = [&](Algorithm algorithm, size_t cache_mb,
                         unsigned threads) {
    api::EngineConfig config;
    config.workers = threads;
    config.clamp_to_hardware = false;
    config.algorithm = algorithm;
    config.cache_mb = cache_mb;
    return std::make_unique<KpjEngine>(instance, config.ToEngineOptions());
  };
  auto round_queries = [&](int round) {
    std::vector<KpjQuery> batch = queries;
    for (KpjQuery& q : batch) q.k = kK + 1 + round;
    return batch;
  };
  auto answer_hit_ratio = [](const AlgoStats& before,
                             const AlgoStats& after) {
    const uint64_t hits = after.answer_cache_hits - before.answer_cache_hits;
    const uint64_t misses =
        after.answer_cache_misses - before.answer_cache_misses;
    return static_cast<double>(hits) / static_cast<double>(hits + misses);
  };
  // Working set and work of the unbounded IterBoundI engine, for the
  // eviction-pressure comparison.
  size_t working_set_bytes = 0;
  uint64_t unbounded_nodes = 0;

  for (Algorithm algorithm : kAlgorithms) {
    Row row;
    row.algorithm = algorithm;

    auto off = make_engine(algorithm, 0, 1);
    auto on = make_engine(algorithm, kCacheMb, 1);
    auto on4 = make_engine(algorithm, kCacheMb, 4);

    // Correctness gate + warm-up in one: cold reference vs cache-on at 1
    // and 4 workers, full node sequences.
    const std::string reference = Canonicalize(off->RunBatch(queries));
    row.identical_1t = Canonicalize(on->RunBatch(queries)) == reference;
    row.identical_4t = Canonicalize(on4->RunBatch(queries)) == reference;
    KPJ_CHECK(row.identical_1t)
        << AlgorithmName(algorithm) << ": cache-on diverges at 1 thread";
    KPJ_CHECK(row.identical_4t)
        << AlgorithmName(algorithm) << ": cache-on diverges at 4 threads";

    const AlgoStats before = on->MetricsSnapshot().algo;
    std::string last_round_reference;
    for (int round = 0; round < kRounds; ++round) {
      const std::vector<KpjQuery> batch = round_queries(round);
      Timer timer;
      std::vector<Result<KpjResult>> cold = off->RunBatch(batch);
      row.cache_off_ms = std::min(row.cache_off_ms, timer.ElapsedMillis());
      timer.Restart();
      std::vector<Result<KpjResult>> warm = on->RunBatch(batch);
      row.cache_on_ms = std::min(row.cache_on_ms, timer.ElapsedMillis());
      last_round_reference = Canonicalize(cold);
      KPJ_CHECK(Canonicalize(warm) == last_round_reference)
          << AlgorithmName(algorithm) << ": cache-on diverges in round "
          << round;
    }
    const EngineMetricsSnapshot after = on->MetricsSnapshot();
    row.answer_hit_ratio = answer_hit_ratio(before, after.algo);

    if (algorithm == Algorithm::kDaSpt) {
      cache_metrics_json = on->MetricsJson();
    }
    if (algorithm == Algorithm::kIterBoundSptI) {
      working_set_bytes = static_cast<size_t>(after.cache_bytes);
      unbounded_nodes = after.algo.node_expansions - before.node_expansions;
    }

    // Prefix hits: the 4-worker engine takes the last round's k too, then
    // both engines serve the smallest k from those larger answers.
    KPJ_CHECK(Canonicalize(on4->RunBatch(round_queries(kRounds - 1))) ==
              last_round_reference)
        << AlgorithmName(algorithm) << ": cache-on diverges at 4 threads";
    for (KpjEngine* engine : {on.get(), on4.get()}) {
      const uint64_t hits_before =
          engine->MetricsSnapshot().algo.answer_cache_hits;
      KPJ_CHECK(Canonicalize(engine->RunBatch(queries)) == reference)
          << AlgorithmName(algorithm) << ": prefix hits diverge at "
          << engine->num_workers() << " worker(s)";
      KPJ_CHECK(engine->MetricsSnapshot().algo.answer_cache_hits -
                    hits_before ==
                queries.size())
          << AlgorithmName(algorithm)
          << ": the smallest k must be served from the cached answers";
    }
    rows.push_back(row);
  }

  // Eviction pressure: the same warm-up pass and rounds on IterBoundI with
  // a budget below the working set, gated byte-identical at 1 and 4
  // workers like the rows above.
  const size_t kPressureMb = 2;
  bool pressure_identical_1t = true;
  bool pressure_identical_4t = true;
  AlgoStats pressure_before;
  EngineMetricsSnapshot pressure_after;
  {
    const Algorithm algorithm = Algorithm::kIterBoundSptI;
    auto off = make_engine(algorithm, 0, 1);
    auto tight = make_engine(algorithm, kPressureMb, 1);
    auto tight4 = make_engine(algorithm, kPressureMb, 4);
    for (int round = -1; round < kRounds; ++round) {
      const std::vector<KpjQuery> batch =
          round < 0 ? queries : round_queries(round);
      if (round == 0) pressure_before = tight->MetricsSnapshot().algo;
      const std::string reference = Canonicalize(off->RunBatch(batch));
      pressure_identical_1t &=
          Canonicalize(tight->RunBatch(batch)) == reference;
      pressure_identical_4t &=
          Canonicalize(tight4->RunBatch(batch)) == reference;
    }
    pressure_after = tight->MetricsSnapshot();
    KPJ_CHECK(pressure_after.spt_cache_evictions > 0)
        << "the pressure budget must sit below the working set";
    KPJ_CHECK(pressure_identical_1t)
        << "IterBoundI under eviction pressure diverges at 1 thread";
    KPJ_CHECK(pressure_identical_4t)
        << "IterBoundI under eviction pressure diverges at 4 threads";
  }
  const double pressure_hit_ratio =
      answer_hit_ratio(pressure_before, pressure_after.algo);
  const uint64_t pressure_nodes =
      pressure_after.algo.node_expansions - pressure_before.node_expansions;

  Table table("Cross-query cache on road_240k (" +
                  std::to_string(num_queries) + " zipf queries, " +
                  std::to_string(kSourcePool) + "-source pool, cache " +
                  std::to_string(kCacheMb) + " MiB)",
              {"off ms", "on ms", "speedup", "answer hits"});
  for (const Row& row : rows) {
    table.AddRow(AlgorithmName(row.algorithm),
                 {row.cache_off_ms, row.cache_on_ms,
                  row.cache_off_ms / row.cache_on_ms, row.answer_hit_ratio});
  }
  table.Print();
  std::fprintf(stderr,
               "[bench_cache] eviction pressure (IterBoundI, %zu MiB, working "
               "set %zu bytes): answer hits %.3f, nodes settled %llu "
               "(unbounded %llu), %llu evictions\n",
               kPressureMb, working_set_bytes, pressure_hit_ratio,
               static_cast<unsigned long long>(pressure_nodes),
               static_cast<unsigned long long>(unbounded_nodes),
               static_cast<unsigned long long>(
                   pressure_after.spt_cache_evictions));

  std::ostringstream json;
  json << "{\"bench\":\"bench_cache\",\"dataset\":\"road_240k\""
       << ",\"nodes\":" << num_nodes << ",\"arcs\":" << num_arcs
       << ",\"queries\":" << num_queries << ",\"source_pool\":" << kSourcePool
       << ",\"cache_mb\":" << kCacheMb << ",\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (i) json << ",";
    json << "{\"algorithm\":\"" << AlgorithmName(row.algorithm)
         << "\",\"cache_off_ms\":" << row.cache_off_ms
         << ",\"cache_on_ms\":" << row.cache_on_ms
         << ",\"speedup\":" << row.cache_off_ms / row.cache_on_ms
         << ",\"answer_hit_ratio\":" << row.answer_hit_ratio
         << ",\"identical_1t\":" << (row.identical_1t ? "true" : "false")
         << ",\"identical_4t\":" << (row.identical_4t ? "true" : "false")
         << "}";
  }
  json << "],\"eviction_pressure\":{\"algorithm\":\"IterBoundI\""
       << ",\"cache_mb\":" << kPressureMb
       << ",\"working_set_bytes\":" << working_set_bytes
       << ",\"answer_hit_ratio\":" << pressure_hit_ratio
       << ",\"nodes_settled\":" << pressure_nodes
       << ",\"unbounded_nodes_settled\":" << unbounded_nodes
       << ",\"spt_cache_evictions\":" << pressure_after.spt_cache_evictions
       << ",\"identical_1t\":" << (pressure_identical_1t ? "true" : "false")
       << ",\"identical_4t\":" << (pressure_identical_4t ? "true" : "false")
       << "},\"da_spt_cache_on_metrics\":" << cache_metrics_json << "}";

  if (const char* path = std::getenv("KPJ_BENCH_JSON");
      path != nullptr && *path != '\0') {
    std::ofstream out(path, std::ios::trunc);
    out << json.str() << "\n";
    std::fprintf(stderr, "[bench_cache] JSON -> %s\n", path);
  } else {
    std::cout << json.str() << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace kpj::bench

int main() { return kpj::bench::Main(); }
