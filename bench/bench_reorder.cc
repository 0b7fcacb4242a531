// Cache-locality effect of graph reordering (graph/reorder.h) on the three
// memory-bound kernels of the query pipeline: full Dijkstra SSSP, the SPT_I
// incremental search engine (§5.3), and end-to-end IterBound_I queries.
//
// For each generated dataset (two road networks and one scale-free graph)
// every reordering strategy is applied and the same original-id workload is
// replayed against the relabeled graph — reordering must be invisible in the
// results, so only the running time may move.
//
// Baseline layout: real-world graph files (the DIMACS road networks, web
// crawls, ...) number nodes in an order essentially uncorrelated with the
// topology. Our generators emit an unrealistically friendly scan order as a
// construction artifact, so each dataset is relabeled by a deterministic
// random permutation after generation — that as-loaded layout is the "none"
// row the strategies are measured against.
//
// Timing: strategies are measured in interleaved rounds (every strategy once
// per round) and the best round is reported, so slow machine-wide drift
// cannot masquerade as a strategy effect.
//
// Output: one table per dataset, plus a JSON summary (speedups vs the
// unreordered layout) written to the path in KPJ_BENCH_JSON, or to stdout
// when the variable is unset.

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
#include "core/kpj.h"
#include "core/solver.h"
#include "gen/road_gen.h"
#include "graph/graph_builder.h"
#include "graph/reorder.h"
#include "index/landmark_index.h"
#include "sssp/incremental_search.h"
#include "util/rng.h"
#include "util/timer.h"

namespace kpj::bench {
namespace {

/// Preferential-attachment (Barabási–Albert-style) generator: each new node
/// attaches `attach` bidirectional edges to endpoints sampled from the edge
/// endpoint list, so attachment probability is proportional to degree. The
/// result has the heavy hub/leaf skew road networks lack, exercising the
/// degree strategy where BFS alone helps less.
Graph GenerateScaleFree(NodeId nodes, uint32_t attach, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(nodes);
  std::vector<NodeId> endpoints;
  endpoints.reserve(static_cast<size_t>(nodes) * attach * 2);
  // Seed clique over the first attach+1 nodes.
  for (NodeId a = 0; a <= attach; ++a) {
    for (NodeId b = a + 1; b <= attach; ++b) {
      builder.AddBidirectional(
          a, b, static_cast<Weight>(1 + rng.NextBounded(10000)));
      endpoints.push_back(a);
      endpoints.push_back(b);
    }
  }
  for (NodeId v = attach + 1; v < nodes; ++v) {
    for (uint32_t e = 0; e < attach; ++e) {
      NodeId u = endpoints[rng.NextBounded(endpoints.size())];
      builder.AddBidirectional(
          v, u, static_cast<Weight>(1 + rng.NextBounded(10000)));
      endpoints.push_back(v);
      endpoints.push_back(u);
    }
  }
  return builder.Build();
}

/// Relabels `graph` by a deterministic random permutation, simulating the
/// topology-uncorrelated node numbering of real-world inputs.
Graph ScrambleLayout(const Graph& graph, uint64_t seed) {
  std::vector<NodeId> map(graph.NumNodes());
  for (NodeId v = 0; v < graph.NumNodes(); ++v) map[v] = v;
  Rng rng(seed);
  rng.Shuffle(map);
  Result<Permutation> perm = Permutation::FromOldToNew(std::move(map));
  KPJ_CHECK(perm.ok());
  return ApplyPermutation(graph, perm.value());
}

struct BenchDataset {
  std::string name;
  Graph graph;  // as-loaded layout; ids here are the "original" ids
};

constexpr double kInfMs = 1e300;

struct StrategyRow {
  ReorderStrategy strategy;
  double dijkstra_ms = 0;
  double spti_ms = 0;
  double iterboundi_ms = 0;
};

/// Mean wall time of a full SSSP from each source (engine reused, one
/// warm-up run excluded from the mean, as in bench_common).
double MeanDijkstraMillis(const Graph& graph,
                          const std::vector<NodeId>& sources) {
  ZeroHeuristic zero;
  IncrementalSearch engine(graph);
  auto run = [&](NodeId s) {
    const std::pair<NodeId, PathLength> seed[] = {{s, 0}};
    engine.Initialize(seed, zero);
    engine.AdvanceToBound(kInfLength, zero);
  };
  run(sources.front());
  Timer timer;
  for (NodeId s : sources) run(s);
  return timer.ElapsedMillis() / static_cast<double>(sources.size());
}

/// Mean wall time of growing an SPT_I to exhaustion in geometric bound
/// steps — the access pattern of Alg. 7's incremental tree, isolated from
/// the rest of the solver.
double MeanSptiMillis(const Graph& graph, const std::vector<NodeId>& sources) {
  ZeroHeuristic zero;
  IncrementalSearch engine(graph);
  auto grow = [&](NodeId s) {
    const std::pair<NodeId, PathLength> seed[] = {{s, 0}};
    engine.Initialize(seed, zero);
    PathLength bound = 1 << 12;
    while (!engine.Exhausted()) {
      engine.AdvanceToBound(bound, zero);
      bound *= 2;
    }
  };
  grow(sources.front());
  Timer timer;
  for (NodeId s : sources) grow(s);
  return timer.ElapsedMillis() / static_cast<double>(sources.size());
}

/// Mean wall time of IterBound_I queries (k paths to `targets` from each
/// source) with a persistent solver, mirroring MeanQueryMillis.
double MeanIterBoundIMillis(const Graph& graph, const Graph& reverse,
                            const LandmarkIndex& landmarks,
                            const std::vector<NodeId>& sources,
                            const std::vector<NodeId>& targets, uint32_t k) {
  KpjOptions options;
  options.algorithm = Algorithm::kIterBoundSptI;
  options.oracle = &landmarks;
  std::unique_ptr<KpjSolver> solver = MakeSolver(graph, reverse, options);
  auto run = [&](NodeId s) {
    KpjQuery query;
    query.sources = {s};
    query.targets = targets;
    query.k = k;
    Result<PreparedQuery> prepared = PrepareQuery(graph, query);
    KPJ_CHECK(prepared.ok()) << prepared.status().ToString();
    solver->Run(prepared.value());
  };
  run(sources.front());
  Timer timer;
  for (NodeId s : sources) run(s);
  return timer.ElapsedMillis() / static_cast<double>(sources.size());
}

std::vector<NodeId> Translate(const std::vector<NodeId>& original,
                              const Permutation& perm) {
  std::vector<NodeId> out;
  out.reserve(original.size());
  for (NodeId v : original) out.push_back(perm.ToNew(v));
  return out;
}

std::string JsonRow(const StrategyRow& row, const StrategyRow& baseline) {
  std::ostringstream os;
  os << "{\"strategy\":\"" << ReorderStrategyName(row.strategy) << "\""
     << ",\"dijkstra_ms\":" << row.dijkstra_ms
     << ",\"spti_ms\":" << row.spti_ms
     << ",\"iterboundi_ms\":" << row.iterboundi_ms
     << ",\"dijkstra_speedup\":" << baseline.dijkstra_ms / row.dijkstra_ms
     << ",\"spti_speedup\":" << baseline.spti_ms / row.spti_ms
     << ",\"iterboundi_speedup\":"
     << baseline.iterboundi_ms / row.iterboundi_ms << "}";
  return os.str();
}

int Main() {
  const HarnessOptions harness = HarnessFromEnv();
  // Sources measured per (dataset, strategy) cell; every strategy replays
  // the same original-id workload.
  const size_t num_sources = std::max<size_t>(harness.queries_per_set, 3);
  const uint32_t kTargets = 32;
  const uint32_t kK = 20;
  const uint32_t kLandmarks = 8;

  const int kRounds = 3;

  std::vector<BenchDataset> datasets;
  {
    RoadGenOptions road;
    road.seed = 11;
    road.target_nodes = 60000;
    datasets.push_back(
        {"road_60k", ScrambleLayout(GenerateRoadNetwork(road).graph, 21)});
    road.seed = 12;
    road.target_nodes = 240000;
    datasets.push_back(
        {"road_240k", ScrambleLayout(GenerateRoadNetwork(road).graph, 22)});
    datasets.push_back(
        {"scalefree_120k",
         ScrambleLayout(GenerateScaleFree(120000, 4, 13), 23)});
  }

  std::ostringstream json;
  json << "{\"bench\":\"bench_reorder\",\"datasets\":[";
  bool first_dataset = true;

  for (BenchDataset& ds : datasets) {
    const Graph& base = ds.graph;
    std::fprintf(stderr, "[bench_reorder] %s: %u nodes, %u arcs\n",
                 ds.name.c_str(), base.NumNodes(), base.NumEdges());

    Rng rng(97);
    std::vector<NodeId> sources;
    for (size_t i = 0; i < num_sources; ++i) {
      sources.push_back(static_cast<NodeId>(rng.NextBounded(base.NumNodes())));
    }
    std::vector<NodeId> targets;
    for (uint64_t t : Rng(98).SampleDistinct(kTargets, base.NumNodes())) {
      targets.push_back(static_cast<NodeId>(t));
    }

    // One landmark build in the native layout; per-strategy indexes come
    // from Remap, which is exactly how the CLI reuses a landmark file with
    // --reorder.
    Graph base_reverse = base.Reverse();
    LandmarkIndexOptions lm_opt;
    lm_opt.num_landmarks = kLandmarks;
    LandmarkIndex base_landmarks =
        LandmarkIndex::Build(base, base_reverse, lm_opt);

    // Materialize every strategy variant up front, then time them in
    // interleaved rounds and keep each kernel's best round.
    struct StrategyContext {
      Graph graph;
      Graph reverse;
      LandmarkIndex landmarks;
      std::vector<NodeId> sources;
      std::vector<NodeId> targets;
    };
    std::vector<StrategyContext> contexts;
    std::vector<StrategyRow> rows;
    for (ReorderStrategy strategy : kAllReorderStrategies) {
      Permutation perm = ComputeReordering(base, strategy);
      StrategyContext ctx;
      ctx.graph = ApplyPermutation(base, perm);
      ctx.reverse = ctx.graph.Reverse();
      ctx.landmarks = base_landmarks.Remap(perm);
      ctx.sources = Translate(sources, perm);
      ctx.targets = Translate(targets, perm);
      contexts.push_back(std::move(ctx));
      StrategyRow row;
      row.strategy = strategy;
      row.dijkstra_ms = row.spti_ms = row.iterboundi_ms = kInfMs;
      rows.push_back(row);
    }
    for (int round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < contexts.size(); ++i) {
        const StrategyContext& ctx = contexts[i];
        rows[i].dijkstra_ms = std::min(
            rows[i].dijkstra_ms, MeanDijkstraMillis(ctx.graph, ctx.sources));
        rows[i].spti_ms =
            std::min(rows[i].spti_ms, MeanSptiMillis(ctx.graph, ctx.sources));
        rows[i].iterboundi_ms =
            std::min(rows[i].iterboundi_ms,
                     MeanIterBoundIMillis(ctx.graph, ctx.reverse,
                                          ctx.landmarks, ctx.sources,
                                          ctx.targets, kK));
      }
    }

    Table table("Reordering on " + ds.name + " (ms/query)",
                {"Dijkstra", "SPT_I", "IterBoundI"});
    for (const StrategyRow& row : rows) {
      table.AddRow(ReorderStrategyName(row.strategy),
                   {row.dijkstra_ms, row.spti_ms, row.iterboundi_ms});
    }
    table.Print();

    if (!first_dataset) json << ",";
    first_dataset = false;
    json << "{\"name\":\"" << ds.name << "\",\"nodes\":" << base.NumNodes()
         << ",\"arcs\":" << base.NumEdges() << ",\"rows\":[";
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i) json << ",";
      json << JsonRow(rows[i], rows.front());
    }
    json << "]}";
  }
  json << "]}";

  if (const char* path = std::getenv("KPJ_BENCH_JSON");
      path != nullptr && *path != '\0') {
    std::ofstream out(path, std::ios::trunc);
    out << json.str() << "\n";
    std::fprintf(stderr, "[bench_reorder] JSON -> %s\n", path);
  } else {
    std::cout << json.str() << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace kpj::bench

int main() { return kpj::bench::Main(); }
