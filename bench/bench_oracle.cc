// Distance-oracle head-to-head (index/distance_oracle.h): ALT landmark
// bounds vs exact 2-hop hub labels on the road_240k workload, across the
// four oracle-consuming solver families (BestFirst, IterBound, SPT_P,
// SPT_I). DA / DA-SPT never consult an oracle and are out of scope here.
//
// For each family the same batch runs once per oracle; the top-k length
// profiles must agree exactly (the oracle only guides search order, so the
// answer is oracle-independent up to the identity of equal-length paths —
// the same invariant the cross-algorithm property suite checks), and the
// interesting numbers are the deterministic search-effort counters: node
// expansions and the lower-bound tightness ratio (AlgoStats
// lb_tightness_num/den). Wall time is best-of-round, interleaved so
// machine drift cannot bias one oracle. `expansion_speedup` (ALT
// expansions / hub expansions) is the regression-gated leaf: it is
// exact-integer deterministic, unlike wall time.
//
// Two tightness figures are reported. `*_oracle_tightness` is the direct
// Eq. (2) quality of the oracle itself: sum of lb(v, V_T) over the whole
// node set divided by the true Dijkstra node-to-set distances (hub labels
// are exact, so theirs is 1.0 by construction). The per-row `*_tightness`
// is the engine's CompLB counter (popped bound vs exact constrained
// deviation length) — it stays below 1 even for an exact oracle because
// the set bound cannot see the subspace constraints (banned first hops,
// simple-path prefix exclusions).
//
// At full scale this binary also enforces the oracle acceptance floor:
// hub-label oracle tightness >= 0.99, and >= 1.3x expansion reduction in
// at least three families.
//
// KPJ_BENCH_NODES overrides the dataset size for quick pilots; the gated
// baseline is the 240k default. Output: a table plus a JSON summary
// written to KPJ_BENCH_JSON, or stdout when unset.

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
#include "index/hub_label_index.h"
#include "index/landmark_index.h"
#include "sssp/monotone_dijkstra.h"
#include "util/rng.h"
#include "util/timer.h"

namespace kpj::bench {
namespace {

/// Relabels `graph` by a deterministic random permutation (same baseline
/// convention as bench_cache / bench_reorder).
Graph ScrambleLayout(const Graph& graph, uint64_t seed) {
  std::vector<NodeId> map(graph.NumNodes());
  for (NodeId v = 0; v < graph.NumNodes(); ++v) map[v] = v;
  Rng rng(seed);
  rng.Shuffle(map);
  Result<Permutation> perm = Permutation::FromOldToNew(std::move(map));
  KPJ_CHECK(perm.ok());
  return ApplyPermutation(graph, perm.value());
}

/// Canonical rendering of a batch's answers: the per-query top-k length
/// profile, in input order. This is the oracle-invariant part of a result
/// (equal-length path identities legitimately depend on tie-breaking, i.e.
/// on search order — see core/verifier.h); two oracles agree iff these
/// strings are byte-identical.
std::string CanonicalLengths(const std::vector<Result<KpjResult>>& results) {
  std::ostringstream os;
  for (size_t i = 0; i < results.size(); ++i) {
    KPJ_CHECK(results[i].ok()) << results[i].status().ToString();
    const KpjResult& r = results[i].value();
    KPJ_CHECK(r.status.ok()) << r.status.ToString();
    os << "q" << i << ":";
    for (const Path& p : r.paths) os << " " << p.length;
    os << "\n";
  }
  return os.str();
}

constexpr double kInfMs = 1e300;

/// Direct Eq. (2) tightness of `oracle` for the target set: ratio of the
/// summed set bound to the summed true node-to-set distance over every
/// node that can reach the set. 1.0 means the bound IS the distance.
double OracleSetTightness(const DistanceOracle& oracle,
                          const std::vector<NodeId>& set_internal,
                          const std::vector<PathLength>& truth) {
  std::unique_ptr<Heuristic> bound = oracle.MakeSetBound(
      oracle.ComputeSetAggregates(set_internal, BoundDirection::kToSet),
      BoundDirection::kToSet, /*scoring_node=*/set_internal.front(),
      /*max_active=*/0);
  uint64_t num = 0, den = 0;
  for (NodeId v = 0; v < truth.size(); ++v) {
    if (truth[v] == kInfLength || truth[v] == 0) continue;
    PathLength lb = bound->Estimate(v);
    KPJ_CHECK(lb <= truth[v]) << "inadmissible set bound at node " << v;
    num += lb;
    den += truth[v];
  }
  return den == 0 ? 1.0 : static_cast<double>(num) / static_cast<double>(den);
}

int Main() {
  const HarnessOptions harness = HarnessFromEnv();
  const size_t num_queries = std::max<size_t>(harness.queries_per_set * 4, 24);
  const uint32_t kTargets = 32;
  const uint32_t kK = 20;
  const uint32_t kLandmarks = 8;
  const int kRounds = 3;
  const Algorithm kAlgorithms[] = {
      Algorithm::kBestFirst, Algorithm::kIterBound, Algorithm::kIterBoundSptP,
      Algorithm::kIterBoundSptI};

  RoadGenOptions road;
  road.seed = 12;
  road.target_nodes = 240000;
  if (const char* env = std::getenv("KPJ_BENCH_NODES");
      env != nullptr && *env != '\0') {
    road.target_nodes = static_cast<uint32_t>(std::atoi(env));
  }
  const bool full_scale = road.target_nodes >= 240000;
  Graph base = ScrambleLayout(GenerateRoadNetwork(road).graph, 22);
  std::fprintf(stderr, "[bench_oracle] road_%uk: %u nodes, %u arcs\n",
               road.target_nodes / 1000, base.NumNodes(), base.NumEdges());
  const NodeId num_nodes = base.NumNodes();
  const uint32_t num_arcs = base.NumEdges();

  Result<KpjInstance> made =
      KpjInstance::Make(std::move(base), ReorderStrategy::kHybrid);
  KPJ_CHECK(made.ok()) << made.status().ToString();
  KpjInstance instance = std::move(made).value();

  LandmarkIndexOptions lm_opt;
  lm_opt.num_landmarks = kLandmarks;
  Timer build_timer;
  const LandmarkIndex landmarks =
      LandmarkIndex::Build(instance.graph(), instance.reverse(), lm_opt);
  const double alt_build_ms = build_timer.ElapsedMillis();

  build_timer.Restart();
  const HubLabelIndex hub_labels =
      HubLabelIndex::Build(instance.graph(), instance.reverse());
  const double hub_build_ms = build_timer.ElapsedMillis();
  std::fprintf(stderr,
               "[bench_oracle] hub labels: %.1f s build, %.1f avg label\n",
               hub_build_ms / 1000.0, hub_labels.AverageLabelSize());

  // Fixed target category, one distinct source per query (original ids).
  std::vector<NodeId> targets;
  for (uint64_t t : Rng(98).SampleDistinct(kTargets, num_nodes)) {
    targets.push_back(static_cast<NodeId>(t));
  }
  std::vector<KpjQuery> queries;
  for (uint64_t s : Rng(96).SampleDistinct(num_queries, num_nodes)) {
    KpjQuery q;
    q.sources = {static_cast<NodeId>(s)};
    q.targets = targets;
    q.k = kK;
    queries.push_back(std::move(q));
  }

  // Ground-truth dist(v, V_T) for every node: one reverse SSSP per target
  // member, min-reduced. Feeds the direct oracle-tightness figures.
  std::vector<NodeId> targets_internal;
  for (NodeId t : targets) targets_internal.push_back(instance.ToInternal(t));
  std::vector<PathLength> truth(instance.NumNodes(), kInfLength);
  {
    MonotoneDijkstra rev_sssp(instance.reverse());
    for (NodeId t : targets_internal) {
      rev_sssp.Run(t);
      for (NodeId v = 0; v < instance.NumNodes(); ++v) {
        truth[v] = std::min(truth[v], rev_sssp.Distance(v));
      }
    }
  }
  const double alt_oracle_tightness =
      OracleSetTightness(landmarks, targets_internal, truth);
  const double hub_oracle_tightness =
      OracleSetTightness(hub_labels, targets_internal, truth);
  std::fprintf(stderr,
               "[bench_oracle] Eq.(2) tightness: alt %.4f, hub %.4f\n",
               alt_oracle_tightness, hub_oracle_tightness);

  struct Row {
    Algorithm algorithm;
    double alt_ms = kInfMs;
    double hub_ms = kInfMs;
    uint64_t alt_expansions = 0;
    uint64_t hub_expansions = 0;
    double alt_tightness = 0.0;
    double hub_tightness = 0.0;
    bool identical = false;
  };
  std::vector<Row> rows;

  for (Algorithm algorithm : kAlgorithms) {
    Row row;
    row.algorithm = algorithm;

    auto make_engine = [&](const DistanceOracle* oracle) {
      api::EngineConfig config;
      config.workers = 1;
      config.clamp_to_hardware = false;
      config.algorithm = algorithm;
      KpjEngineOptions eopt = config.ToEngineOptions();
      // The A/B comparison pins each engine to one oracle explicitly,
      // independent of the instance's SelectOracle state.
      eopt.solver.oracle = oracle;
      return std::make_unique<KpjEngine>(instance, eopt);
    };
    auto alt = make_engine(&landmarks);
    auto hub = make_engine(&hub_labels);

    // Correctness gate + warm-up + counter collection in one pass: the
    // first batch per engine is the snapshot source, so the deterministic
    // effort counters cover exactly one batch.
    const std::string reference = CanonicalLengths(alt->RunBatch(queries));
    row.identical = CanonicalLengths(hub->RunBatch(queries)) == reference;
    KPJ_CHECK(row.identical)
        << AlgorithmName(algorithm)
        << ": top-k length profiles diverge between ALT and hub-label oracles";
    const EngineMetricsSnapshot alt_snap = alt->MetricsSnapshot();
    const EngineMetricsSnapshot hub_snap = hub->MetricsSnapshot();
    row.alt_expansions = alt_snap.algo.node_expansions;
    row.hub_expansions = hub_snap.algo.node_expansions;
    row.alt_tightness = alt_snap.algo.LowerBoundTightness();
    row.hub_tightness = hub_snap.algo.LowerBoundTightness();

    for (int round = 0; round < kRounds; ++round) {
      Timer timer;
      alt->RunBatch(queries);
      row.alt_ms = std::min(row.alt_ms, timer.ElapsedMillis());
      timer.Restart();
      hub->RunBatch(queries);
      row.hub_ms = std::min(row.hub_ms, timer.ElapsedMillis());
    }
    rows.push_back(row);
  }

  // Acceptance floor (full scale only; pilots report without enforcing):
  // exact labels must measure as essentially tight, and the tighter bounds
  // must buy >= 1.3x fewer expansions in at least 3 of the 4 families.
  if (full_scale) {
    KPJ_CHECK(hub_oracle_tightness >= 0.99)
        << "hub-label oracle tightness " << hub_oracle_tightness << " < 0.99";
    size_t fast_families = 0;
    for (const Row& row : rows) {
      if (row.hub_expansions > 0 &&
          static_cast<double>(row.alt_expansions) /
                  static_cast<double>(row.hub_expansions) >=
              1.3) {
        ++fast_families;
      }
    }
    KPJ_CHECK(fast_families >= 3)
        << "only " << fast_families
        << " solver families reach 1.3x expansion reduction";
  }

  Table table("Distance oracles on road_240k (" + std::to_string(num_queries) +
                  " queries, k=" + std::to_string(kK) + ", " +
                  std::to_string(kTargets) + " targets; ALT " +
                  std::to_string(kLandmarks) + " landmarks vs hub labels)",
              {"alt ms", "hub ms", "alt Mexp", "hub Mexp", "exp speedup",
               "alt tight", "hub tight"});
  for (const Row& row : rows) {
    table.AddRow(
        AlgorithmName(row.algorithm),
        {row.alt_ms, row.hub_ms,
         static_cast<double>(row.alt_expansions) / 1e6,
         static_cast<double>(row.hub_expansions) / 1e6,
         static_cast<double>(row.alt_expansions) /
             static_cast<double>(std::max<uint64_t>(row.hub_expansions, 1)),
         row.alt_tightness, row.hub_tightness});
  }
  table.Print();

  std::ostringstream json;
  json << "{\"bench\":\"bench_oracle\",\"dataset\":\"road_240k\""
       << ",\"nodes\":" << num_nodes << ",\"arcs\":" << num_arcs
       << ",\"queries\":" << num_queries << ",\"k\":" << kK
       << ",\"landmarks\":" << kLandmarks
       << ",\"alt_build_ms\":" << alt_build_ms
       << ",\"hub_build_ms\":" << hub_build_ms
       << ",\"hub_avg_label_size\":" << hub_labels.AverageLabelSize()
       << ",\"alt_oracle_tightness\":" << alt_oracle_tightness
       << ",\"hub_oracle_tightness\":" << hub_oracle_tightness
       << ",\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (i) json << ",";
    json << "{\"algorithm\":\"" << AlgorithmName(row.algorithm)
         << "\",\"alt_ms\":" << row.alt_ms << ",\"hub_ms\":" << row.hub_ms
         << ",\"alt_expansions\":" << row.alt_expansions
         << ",\"hub_expansions\":" << row.hub_expansions
         << ",\"expansion_speedup\":"
         << static_cast<double>(row.alt_expansions) /
                static_cast<double>(std::max<uint64_t>(row.hub_expansions, 1))
         << ",\"alt_tightness\":" << row.alt_tightness
         << ",\"hub_tightness\":" << row.hub_tightness
         << ",\"identical\":" << (row.identical ? "true" : "false") << "}";
  }
  json << "]}";

  if (const char* path = std::getenv("KPJ_BENCH_JSON");
      path != nullptr && *path != '\0') {
    std::ofstream out(path, std::ios::trunc);
    out << json.str() << "\n";
    std::fprintf(stderr, "[bench_oracle] JSON -> %s\n", path);
  } else {
    std::cout << json.str() << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace kpj::bench

int main() { return kpj::bench::Main(); }
