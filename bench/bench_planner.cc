// Adaptive per-query planner (core/planner.h) on a mixed road_120k
// workload: does --algorithm=auto beat every fixed algorithm end to end?
//
// The workload interleaves three strata a single fixed algorithm cannot
// serve uniformly well:
//   * cold    — unique source, fresh 8-target set, k=8: nothing to reuse,
//               the forward incremental solvers dominate;
//   * join    — the paper's top-k path join shape: one fixed 64-target
//               category queried from a distinct source every time, k=16.
//               No forward state is ever reusable, but the reverse
//               target-keyed SPT depends on the category alone — DA-SPT
//               pays it once and amortizes it across every source;
//   * large_k — hot sources against a fixed 6-target set, k=96: deep
//               deviation enumeration where DA-SPT's per-deviation cost
//               explodes and the planner must route past the resident
//               tree the repeated targets would otherwise suggest.
//
// Each engine configuration (four fixed algorithms + auto) runs the same
// shuffled query sequence on a fresh engine per round (fresh caches, fresh
// planner profile — the planner must re-learn from its static priors every
// round, so the artifact measures adaptation, not a lucky warm start).
// Rounds interleave the configurations (round r runs all five, starting at
// the r-th) and each configuration reports its fastest round.
// Correctness is checked at two levels: every configuration must return
// the same rank-ordered length profile per query (the repo-wide contract —
// path identities may differ between solver families under ties, see
// core/verifier.h), and auto's answer must be byte-identical to the answer
// of whichever solver the planner picked — the planner only changes WHICH
// solver runs, never the paths it produces. The JSON artifact gates (via
// scripts/check.sh --bench-gate / tools/compare_bench.py):
//   * auto_vs_best_fixed_speedup   — auto >= best fixed overall (>= 1.0);
//   * auto_vs_median_fixed_speedup — auto >= 1.3x the median fixed;
//   * per-stratum auto_vs_best_speedup — auto within 5% of the per-stratum
//     oracle-best fixed algorithm (>= 0.95).
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
#include "util/rng.h"
#include "util/timer.h"

namespace kpj::bench {
namespace {

/// A deterministic random relabeling, simulating the topology-uncorrelated
/// node numbering of real-world inputs (same baseline convention as
/// bench_reorder / bench_cache). Returns the old→new map so workload
/// construction can pick nodes by generator coordinates first and translate.
std::vector<NodeId> ScrambleMap(NodeId num_nodes, uint64_t seed) {
  std::vector<NodeId> map(num_nodes);
  for (NodeId v = 0; v < num_nodes; ++v) map[v] = v;
  Rng rng(seed);
  rng.Shuffle(map);
  return map;
}

/// Canonical rendering of one answer: lengths and node sequences in rank
/// order. Two solves agree iff these strings are byte-identical.
std::string CanonicalPaths(const Result<KpjResult>& result) {
  KPJ_CHECK(result.ok()) << result.status().ToString();
  const KpjResult& r = result.value();
  KPJ_CHECK(r.status.ok()) << r.status.ToString();
  std::ostringstream os;
  for (const Path& p : r.paths) {
    os << " [" << p.length << ":";
    for (NodeId v : p.nodes) os << " " << v;
    os << "]";
  }
  return os.str();
}

/// The rank-ordered length profile alone — the cross-algorithm contract
/// (core/verifier.h): all solvers agree on the top-k lengths, while path
/// identities may legitimately differ under ties.
std::string CanonicalLengths(const Result<KpjResult>& result) {
  std::ostringstream os;
  for (const Path& p : result.value().paths) os << " " << p.length;
  return os.str();
}

constexpr double kInfMs = 1e300;

enum Stratum { kCold = 0, kJoin = 1, kLargeK = 2 };
constexpr const char* kStratumNames[] = {"cold", "join", "large_k"};
constexpr size_t kNumStrata = 3;

struct TaggedQuery {
  Stratum stratum;
  KpjQuery query;
};

int Main() {
  const HarnessOptions harness = HarnessFromEnv();
  const size_t num_cold = std::max<size_t>(harness.queries_per_set * 4, 24);
  const size_t num_join = std::max<size_t>(harness.queries_per_set * 8, 48);
  const size_t num_large_k = std::max<size_t>(harness.queries_per_set * 2, 12);
  const size_t kCacheMb = 64;
  const int kRounds = 3;
  // No landmark oracle: the regime the planner has to arbitrate. With a
  // strong oracle the forward incremental solver wins every stratum and
  // there is nothing to plan; without one, the forward solvers search on
  // zero lower bounds while a resident DA-SPT keeps exact reverse-SPT
  // distances — so the stratum winners genuinely diverge. DA is excluded
  // from the fixed set (dominated by an order of magnitude everywhere, it
  // would only pad the median); SPT_I without landmarks degenerates to
  // the NL variant, so only the NL variant runs.
  const Algorithm kFixed[] = {Algorithm::kDaSpt, Algorithm::kIterBound,
                              Algorithm::kIterBoundSptP,
                              Algorithm::kIterBoundSptINoLm};

  RoadGenOptions road;
  road.seed = 12;
  road.target_nodes = 120000;
  RoadNetwork net = GenerateRoadNetwork(road);
  std::vector<NodeId> old_to_new = ScrambleMap(net.graph.NumNodes(), 22);
  Result<Permutation> perm =
      Permutation::FromOldToNew(std::vector<NodeId>(old_to_new));
  KPJ_CHECK(perm.ok());
  Graph base = ApplyPermutation(net.graph, perm.value());
  std::fprintf(stderr, "[bench_planner] road_120k: %u nodes, %u arcs\n",
               base.NumNodes(), base.NumEdges());
  const NodeId num_nodes = base.NumNodes();
  const uint32_t num_arcs = base.NumEdges();

  Result<KpjInstance> made =
      KpjInstance::Make(std::move(base), ReorderStrategy::kHybrid);
  KPJ_CHECK(made.ok()) << made.status().ToString();
  KpjInstance instance = std::move(made).value();

  // --- Workload construction (all original ids, all seeded) ---------------
  std::vector<TaggedQuery> workload;

  // cold: unique sources, fresh 8-target sets, k=8.
  {
    Rng rng(31);
    for (size_t i = 0; i < num_cold; ++i) {
      TaggedQuery tq;
      tq.stratum = kCold;
      tq.query.sources = {static_cast<NodeId>(rng.NextBounded(num_nodes))};
      for (uint64_t t : Rng(1000 + i).SampleDistinct(8, num_nodes)) {
        tq.query.targets.push_back(static_cast<NodeId>(t));
      }
      tq.query.k = 8;
      workload.push_back(std::move(tq));
    }
  }

  // join: the paper's category join — one spatially clustered 64-target
  // category (think: all POIs of one kind in one district), queried from a
  // distinct far-away source every time, k=16. Forward state is never
  // reusable and every forward search has to cross most of the map on weak
  // bounds, while the reverse target-keyed SPT depends on the category
  // alone and amortizes across every source.
  {
    const std::vector<Coordinate>& coords = net.coords;
    // Cluster center: the bottom-left-most generated node.
    NodeId center = 0;
    for (NodeId v = 1; v < coords.size(); ++v) {
      if (static_cast<int64_t>(coords[v].x) + coords[v].y <
          static_cast<int64_t>(coords[center].x) + coords[center].y) {
        center = v;
      }
    }
    auto dist2 = [&coords, center](NodeId v) {
      int64_t dx = static_cast<int64_t>(coords[v].x) - coords[center].x;
      int64_t dy = static_cast<int64_t>(coords[v].y) - coords[center].y;
      return dx * dx + dy * dy;
    };
    // Category: the 64 nodes nearest the center (generator coordinates,
    // original ids), translated into the scrambled numbering.
    std::vector<NodeId> by_dist(coords.size());
    for (NodeId v = 0; v < coords.size(); ++v) by_dist[v] = v;
    std::partial_sort(by_dist.begin(), by_dist.begin() + 64, by_dist.end(),
                      [&dist2](NodeId a, NodeId b) {
                        return dist2(a) < dist2(b);
                      });
    std::vector<NodeId> targets;
    for (size_t i = 0; i < 64; ++i) targets.push_back(old_to_new[by_dist[i]]);
    // Sources: distinct nodes from a medium-distance band around the
    // cluster (25-35% of the map diagonal), evenly spread. Medium range is
    // where bound quality decides the forward search: close enough that
    // per-deviation scan cost does not drown everything, far enough that a
    // weakly-bounded search degenerates to a blind ball while the exact
    // reverse-SPT distances carve a corridor.
    int64_t max_d2 = 0;
    for (NodeId v = 0; v < coords.size(); ++v) {
      max_d2 = std::max(max_d2, dist2(v));
    }
    std::vector<NodeId> far;
    for (NodeId v = 0; v < coords.size(); ++v) {
      int64_t d2 = dist2(v);
      if (d2 >= max_d2 / 16 && d2 <= max_d2 / 8) far.push_back(old_to_new[v]);
    }
    KPJ_CHECK(far.size() >= num_join);
    for (size_t i = 0; i < num_join; ++i) {
      TaggedQuery tq;
      tq.stratum = kJoin;
      tq.query.sources = {far[i * far.size() / num_join]};
      tq.query.targets = targets;
      tq.query.k = 16;
      workload.push_back(std::move(tq));
    }
  }

  // large_k: four hot sources against a fixed 6-target set, k=96.
  {
    std::vector<NodeId> targets;
    for (uint64_t t : Rng(77).SampleDistinct(6, num_nodes)) {
      targets.push_back(static_cast<NodeId>(t));
    }
    std::vector<NodeId> pool;
    for (uint64_t s : Rng(76).SampleDistinct(4, num_nodes)) {
      pool.push_back(static_cast<NodeId>(s));
    }
    Rng rng(75);
    for (size_t i = 0; i < num_large_k; ++i) {
      TaggedQuery tq;
      tq.stratum = kLargeK;
      tq.query.sources = {pool[rng.NextBounded(pool.size())]};
      tq.query.targets = targets;
      tq.query.k = 96;
      workload.push_back(std::move(tq));
    }
  }

  // One fixed shuffle: every configuration sees the identical sequence, so
  // the planner experiences realistic stratum mixing rather than batches.
  Rng(55).Shuffle(workload);

  // --- Measurement ---------------------------------------------------------
  struct Row {
    std::string name;
    Algorithm algorithm = Algorithm::kAuto;
    double total_ms = kInfMs;
    double stratum_ms[kNumStrata] = {kInfMs, kInfMs, kInfMs};
    std::vector<std::string> paths;    // Per-query full canonical answer.
    std::vector<std::string> lengths;  // Per-query length profile.
    std::vector<Algorithm> chosen;     // Per-query algorithm_used.
  };

  // planner_choice counts from the auto engine's best round.
  std::vector<std::pair<std::string, uint64_t>> auto_choices;

  // One round of one configuration; a row keeps its fastest round.
  auto run_round = [&](Row& row, int round) {
    const Algorithm algorithm = row.algorithm;
    // Fresh engine per round: fresh caches and (for auto) a fresh
    // planner profile — each round re-learns from the static priors.
    api::EngineConfig config;
    config.workers = 1;
    config.clamp_to_hardware = false;
    config.algorithm = algorithm;
    config.cache_mb = kCacheMb;
    KpjEngine engine(instance, config.ToEngineOptions());

    std::vector<Result<KpjResult>> results;
    results.reserve(workload.size());
    double stratum_ms[kNumStrata] = {0.0, 0.0, 0.0};
    for (const TaggedQuery& tq : workload) {
      Timer timer;
      results.push_back(engine.Submit(tq.query).get());
      stratum_ms[tq.stratum] += timer.ElapsedMillis();
    }
    double total = stratum_ms[0] + stratum_ms[1] + stratum_ms[2];

    std::vector<std::string> paths;
    std::vector<std::string> lengths;
    std::vector<Algorithm> chosen;
    paths.reserve(results.size());
    lengths.reserve(results.size());
    chosen.reserve(results.size());
    for (const Result<KpjResult>& res : results) {
      paths.push_back(CanonicalPaths(res));
      lengths.push_back(CanonicalLengths(res));
      chosen.push_back(res.value().algorithm_used);
    }
    // The length profile is invariant across rounds for every
    // configuration. Full answers are invariant for a fixed algorithm;
    // under auto the live profile learns from measured latencies, so the
    // planner may pick differently round to round and path identities may
    // shift under ties — the reported (best) round is what gets verified
    // against per-choice fixed solves below.
    if (round == 0) {
      row.lengths = std::move(lengths);
    } else {
      KPJ_CHECK(lengths == row.lengths)
          << row.name << ": length profile diverges across rounds";
    }
    if (algorithm != Algorithm::kAuto) {
      if (round == 0) {
        row.paths = std::move(paths);
        row.chosen = std::move(chosen);
      } else {
        KPJ_CHECK(paths == row.paths)
            << row.name << ": answers diverge across rounds";
      }
    }
    if (total < row.total_ms) {
      row.total_ms = total;
      for (size_t s = 0; s < kNumStrata; ++s) {
        row.stratum_ms[s] = stratum_ms[s];
      }
      if (algorithm == Algorithm::kAuto) {
        row.paths = std::move(paths);
        row.chosen = std::move(chosen);
        EngineMetricsSnapshot snap = engine.MetricsSnapshot();
        auto_choices.clear();
        for (Algorithm a : kAllAlgorithms) {
          uint64_t count = snap.planner_choice[PlannerIndex(a)];
          if (count > 0) auto_choices.emplace_back(AlgorithmName(a), count);
        }
      }
    }
    if (algorithm != Algorithm::kAuto) {
      // A fixed algorithm must never consult the planner.
      EngineMetricsSnapshot snap = engine.MetricsSnapshot();
      uint64_t consulted = 0;
      for (uint64_t c : snap.planner_choice) consulted += c;
      KPJ_CHECK(consulted == 0)
          << row.name << ": planner consulted on a fixed-algorithm engine";
    }
  };

  // Rounds are the outer loop: each round runs every configuration once,
  // starting one configuration later than the round before, so slow
  // phases of a shared machine spread across configurations instead of
  // landing on whichever one ran during them.
  std::vector<Row> rows;
  for (Algorithm algorithm : kFixed) {
    rows.emplace_back();
    rows.back().algorithm = algorithm;
    rows.back().name = AlgorithmName(algorithm);
  }
  rows.emplace_back();
  rows.back().algorithm = Algorithm::kAuto;
  rows.back().name = AlgorithmName(Algorithm::kAuto);
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < rows.size(); ++i) {
      run_round(rows[(round + i) % rows.size()], round);
    }
  }
  const Row auto_row = std::move(rows.back());
  rows.pop_back();
  const std::vector<Row> fixed_rows = std::move(rows);

  // Cross-algorithm contract: every configuration returns the same
  // rank-ordered length profile for every query (path identities may differ
  // between solver families under ties — core/verifier.h).
  for (const Row& row : fixed_rows) {
    KPJ_CHECK(row.lengths == fixed_rows[0].lengths)
        << row.name << ": length profile diverges from " << fixed_rows[0].name;
  }
  KPJ_CHECK(auto_row.lengths == fixed_rows[0].lengths)
      << "auto: length profile diverges from the fixed baseline";

  // Planner guarantee: auto's answer is byte-identical to the answer of
  // whichever solver the planner picked. Choices inside the fixed set are
  // compared against that configuration's recorded answers; choices outside
  // it are verified against a one-off fixed-algorithm engine.
  for (size_t i = 0; i < workload.size(); ++i) {
    const Algorithm picked = auto_row.chosen[i];
    const Row* fixed = nullptr;
    for (const Row& row : fixed_rows) {
      if (row.algorithm == picked) fixed = &row;
    }
    if (fixed != nullptr) {
      KPJ_CHECK(auto_row.paths[i] == fixed->paths[i])
          << "auto (" << AlgorithmName(picked) << ") diverges from the fixed "
          << fixed->name << " run on query " << i;
    } else {
      api::EngineConfig config;
      config.workers = 1;
      config.clamp_to_hardware = false;
      config.algorithm = picked;
      config.cache_mb = kCacheMb;
      KpjEngine engine(instance, config.ToEngineOptions());
      KPJ_CHECK(auto_row.paths[i] ==
                CanonicalPaths(engine.Submit(workload[i].query).get()))
          << "auto (" << AlgorithmName(picked)
          << ") diverges from a fixed one-off solve on query " << i;
    }
  }

  // --- Derived gates -------------------------------------------------------
  std::vector<double> fixed_totals;
  for (const Row& row : fixed_rows) fixed_totals.push_back(row.total_ms);
  std::sort(fixed_totals.begin(), fixed_totals.end());
  double best_fixed = fixed_totals.front();
  double median_fixed =
      fixed_totals.size() % 2 == 1
          ? fixed_totals[fixed_totals.size() / 2]
          : 0.5 * (fixed_totals[fixed_totals.size() / 2 - 1] +
                   fixed_totals[fixed_totals.size() / 2]);
  double vs_best = best_fixed / auto_row.total_ms;
  double vs_median = median_fixed / auto_row.total_ms;

  double stratum_best[kNumStrata];
  double stratum_vs_best[kNumStrata];
  for (size_t s = 0; s < kNumStrata; ++s) {
    stratum_best[s] = kInfMs;
    for (const Row& row : fixed_rows) {
      stratum_best[s] = std::min(stratum_best[s], row.stratum_ms[s]);
    }
    stratum_vs_best[s] = stratum_best[s] / auto_row.stratum_ms[s];
  }

  Table table("Planner on road_120k mixed workload (" +
                  std::to_string(workload.size()) + " queries: " +
                  std::to_string(num_cold) + " cold, " +
                  std::to_string(num_join) + " join, " +
                  std::to_string(num_large_k) + " large-k)",
              {"total ms", "cold ms", "join ms", "large-k ms"});
  for (const Row& row : fixed_rows) {
    table.AddRow(row.name, {row.total_ms, row.stratum_ms[0],
                            row.stratum_ms[1], row.stratum_ms[2]});
  }
  table.AddRow(auto_row.name, {auto_row.total_ms, auto_row.stratum_ms[0],
                               auto_row.stratum_ms[1],
                               auto_row.stratum_ms[2]});
  table.Print();
  std::fprintf(stderr,
               "[bench_planner] auto vs best fixed %.3fx, vs median fixed "
               "%.3fx\n",
               vs_best, vs_median);

  std::ostringstream json;
  json << "{\"bench\":\"bench_planner\",\"dataset\":\"road_120k\""
       << ",\"nodes\":" << num_nodes << ",\"arcs\":" << num_arcs
       << ",\"queries_cold\":" << num_cold << ",\"queries_join\":" << num_join
       << ",\"queries_large_k\":" << num_large_k
       << ",\"cache_mb\":" << kCacheMb << ",\"rows\":[";
  auto emit_row = [&json](const Row& row, bool first) {
    if (!first) json << ",";
    json << "{\"algorithm\":\"" << row.name
         << "\",\"total_ms\":" << row.total_ms
         << ",\"cold_ms\":" << row.stratum_ms[0]
         << ",\"join_ms\":" << row.stratum_ms[1]
         << ",\"large_k_ms\":" << row.stratum_ms[2] << "}";
  };
  for (size_t i = 0; i < fixed_rows.size(); ++i) emit_row(fixed_rows[i], i == 0);
  emit_row(auto_row, false);
  json << "],\"auto_vs_best_fixed_speedup\":" << vs_best
       << ",\"auto_vs_median_fixed_speedup\":" << vs_median << ",\"strata\":[";
  for (size_t s = 0; s < kNumStrata; ++s) {
    if (s) json << ",";
    json << "{\"name\":\"" << kStratumNames[s]
         << "\",\"auto_vs_best_speedup\":" << stratum_vs_best[s] << "}";
  }
  json << "],\"identical\":true,\"planner_choices\":[";
  for (size_t i = 0; i < auto_choices.size(); ++i) {
    if (i) json << ",";
    json << "{\"algorithm\":\"" << auto_choices[i].first
         << "\",\"count\":" << auto_choices[i].second << "}";
  }
  json << "]}";

  if (const char* path = std::getenv("KPJ_BENCH_JSON");
      path != nullptr && *path != '\0') {
    std::ofstream out(path, std::ios::trunc);
    out << json.str() << "\n";
    std::fprintf(stderr, "[bench_planner] JSON -> %s\n", path);
  } else {
    std::cout << json.str() << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace kpj::bench

int main() { return kpj::bench::Main(); }
