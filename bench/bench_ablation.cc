// Ablation benches for the design choices DESIGN.md calls out (beyond the
// paper's own parameter study in Fig. 6):
//   (1) landmark bounds on/off per algorithm (§6's claim that the
//       techniques degrade gracefully without landmarks);
//   (2) α sweep for plain IterBound (no SPT) — isolates the τ-growth
//       policy from the SPT_I effects measured in Fig. 6(b);
//   (3) work counters of the pruning pipeline: shortest-path computations
//       and bound tests per algorithm (the mechanism behind the speedups).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/kpj_instance.h"
#include "core/solver.h"
#include "util/timer.h"

namespace {

using namespace kpj;
using namespace kpj::bench;

QueryStats CollectStats(const KpjInstance& instance, const Dataset& ds,
                        Algorithm algorithm, NodeId source,
                        const std::vector<NodeId>& targets, uint32_t k) {
  KpjOptions options;
  options.algorithm = algorithm;
  options.oracle = &ds.landmarks;
  KpjQuery query;
  query.sources = {source};
  query.targets = targets;
  query.k = k;
  Result<KpjResult> r = RunKpj(instance, query, options);
  KPJ_CHECK(r.ok()) << r.status().ToString();
  return r.value().stats;
}

}  // namespace

int main() {
  HarnessOptions harness = HarnessFromEnv();
  Dataset ds = BuildDataset(DatasetId::kCAL, harness, /*california=*/true);
  Result<KpjInstance> instance = KpjInstance::Wrap(ds.graph, Permutation());
  KPJ_CHECK(instance.ok()) << instance.status().ToString();
  const std::vector<NodeId>& targets = ds.Targets(ds.california->lake);
  QuerySets sets = GenerateQuerySets(ds.reverse, targets,
                                     harness.queries_per_set, 97);

  // --- (1) landmarks on/off -------------------------------------------------
  {
    Table table(
        "Ablation 1: landmark bounds on/off (CAL, T=Lake, Q3, k=20), ms",
        {"with landmarks", "without"});
    const Algorithm algs[] = {Algorithm::kBestFirst, Algorithm::kIterBound,
                              Algorithm::kIterBoundSptP,
                              Algorithm::kIterBoundSptI};
    LandmarkIndex empty;  // Zero landmarks: Eq. (2) degenerates to 0.
    for (Algorithm a : algs) {
      double with_lm = MeanQueryMillis(ds, a, sets.q[2], targets, 20);
      double without = MeanQueryMillis(ds, a, sets.q[2], targets, 20, 1.1,
                                       &empty);
      table.AddRow(AlgorithmName(a), {with_lm, without});
    }
    table.Print();
  }

  // --- (2) α sweep for plain IterBound ---------------------------------------
  {
    const double alphas[] = {1.01, 1.05, 1.1, 1.3, 1.5, 2.0, 4.0};
    std::vector<std::string> columns;
    for (double a : alphas) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "a=%.2f", a);
      columns.push_back(buf);
    }
    Table table("Ablation 2: plain IterBound alpha sweep (CAL, T=Lake), ms",
                columns);
    std::vector<double> row;
    for (double a : alphas) {
      row.push_back(MeanQueryMillis(ds, Algorithm::kIterBound, sets.q[2],
                                    targets, 20, a));
    }
    table.AddRow("IterBound", row);
    table.Print();
  }

  // --- (2b) active-landmark selection (extension) ----------------------------
  {
    Table table(
        "Ablation 2b: active landmark subset, IterBoundI (CAL, Q3, k=20), ms",
        {"all 16", "active 8", "active 4", "active 2", "none"});
    for (const char* cat_name : {"Glacier", "Lake", "Harbor"}) {
      CategoryId cat = ds.categories.Find(cat_name).value();
      const std::vector<NodeId>& cat_targets = ds.Targets(cat);
      QuerySets cat_sets = GenerateQuerySets(ds.reverse, cat_targets,
                                             harness.queries_per_set, 97);
      std::vector<double> row;
      for (uint32_t active : {0u, 8u, 4u, 2u}) {
        KpjOptions options;
        options.algorithm = Algorithm::kIterBoundSptI;
        options.oracle = &ds.landmarks;
        options.max_active_landmarks = active;
        std::unique_ptr<KpjSolver> solver =
            MakeSolver(ds.graph, ds.reverse, options);
        Sample sample;
        bool warm = false;
        for (NodeId source : cat_sets.q[2]) {
          KpjQuery query;
          query.sources = {source};
          query.targets = cat_targets;
          query.k = 20;
          Result<PreparedQuery> prepared = PrepareQuery(ds.graph, query);
          KPJ_CHECK(prepared.ok());
          if (!warm) {
            solver->Run(prepared.value());
            warm = true;
          }
          Timer timer;
          solver->Run(prepared.value());
          sample.Add(timer.ElapsedMillis());
        }
        row.push_back(sample.Mean());
      }
      row.push_back(MeanQueryMillis(ds, Algorithm::kIterBoundSptINoLm,
                                    cat_sets.q[2], cat_targets, 20));
      table.AddRow(cat_name, row);
    }
    table.Print();
  }


  // --- (2c) landmark selection strategy (extension) ---------------------------
  {
    LandmarkIndexOptions random_opt;
    random_opt.num_landmarks = 16;
    random_opt.seed = 4242;
    random_opt.selection = LandmarkSelection::kRandom;
    LandmarkIndex random_index =
        LandmarkIndex::Build(ds.graph, ds.reverse, random_opt);
    Table table(
        "Ablation 2c: landmark selection strategy (CAL, T=Lake, Q3, k=20), ms",
        {"farthest 16", "random 16"});
    for (Algorithm a : {Algorithm::kBestFirst, Algorithm::kIterBound,
                        Algorithm::kIterBoundSptI}) {
      double farthest = MeanQueryMillis(ds, a, sets.q[2], targets, 20);
      double random = MeanQueryMillis(ds, a, sets.q[2], targets, 20, 1.1,
                                      &random_index);
      table.AddRow(AlgorithmName(a), {farthest, random});
    }
    table.Print();
  }

  // --- (3) work counters ------------------------------------------------------
  {
    Table table(
        "Ablation 3: work per query (CAL, T=Lake, Q3 source, k=20)",
        {"SP comps", "bound tests", "nodes settled", "SPT nodes"});
    for (Algorithm a : BaselineFigureAlgorithms()) {
      QueryStats stats = CollectStats(instance.value(), ds, a, sets.q[2][0], targets, 20);
      table.AddRow(AlgorithmName(a),
                   {static_cast<double>(stats.shortest_path_computations),
                    static_cast<double>(stats.lower_bound_tests),
                    static_cast<double>(stats.nodes_settled),
                    static_cast<double>(stats.spt_nodes)});
    }
    table.Print();
  }
  return 0;
}
