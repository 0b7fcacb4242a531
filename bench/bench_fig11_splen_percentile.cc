// Fig. 11: how the number of destination nodes shrinks shortest-path
// lengths. For each dataset and POI set Ti, take the *longest*
// node-to-category shortest distance and report its percentile position in
// the distribution of all pairwise shortest distances.
//
// Exact node-to-category distances come from one multi-source reverse
// Dijkstra. The n^2 pairwise-distance population is estimated by sampling
// forward Dijkstra sources (DESIGN.md §4 note) — the paper's trend is what
// matters: the percentile drops sharply as |T| grows.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "sssp/incremental_search.h"
#include "util/rng.h"

namespace {

constexpr int kPopulationSources = 24;

}  // namespace

int main() {
  using namespace kpj;
  using namespace kpj::bench;
  HarnessOptions harness = HarnessFromEnv();

  const DatasetId ids[] = {DatasetId::kSJ, DatasetId::kSF, DatasetId::kCOL,
                           DatasetId::kFLA, DatasetId::kUSA};

  Table table(
      "Fig. 11: percentile (%) of the max shortest-path length to Ti "
      "among all-pairs distances",
      {"T1", "T2", "T3", "T4"});

  for (DatasetId id : ids) {
    Dataset ds = BuildDataset(id, harness, /*california=*/false,
                              /*num_landmarks=*/0);
    // Sampled all-pairs distance population.
    Rng rng(31);
    ZeroHeuristic zero;
    IncrementalSearch forward(ds.graph);
    std::vector<double> population;
    // Subsample recorded distances on big graphs to bound memory.
    size_t stride = std::max<size_t>(1, ds.graph.NumNodes() / 100000);
    for (int s = 0; s < kPopulationSources; ++s) {
      NodeId src = static_cast<NodeId>(rng.NextBounded(ds.graph.NumNodes()));
      const std::pair<NodeId, PathLength> seed[] = {{src, 0}};
      forward.Initialize(seed, zero);
      forward.AdvanceToBound(kInfLength, zero);
      for (NodeId v = 0; v < ds.graph.NumNodes(); v += stride) {
        PathLength d = forward.Distance(v);
        if (d != kInfLength) population.push_back(static_cast<double>(d));
      }
    }

    std::vector<double> row;
    for (int i = 0; i < 4; ++i) {
      const std::vector<NodeId>& targets = ds.Targets(ds.nested.t[i]);
      std::vector<PathLength> to_t = DistancesToTargets(ds.reverse, targets);
      PathLength longest = 0;
      for (PathLength d : to_t) {
        if (d != kInfLength && d > longest) longest = d;
      }
      row.push_back(100.0 * PercentilePosition(
                                population, static_cast<double>(longest)));
    }
    table.AddRow(ds.name, row);
  }
  table.Print();
  std::printf(
      "\n(|Ti| grows with n: e.g. T1 sizes differ per dataset as in the "
      "paper's discussion of Fig. 11.)\n");
  return 0;
}
