// Fig. 13: GKPJ queries (source category of 4 random physical nodes, §6)
// on COL — DA-SPT (state of the art) vs IterBound_I.
//   (a) vary destination set T1..T4 at k = 20;
//   (b) vary k in {10, 20, 30, 50} at T = T2.
//
// Paper finding: IterBound_I wins by about two orders of magnitude; both
// get faster with more destinations, and k-shortest paths are shorter
// with multiple sources.
//
// Each query is timed end to end through RunKpjOnInstance on a
// KpjInstance, with one reused solver as an engine worker has: the solver
// roots the query at a virtual source seeded from the 4 sources, on the
// instance's own graphs, so nothing is left out of the measurement.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

int main() {
  using namespace kpj;
  using namespace kpj::bench;
  HarnessOptions harness = HarnessFromEnv();

  Dataset ds = BuildDataset(DatasetId::kCOL, harness, /*california=*/false);
  KpjInstance instance = KpjInstance::Wrap(ds.graph, Permutation()).value();
  KPJ_CHECK(instance.AttachLandmarks(ds.landmarks).ok());
  const Algorithm algorithms[] = {Algorithm::kDaSpt,
                                  Algorithm::kIterBoundSptI};
  const uint32_t kNumSources = 4;

  // --- (a) vary |T| --------------------------------------------------------
  std::vector<std::string> columns;
  for (int i = 0; i < 4; ++i) {
    columns.push_back("|T" + std::to_string(i + 1) + "|=" +
                      std::to_string(ds.categories.Size(ds.nested.t[i])));
  }
  Table table_a("Fig. 13(a): COL GKPJ (|S|=4), vary destination set, k=20, ms",
                columns);
  for (Algorithm a : algorithms) {
    std::vector<double> row;
    for (int i = 0; i < 4; ++i) {
      row.push_back(MeanGkpjQueryMillis(instance, a, kNumSources,
                                        harness.queries_per_set,
                                        ds.Targets(ds.nested.t[i]), 20,
                                        /*seed=*/555 + i));
    }
    table_a.AddRow(AlgorithmName(a), row);
  }
  table_a.Print();

  // --- (b) vary k ----------------------------------------------------------
  const uint32_t kValues[] = {10, 20, 30, 50};
  Table table_b("Fig. 13(b): COL GKPJ (|S|=4), T=T2, vary k, ms",
                KColumns(kValues));
  for (Algorithm a : algorithms) {
    std::vector<double> row;
    for (uint32_t k : kValues) {
      row.push_back(MeanGkpjQueryMillis(instance, a, kNumSources,
                                        harness.queries_per_set,
                                        ds.Targets(ds.nested.t[1]), k,
                                        /*seed=*/606));
    }
    table_b.AddRow(AlgorithmName(a), row);
  }
  table_b.Print();
  return 0;
}
