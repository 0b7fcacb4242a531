// Property suite: reordering is result-preserving for every algorithm.
//
// On randomized graphs, each algorithm runs once on the native layout and
// once per reordering strategy through the ReorderedGraph facade; the
// returned paths must have identical lengths AND identical node sequences
// in original ids (the facade translates internally). GKPJ queries are
// included: their virtual source is a pseudo-tree root, not a node id, so
// only the real sources are translated.
//
// Weights are drawn from a wide range so that top-k path sets are free of
// ties with overwhelming probability — with ties, different layouts could
// legitimately return different (equally short) k-th paths and the
// node-sequence comparison would be meaningless.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/kpj.h"
#include "core/kpj_instance.h"
#include "graph/graph_builder.h"
#include "graph/reorder.h"
#include "index/landmark_index.h"
#include "util/rng.h"

namespace kpj {
namespace {

Graph WideWeightRandomGraph(Rng& rng, NodeId n, double p, bool bidir) {
  GraphBuilder builder(n);
  builder.EnsureNode(n - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = bidir ? u + 1 : 0; v < n; ++v) {
      if (u == v || !rng.NextBool(p)) continue;
      Weight w = static_cast<Weight>(rng.NextInRange(1, 1'000'000));
      if (bidir) {
        builder.AddBidirectional(u, v, w);
      } else {
        builder.AddEdge(u, v, w);
      }
    }
  }
  return builder.Build();
}

/// (length, node sequence) pairs, sorted — the comparison key for "same
/// result set" that is robust to equal-length reshuffles.
std::vector<std::pair<PathLength, std::vector<NodeId>>> Profile(
    const std::vector<Path>& paths) {
  std::vector<std::pair<PathLength, std::vector<NodeId>>> out;
  out.reserve(paths.size());
  for (const Path& p : paths) {
    out.emplace_back(p.length,
                     std::vector<NodeId>(p.nodes.begin(), p.nodes.end()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class ReorderPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReorderPropertyTest, AllAlgorithmsInvariantUnderReordering) {
  const uint64_t master_seed = GetParam();
  Rng rng(master_seed);

  const NodeId n = static_cast<NodeId>(rng.NextInRange(8, 40));
  const double p = 0.08 + rng.NextDouble() * 0.22;
  const bool bidir = rng.NextBool(0.5);
  const bool gkpj = master_seed % 3 == 0;
  const uint32_t k = static_cast<uint32_t>(rng.NextInRange(1, 12));

  Graph graph = WideWeightRandomGraph(rng, n, p, bidir);
  Graph reverse = graph.Reverse();
  LandmarkIndexOptions lopt;
  lopt.num_landmarks = 4;
  lopt.seed = master_seed ^ 0x5eed;
  LandmarkIndex landmarks = LandmarkIndex::Build(graph, reverse, lopt);
  Result<KpjInstance> identity = KpjInstance::Wrap(graph, Permutation());
  ASSERT_TRUE(identity.ok());

  KpjQuery query;
  const uint32_t num_sources =
      gkpj ? static_cast<uint32_t>(rng.NextInRange(2, 3)) : 1;
  const uint32_t num_targets =
      static_cast<uint32_t>(rng.NextInRange(1, std::min<NodeId>(5, n - 3)));
  // Disjoint draw so GKPJ's V_S ∩ V_T = ∅ requirement holds.
  std::vector<uint64_t> drawn =
      rng.SampleDistinct(num_sources + num_targets, n);
  for (uint32_t i = 0; i < num_sources; ++i) {
    query.sources.push_back(static_cast<NodeId>(drawn[i]));
  }
  for (uint32_t i = num_sources; i < drawn.size(); ++i) {
    query.targets.push_back(static_cast<NodeId>(drawn[i]));
  }
  query.k = k;

  for (Algorithm algorithm : kAllAlgorithms) {
    KpjOptions options;
    options.algorithm = algorithm;
    options.oracle = &landmarks;
    Result<KpjResult> baseline = RunKpj(identity.value(), query, options);
    ASSERT_TRUE(baseline.ok())
        << AlgorithmName(algorithm) << ": " << baseline.status().ToString();
    auto expected = Profile(baseline.value().paths);

    for (ReorderStrategy strategy : kAllReorderStrategies) {
      if (strategy == ReorderStrategy::kNone) continue;
      SCOPED_TRACE(::testing::Message()
                   << "algorithm=" << AlgorithmName(algorithm) << " strategy="
                   << ReorderStrategyName(strategy) << " seed=" << master_seed
                   << " n=" << n << " gkpj=" << gkpj << " k=" << k);

      Result<KpjInstance> reordered = KpjInstance::Make(graph, strategy);
      ASSERT_TRUE(reordered.ok());
      LandmarkIndex remapped =
          landmarks.Remap(reordered.value().permutation());
      KpjOptions reordered_options = options;
      reordered_options.oracle = &remapped;

      Result<KpjResult> result =
          RunKpj(reordered.value(), query, reordered_options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      // Paths come back in original ids: profiles must match exactly.
      EXPECT_EQ(Profile(result.value().paths), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderPropertyTest,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace kpj
