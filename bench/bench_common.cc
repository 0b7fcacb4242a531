#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/solver.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace kpj::bench {

HarnessOptions HarnessFromEnv() {
  HarnessOptions out;
  out.full_scale = BenchFullScaleFromEnv();
  if (const char* env = std::getenv("KPJ_BENCH_QUERIES"); env != nullptr) {
    int v = std::atoi(env);
    if (v > 0) out.queries_per_set = static_cast<size_t>(v);
  }
  return out;
}

Dataset BuildDataset(DatasetId id, const HarnessOptions& harness,
                     bool california, uint32_t num_landmarks,
                     uint32_t override_nodes) {
  Timer timer;
  DatasetOptions opt;
  opt.full_scale = harness.full_scale;
  opt.override_nodes = override_nodes;
  opt.num_landmarks = num_landmarks;
  opt.california_pois = california;
  Dataset ds = MakeDataset(id, opt);
  std::fprintf(stderr,
               "[bench] dataset %s: %u nodes, %u arcs, |L|=%u (%.1f s)\n",
               ds.name.c_str(), ds.graph.NumNodes(), ds.graph.NumEdges(),
               ds.landmarks.num_landmarks(), timer.ElapsedSeconds());
  return ds;
}

double MeanQueryMillis(const Dataset& dataset, Algorithm algorithm,
                       std::span<const NodeId> sources,
                       const std::vector<NodeId>& targets, uint32_t k,
                       double alpha, const LandmarkIndex* landmarks_override) {
  KPJ_CHECK(!sources.empty());
  KpjOptions options;
  options.algorithm = algorithm;
  options.alpha = alpha;
  if (landmarks_override != nullptr) {
    options.oracle = landmarks_override;
  } else {
    options.oracle =
        dataset.landmarks.num_landmarks() > 0 ? &dataset.landmarks : nullptr;
  }
  std::unique_ptr<KpjSolver> solver =
      MakeSolver(dataset.graph, dataset.reverse, options);

  auto run_one = [&](NodeId source) -> double {
    KpjQuery query;
    query.sources = {source};
    query.targets = targets;
    query.k = k;
    Result<PreparedQuery> prepared = PrepareQuery(dataset.graph, query);
    KPJ_CHECK(prepared.ok()) << prepared.status().ToString();
    Timer timer;
    KpjResult result = solver->Run(prepared.value());
    double ms = timer.ElapsedMillis();
    KPJ_CHECK(!result.paths.empty()) << "query returned no paths";
    return ms;
  };

  run_one(sources[0]);  // Warm-up (page faults, branch predictors).
  Sample sample;
  for (NodeId source : sources) sample.Add(run_one(source));
  return sample.Mean();
}

double MeanGkpjQueryMillis(const KpjInstance& instance, Algorithm algorithm,
                           uint32_t num_sources, size_t num_queries,
                           const std::vector<NodeId>& targets, uint32_t k,
                           uint64_t seed) {
  Rng rng(seed);
  KpjOptions options;
  options.algorithm = algorithm;  // Landmarks: the instance's, if attached.
  // One solver serves every query, as an engine worker's pooled solver
  // does (and as MeanQueryMillis reuses one for KPJ): its O(n) workspaces
  // are allocated once, not per query.
  std::unique_ptr<KpjSolver> solver = MakeSolver(instance, options);
  EpochSet target_set(instance.NumNodes());
  for (NodeId t : targets) target_set.Insert(t);

  Sample sample;
  for (size_t i = 0; i <= num_queries; ++i) {
    // Draw a source set disjoint from the targets.
    KpjQuery query;
    while (query.sources.size() < num_sources) {
      NodeId s = static_cast<NodeId>(rng.NextBounded(instance.NumNodes()));
      if (target_set.Contains(s)) continue;
      if (std::find(query.sources.begin(), query.sources.end(), s) !=
          query.sources.end()) {
        continue;
      }
      query.sources.push_back(s);
    }
    query.targets = targets;
    query.k = k;

    Timer timer;
    Result<KpjResult> result = RunKpjOnInstance(
        instance, query, options, solver.get(), /*cancel=*/nullptr);
    double ms = timer.ElapsedMillis();
    KPJ_CHECK(result.ok()) << result.status().ToString();
    KPJ_CHECK(!result.value().paths.empty());
    if (i > 0) sample.Add(ms);  // First draw is warm-up.
  }
  return sample.Mean();
}

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::AddRow(const std::string& label,
                   const std::vector<double>& values) {
  KPJ_CHECK(values.size() == columns_.size());
  rows_.emplace_back(label, values);
}

void Table::Print() const {
  std::printf("\n=== %s ===\n", title_.c_str());
  std::printf("%-16s", "");
  for (const std::string& c : columns_) std::printf("%12s", c.c_str());
  std::printf("\n");
  for (const auto& [label, values] : rows_) {
    std::printf("%-16s", label.c_str());
    for (double v : values) std::printf("%12.3f", v);
    std::printf("\n");
  }
  std::fflush(stdout);

  if (const char* csv_path = std::getenv("KPJ_BENCH_CSV");
      csv_path != nullptr && csv_path[0] != '\0') {
    std::FILE* csv = std::fopen(csv_path, "a");
    if (csv == nullptr) {
      std::fprintf(stderr, "[bench] cannot append CSV to %s\n", csv_path);
      return;
    }
    std::fprintf(csv, "# %s\nseries", title_.c_str());
    for (const std::string& c : columns_) std::fprintf(csv, ",%s", c.c_str());
    std::fprintf(csv, "\n");
    for (const auto& [label, values] : rows_) {
      std::fprintf(csv, "%s", label.c_str());
      for (double v : values) std::fprintf(csv, ",%.6f", v);
      std::fprintf(csv, "\n");
    }
    std::fclose(csv);
  }
}

std::vector<std::string> QuerySetColumns() {
  return {"Q1", "Q2", "Q3", "Q4", "Q5"};
}

std::vector<std::string> KColumns(std::span<const uint32_t> ks) {
  std::vector<std::string> out;
  for (uint32_t k : ks) out.push_back("k=" + std::to_string(k));
  return out;
}

std::span<const Algorithm> BaselineFigureAlgorithms() {
  return kAllAlgorithms;
}

std::span<const Algorithm> OurApproachAlgorithms() {
  static constexpr Algorithm kOurs[] = {
      Algorithm::kBestFirst, Algorithm::kIterBound,
      Algorithm::kIterBoundSptP, Algorithm::kIterBoundSptI};
  return kOurs;
}

}  // namespace kpj::bench
