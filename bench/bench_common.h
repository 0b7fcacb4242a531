#ifndef KPJ_BENCH_BENCH_COMMON_H_
#define KPJ_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/kpj.h"
#include "core/kpj_instance.h"
#include "gen/datasets.h"
#include "gen/query_gen.h"
#include "util/stats.h"

namespace kpj::bench {

/// Harness knobs, read once from the environment:
///  * KPJ_BENCH_FULL=1     — paper-scale dataset sizes (USA at 6.2M nodes).
///  * KPJ_BENCH_QUERIES=N  — queries per (query set, config) cell; the
///                           paper uses 100, the default here is 5 so the
///                           whole `for b in bench/*` sweep stays quick.
struct HarnessOptions {
  bool full_scale = false;
  size_t queries_per_set = 5;
};

HarnessOptions HarnessFromEnv();

/// Builds a dataset with progress logging; `california` adds the CAL POI
/// categories.
Dataset BuildDataset(DatasetId id, const HarnessOptions& harness,
                     bool california, uint32_t num_landmarks = 16,
                     uint32_t override_nodes = 0);

/// Mean per-query processing time (ms) of `algorithm` over `sources`
/// against fixed targets, mirroring the paper's measurement (query
/// processing only; the offline landmark index is excluded, per-query
/// online structures like DA-SPT's full tree are included).
double MeanQueryMillis(const Dataset& dataset, Algorithm algorithm,
                       std::span<const NodeId> sources,
                       const std::vector<NodeId>& targets, uint32_t k,
                       double alpha = 1.1,
                       const LandmarkIndex* landmarks_override = nullptr);

/// GKPJ variant: each "query" draws its own random source set of
/// `num_sources` nodes (seeded deterministically), as in §7 Eval-V, and is
/// timed end to end through RunKpjOnInstance on `instance` (its landmarks,
/// if attached) with one reused solver: id translation, validation and
/// search, nothing excluded.
double MeanGkpjQueryMillis(const KpjInstance& instance, Algorithm algorithm,
                           uint32_t num_sources, size_t num_queries,
                           const std::vector<NodeId>& targets, uint32_t k,
                           uint64_t seed);

/// Fixed-width table printer for figure reproductions. When the
/// KPJ_BENCH_CSV environment variable names a file, every printed table is
/// also appended there in CSV form (one header line per table) for
/// plotting.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  void AddRow(const std::string& label, const std::vector<double>& values);
  /// Renders to stdout. Values print with 3 significant decimals.
  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::pair<std::string, std::vector<double>>> rows_;
};

/// Convenience: "Q1".."Q5" column headers / k-value headers.
std::vector<std::string> QuerySetColumns();
std::vector<std::string> KColumns(std::span<const uint32_t> ks);

/// The algorithms in the order the paper's figures list them.
std::span<const Algorithm> BaselineFigureAlgorithms();  // all 7
std::span<const Algorithm> OurApproachAlgorithms();     // the 4 of Fig. 9/10

}  // namespace kpj::bench

#endif  // KPJ_BENCH_BENCH_COMMON_H_
