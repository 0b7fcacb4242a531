#ifndef KPJ_CORE_METRICS_H_
#define KPJ_CORE_METRICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/instrumentation.h"
#include "core/planner.h"
#include "util/stats.h"

namespace kpj {

// The types the metric registry (core/metrics.def) is expanded into. The
// registry names every metric once; this header turns it into the
// snapshot struct, the owners' live counters, and one exposition writer
// shared by KpjEngine and KpjServer.

enum class MetricOwner { kAlgo, kEngine, kCache, kServer };
enum class MetricKind { kCounter, kGauge, kHistogram, kByAlgorithm };

/// One registry line.
struct MetricInfo {
  MetricOwner owner;
  MetricKind kind;
  const char* field;
  const char* json;
  const char* prom;
  const char* help;
};

/// The Prometheus family name: the declared one, else kpj_<field> (+
/// `_total` for counters).
std::string PromName(const MetricInfo& metric);

/// The JSON keys of one entry, in exposition order: one for counters and
/// gauges, one per summary for histograms (`prefix_{a,b}` lists them),
/// and one per algorithm plus `<json>_total` for ByAlgorithm counters.
std::vector<std::string> JsonKeys(const MetricInfo& metric);

using AlgorithmCounts = std::array<uint64_t, kNumPlannableAlgorithms>;

/// Point-in-time copy of a LatencyHistogram.
struct HistogramSnapshot {
  std::array<uint64_t, LatencyHistogram::kBuckets> buckets{};
  uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

HistogramSnapshot SnapshotOf(const LatencyHistogram& histogram);

/// The live slot of an entry nothing counts into: a gauge (sampled when
/// the snapshot is taken) or another owner's entry.
struct NotCounted {};

/// Per kind: the live type an owner counts into, and the snapshot value.
template <MetricKind K>
struct MetricTypes;
template <>
struct MetricTypes<MetricKind::kCounter> {
  using Live = Counter;
  using Value = uint64_t;
};
template <>
struct MetricTypes<MetricKind::kGauge> {
  using Live = NotCounted;
  using Value = double;
};
template <>
struct MetricTypes<MetricKind::kHistogram> {
  using Live = LatencyHistogram;
  using Value = HistogramSnapshot;
};
template <>
struct MetricTypes<MetricKind::kByAlgorithm> {
  using Live = std::array<Counter, kNumPlannableAlgorithms>;
  using Value = AlgorithmCounts;
};

/// Point-in-time copy of every metric, for the engine (server entries stay
/// zero) or for kpjd (the server fills its own entries in on top). Counts
/// are sums over all workers since construction or the last ResetMetrics.
struct EngineMetricsSnapshot {
  /// The AlgoStats entries: exact integer sums, identical for the same
  /// workload at any worker count.
  AlgoStats algo;
  /// The same sums split by the solver that ran (PlannerIndex order);
  /// ByAlgorithm AlgoStats entries are exposed from these.
  std::array<AlgoStats, kNumPlannableAlgorithms> algo_by_algorithm{};
#define KPJ_METRIC(owner, kind, field, json, prom, help) \
  typename MetricTypes<MetricKind::k##kind>::Value field{};
#define KPJ_ALGO_METRIC(kind, field, json, prom, help)
#include "core/metrics.def"
};

/// The live counters and histograms one owner keeps: a member per registry
/// entry, of the kind's live type for the owner's own entries and
/// NotCounted otherwise. Counting code names the members directly
/// (`metrics_.queries_served.Increment()`).
template <MetricOwner O>
struct LiveMetrics {
#define KPJ_METRIC(owner, kind, field, json, prom, help)              \
  std::conditional_t<MetricOwner::k##owner == O,                      \
                     typename MetricTypes<MetricKind::k##kind>::Live, \
                     NotCounted>                                      \
      field;
#define KPJ_ALGO_METRIC(kind, field, json, prom, help)
#include "core/metrics.def"

  /// Copies every owned counter and histogram into `snapshot`.
  void ReadInto(EngineMetricsSnapshot* snapshot) const;
  /// Zeroes every owned counter and histogram.
  void Reset();
};

namespace metrics_internal {

/// An AlgoStats entry's value: the total, or one count per solver.
template <MetricKind K>
auto AlgoValue(const EngineMetricsSnapshot& s, uint64_t AlgoStats::*field) {
  if constexpr (K == MetricKind::kByAlgorithm) {
    AlgorithmCounts counts{};
    for (size_t a = 0; a < counts.size(); ++a) {
      counts[a] = s.algo_by_algorithm[a].*field;
    }
    return counts;
  } else {
    static_assert(K == MetricKind::kCounter);
    return s.algo.*field;
  }
}

}  // namespace metrics_internal

/// Calls `visit(info, value)` for every registry entry, in declaration
/// order; the value's type follows the kind (uint64_t, double,
/// HistogramSnapshot, AlgorithmCounts).
template <class Visitor>
void ForEachMetric(const EngineMetricsSnapshot& s, Visitor&& visit) {
#define KPJ_METRIC(owner, kind, field, json, prom, help)                \
  visit(MetricInfo{MetricOwner::k##owner, MetricKind::k##kind, #field, \
                   json, prom, help},                                  \
        s.field);
#define KPJ_ALGO_METRIC(kind, field, json, prom, help)                   \
  visit(MetricInfo{MetricOwner::kAlgo, MetricKind::k##kind, #field, json, \
                   prom, help},                                          \
        metrics_internal::AlgoValue<MetricKind::k##kind>(                \
            s, &AlgoStats::field));
#include "core/metrics.def"
}

/// The expositions. Server-owned entries are included only when
/// `with_server` (kpjd); everything else is always present.
std::string WriteMetricsJson(const EngineMetricsSnapshot& s,
                             bool with_server);
std::string WriteMetricsPrometheus(const EngineMetricsSnapshot& s,
                                   bool with_server);

}  // namespace kpj

#endif  // KPJ_CORE_METRICS_H_
