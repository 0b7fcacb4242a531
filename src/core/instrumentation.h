#ifndef KPJ_CORE_INSTRUMENTATION_H_
#define KPJ_CORE_INSTRUMENTATION_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>

#include "util/stats.h"

namespace kpj {

/// Per-query algorithm counters, threaded through the solvers and the
/// sssp searches via a nullable pointer — when the pointer is null the
/// searches skip all counting, so uninstrumented callers pay nothing.
///
/// All fields are unsigned integers on purpose: the engine sums them across
/// workers and the result must be byte-identical regardless of thread count
/// or accumulation order, which floating-point sums cannot guarantee.
/// Lower-bound tightness is therefore kept as an integer ratio
/// (`lb_tightness_num / lb_tightness_den`) instead of a running double.
struct AlgoStats {
  // One uint64_t per KPJ_ALGO_METRIC line, documented there.
#define KPJ_ALGO_METRIC(kind, field, json, prom, help) uint64_t field = 0;
#include "core/metrics.def"

  void Reset() { *this = AlgoStats(); }

  /// Field-wise sum, used for cross-worker aggregation.
  void Accumulate(const AlgoStats& other) {
#define KPJ_ALGO_METRIC(kind, field, json, prom, help) field += other.field;
#include "core/metrics.def"
  }

  /// Mean ratio of lower bound to exact subspace length, in [0, 1].
  /// Returns 0 when no bound was ever confirmed against an exact length.
  double LowerBoundTightness() const {
    if (lb_tightness_den == 0) return 0.0;
    return static_cast<double>(lb_tightness_num) /
           static_cast<double>(lb_tightness_den);
  }

  bool operator==(const AlgoStats&) const = default;
};

/// Every AlgoStats field, in declaration order.
inline constexpr uint64_t AlgoStats::*kAlgoStatsFields[] = {
#define KPJ_ALGO_METRIC(kind, field, json, prom, help) &AlgoStats::field,
#include "core/metrics.def"
};

/// Thread-safe accumulator of AlgoStats: one relaxed Counter per field.
/// The engine adds each finished query's counters here; Snapshot() yields
/// a plain AlgoStats whose values are exact sums (integer addition is
/// order-independent, so snapshots are identical across worker counts).
class AtomicAlgoStats {
 public:
  void Add(const AlgoStats& s) {
    for (size_t i = 0; i < counters_.size(); ++i) {
      counters_[i].Add(s.*kAlgoStatsFields[i]);
    }
  }

  AlgoStats Snapshot() const {
    AlgoStats s;
    for (size_t i = 0; i < counters_.size(); ++i) {
      s.*kAlgoStatsFields[i] = counters_[i].value();
    }
    return s;
  }

  void Reset() {
    for (Counter& c : counters_) c.Reset();
  }

 private:
  std::array<Counter, std::size(kAlgoStatsFields)> counters_;
};

}  // namespace kpj

#endif  // KPJ_CORE_INSTRUMENTATION_H_
