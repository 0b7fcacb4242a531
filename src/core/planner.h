#ifndef KPJ_CORE_PLANNER_H_
#define KPJ_CORE_PLANNER_H_

#include <array>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <vector>

#include "core/kpj_instance.h"
#include "core/kpj_query.h"
#include "core/spt_cache.h"

namespace kpj {

/// Number of concrete solvers the planner can choose between (the seven
/// paper algorithms; Algorithm::kAuto is the sentinel that engages the
/// planner and is never itself a choice).
inline constexpr size_t kNumPlannableAlgorithms = std::size(kAllAlgorithms);

/// Index of a concrete algorithm into the planner's per-algorithm arrays.
inline constexpr size_t PlannerIndex(Algorithm a) {
  return static_cast<size_t>(a);
}

/// The planner's rolling per-algorithm latency profile plus the rolling
/// lower-bound distance scale. All values are integers (fixed-point ×16)
/// so updates are exact and snapshots byte-stable: the same sequence of
/// RecordLatency calls always yields the same profile.
///
/// `latency_ewma_x16us[i]` is an exponentially weighted moving average of
/// the observed per-query wall time of algorithm i, in microseconds ×16.
/// Before any observation it holds the static prior (BENCH_cache /
/// BENCH_engine orderings: IterBound_I fastest cold, DA slowest), so the
/// cold-path argmin is meaningful from the first query.
struct PlannerProfile {
  std::array<uint64_t, kNumPlannableAlgorithms> latency_ewma_x16us;
  std::array<uint64_t, kNumPlannableAlgorithms> samples;
  /// DA-SPT when its reverse target-SPT is already resident is a different
  /// cost regime from DA-SPT cold (no tree build), so resident-mode samples
  /// feed this separate EWMA. The residency rules compare it against the
  /// best forward algorithm instead of trusting residency unconditionally:
  /// on instances where the forward solvers beat even a resident DA-SPT,
  /// the planner measures that once and stops routing to DA-SPT.
  uint64_t dasp_resident_ewma_x16us = 0;
  uint64_t dasp_resident_samples = 0;
  /// The static priors are *relative* costs — their absolute scale is
  /// arbitrary, and on a large instance real per-query costs can sit two
  /// orders of magnitude above them. This rolling EWMA of
  /// observed_latency / static_prior (fixed-point ×256) re-anchors every
  /// still-unmeasured prior to the instance's real magnitude, so the cold
  /// argmin never has to burn a query on each candidate just to learn the
  /// scale (the naive walk measured ~3.7x of the whole workload's best
  /// fixed time in BENCH_planner).
  uint64_t scale_x256 = 256;
  /// Rolling mean of the oracle lower bound dist(source, V_T) observed at
  /// planning time (PathLength units ×16); drives the distance quintile.
  uint64_t lb_scale_x16 = 0;
  uint64_t lb_samples = 0;

  /// The static prior: relative cold-query cost ordering measured on the
  /// repo's own benches. Absolute values only matter relative to each
  /// other; online samples displace them at 1/8 weight per observation.
  static PlannerProfile StaticPrior();

  bool operator==(const PlannerProfile&) const = default;
};

/// One planning decision: which solver runs this query and why. `reason`
/// is a static string from a fixed vocabulary (wire/log friendly, never
/// owned).
struct PlannerDecision {
  Algorithm algorithm = Algorithm::kIterBoundSptI;
  const char* reason = "";
  /// True when the decision adopted a resident reverse target-SPT; the
  /// engine passes it back into RecordLatency so the sample lands in the
  /// resident-mode EWMA rather than the cold one.
  bool resident = false;
  /// Fingerprint of the query's canonical target set (0 when none was
  /// computed — cache-less engines). The engine passes it back
  /// into RecordLatency so the measured latency also lands in the
  /// shape-conditioned recurrence slot.
  uint64_t shape_fp = 0;
};

struct PlannerOptions {
  /// PRNG seed for the epsilon-greedy exploration arm. The sequence is a
  /// pure function of (seed, decision index), so a single-threaded replay
  /// of the same query stream explores at the same points.
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  /// Explore on one decision in `explore_one_in` (epsilon = 1/N); 0
  /// (the default) disables exploration. When enabled, exploration only
  /// picks among candidates whose profiled latency is within 4x of the
  /// best, and only on queries whose features predict a typical cost
  /// (near/middle distance quintile, k below `large_k`). It still defaults
  /// off: per-query costs are heavy-tailed enough that one explore can
  /// cost more than its measurement informs (BENCH_planner), and the
  /// scale-anchored priors already let the greedy argmin self-correct —
  /// an algorithm is re-tried exactly when the incumbent's EWMA drifts
  /// above its estimate.
  uint32_t explore_one_in = 0;
  /// k at or above which DA-SPT's per-deviation enumeration cost dominates
  /// any tree reuse (BENCH_planner: ~19x slower than IterBound_I at k=96
  /// even with the reverse SPT resident). At or above this the residency
  /// and repeat rules never route to DA-SPT, and exploration is disabled.
  uint32_t large_k = 64;
  /// Target-set size at or above which a query is treated as the paper's
  /// category join (all POIs of one category) and routed to DA-SPT on
  /// first sight — the reverse tree it builds is keyed by the category
  /// alone, so the very first query seeds the cache for every source that
  /// follows. Subject to the same profile/k gates as the residency rules.
  uint32_t category_targets = 32;
  /// Pinned mode freezes the profile and the repeat-set table: Plan()
  /// becomes a pure function of the query features, so choices are
  /// identical at any (workers, intra_threads, cache) point. Used by the
  /// determinism tests; RecordLatency becomes a no-op.
  bool pinned = false;
};

/// Per-query algorithm planner behind `--algorithm=auto`.
///
/// The cost model reads only cheap observables — k, |V_T|, whether
/// landmarks are attached, side-effect-free SPT-cache residency probes,
/// the landmark distance quintile of the source, and the rolling
/// per-algorithm latency profile — and never looks at the answer, so the
/// choice can only change *which* solver produces the (byte-identical)
/// paths, never the paths.
///
/// Decision ladder, first match wins. KPJ and GKPJ climb the same ladder:
/// the caches key on the canonical source set.
///  1. Reverse target-SPT resident (DA-SPT's key: targets only) and k
///     below large_k → paired per-shape measurement: run DA-SPT once to
///     measure the resident path, run the best forward algorithm once to
///     measure the alternative, then commit to whichever measured faster
///     *for this target set* (the winner's estimate keeps updating, so
///     the choice can still flip later). Residency is evidence the tree
///     build is paid off, not a verdict: on instances where forward
///     solvers beat even a resident DA-SPT, the pair of measurements
///     routes past the tree.
///  2. Forward SPT_I snapshot resident for this (sources, targets) →
///     IterBound_I (the variant matching the oracle config).
///  3. Category-sized target set (|V_T| >= category_targets) or a target
///     set seen repeatedly, no tree resident yet, same k/profile gates as
///     rule 1 → DA-SPT once, deliberately paying the full SPT to seed the
///     cache for the repeats the shape predicts (the paper's join:
///     category target sets recur across sources). The seed's cost lands
///     in the cold DA-SPT EWMA; the repeats it enables land in the
///     resident one.
///  4. Cold → the EWMA argmin of the cold candidate set, optionally
///     epsilon-greedy (1/explore_one_in, off by default; only on
///     typical-cost queries: quintile <= 2, k < large_k, and only among
///     candidates within 4x of the best).
///
/// Thread safety: Plan and RecordLatency are internally synchronized. In
/// live mode concurrent workers may interleave profile updates in timing
/// order (choices can differ run to run; answers cannot); pinned mode is
/// read-only and therefore schedule-independent.
class QueryPlanner {
 public:
  QueryPlanner(const KpjInstance& instance, const KpjOptions& base,
               PlannerOptions options = {});

  /// Picks the solver for `query` (original ids). `cache` may be null
  /// (cache-less engines still get the cost model minus the probes);
  /// `epoch` is the instance mutation epoch the engine stamped into its
  /// QueryCacheContext, so probe keys match solver keys exactly.
  PlannerDecision Plan(const KpjQuery& query, const SptCache* cache,
                       uint64_t epoch);

  /// Feeds one observed per-query wall time into the rolling profile.
  /// `resident` and `shape_fp` come from the PlannerDecision that ran the
  /// query: resident DA-SPT samples update the resident-mode EWMA instead
  /// of the cold one, and a non-zero shape fingerprint additionally files
  /// the sample into that recurrence slot's per-shape estimate (DA-SPT
  /// resident vs forward). No-op in pinned mode.
  void RecordLatency(Algorithm algorithm, bool resident, uint64_t shape_fp,
                     double elapsed_ms);

  PlannerProfile ProfileSnapshot() const;

  /// Replaces the profile and freezes it (sets pinned mode). With a
  /// pinned profile, Plan() is a pure function of the query features.
  void PinProfile(const PlannerProfile& profile);

  const PlannerOptions& options() const { return options_; }

 private:
  /// Distance quintile (0 = nearest .. 4 = farthest) of `lb` against the
  /// rolling scale; 2 (neutral) while the scale has no samples.
  static int Quintile(uint64_t lb_x16, uint64_t scale_x16);

  /// Profile latency estimate for `a`: the live EWMA once a sample exists,
  /// otherwise the static prior re-anchored by the learned scale.
  uint64_t Effective(Algorithm a) const;

  /// Cold-path candidate algorithms under the current oracle config.
  std::vector<Algorithm> ColdCandidates() const;

  const KpjInstance& instance_;
  KpjOptions base_;  ///< Oracle-resolved solver knobs (algorithm ignored).
  PlannerOptions options_;

  /// Fixed-size direct-mapped recurrence table over target-set
  /// fingerprints: detects the paper's join shape (same category queried
  /// from many sources) before any tree is cached, and — once one is —
  /// holds the paired per-shape latency estimates the residency rule
  /// arbitrates with. A global per-algorithm EWMA cannot arbitrate this:
  /// it averages over shapes, and a forward solver that is cheap on small
  /// ad-hoc queries can be 3x slower than a resident DA-SPT on the very
  /// category the decision is about (and vice versa on another instance).
  struct RepeatSlot {
    uint64_t fingerprint = 0;
    uint32_t count = 0;
    /// EWMA of measured latency for queries of this shape run on DA-SPT
    /// with its tree resident; 0 = not yet measured.
    uint64_t dasp_x16us = 0;
    /// EWMA of measured latency for queries of this shape run on any
    /// forward algorithm; 0 = not yet measured.
    uint64_t fwd_x16us = 0;
  };
  static constexpr size_t kRepeatSlots = 256;

  mutable std::mutex mu_;
  PlannerProfile profile_;
  std::array<RepeatSlot, kRepeatSlots> repeats_{};
  uint64_t decisions_ = 0;  ///< Exploration PRNG stream index.
};

}  // namespace kpj

#endif  // KPJ_CORE_PLANNER_H_
