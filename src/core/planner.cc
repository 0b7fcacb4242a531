#include "core/planner.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace kpj {
namespace {

/// EWMA weight: new = old + (sample - old) / 8. Integer arithmetic on the
/// ×16 fixed-point values keeps the profile byte-stable across replays.
constexpr uint64_t kEwmaShift = 3;

uint64_t EwmaUpdate(uint64_t old_x16, uint64_t sample_x16) {
  if (old_x16 == 0) return sample_x16;
  // Signed step so the average can move down as well as up.
  int64_t step = (static_cast<int64_t>(sample_x16) -
                  static_cast<int64_t>(old_x16)) >>
                 kEwmaShift;
  int64_t next = static_cast<int64_t>(old_x16) + step;
  return next > 0 ? static_cast<uint64_t>(next) : 1;
}

/// Relative cold-query cost priors, microseconds ×16 (ordering measured on
/// the repo's own benches; see PlannerProfile::StaticPrior). Indexed by
/// PlannerIndex. The absolute scale is arbitrary — PlannerProfile::scale_x256
/// re-anchors it to the instance online.
constexpr uint64_t kStaticPriorX16[kNumPlannableAlgorithms] = {
    /* kDA */ 6400 * 16,
    /* kDaSpt */ 3200 * 16,
    /* kBestFirst */ 2400 * 16,
    /* kIterBound */ 1200 * 16,
    /* kIterBoundSptP */ 1000 * 16,
    /* kIterBoundSptI */ 400 * 16,
    /* kIterBoundSptINoLm */ 600 * 16,
};

/// Resident-mode DA-SPT prior (below the fastest forward prior, so the
/// first resident opportunity is taken and immediately measured).
constexpr uint64_t kDaSptResidentPriorX16 = 250 * 16;

/// FNV-1a over the canonical target list + epoch; only used to pick a
/// recurrence slot, never to prove identity of a cache entry.
uint64_t FingerprintTargets(const std::vector<NodeId>& targets,
                            uint64_t epoch) {
  uint64_t h = 14695981039346656037ull ^ (epoch * 1099511628211ull);
  for (NodeId t : targets) {
    h = (h ^ t) * 1099511628211ull;
  }
  return h == 0 ? 1 : h;  // 0 marks an empty slot.
}

}  // namespace

PlannerProfile PlannerProfile::StaticPrior() {
  PlannerProfile p;
  p.samples.fill(0);
  // Relative cold-query cost prior, in microseconds ×16. Absolute scale is
  // arbitrary; the ordering reflects the repo's bench data (BENCH_engine /
  // BENCH_cache): IterBound_I fastest cold, the SPT_P/IterBound variants
  // close behind, DA-SPT paying its full reverse SPT, DA slowest.
  for (Algorithm a : kAllAlgorithms) {
    p.latency_ewma_x16us[PlannerIndex(a)] = kStaticPriorX16[PlannerIndex(a)];
  }
  // Optimistic resident-mode prior (below the fastest forward prior): the
  // first resident opportunity is taken, and the measurement it produces
  // immediately starts correcting the estimate.
  p.dasp_resident_ewma_x16us = kDaSptResidentPriorX16;
  return p;
}

QueryPlanner::QueryPlanner(const KpjInstance& instance,
                           const KpjOptions& base, PlannerOptions options)
    : instance_(instance),
      base_(ResolveOptions(instance, base)),
      options_(options),
      profile_(PlannerProfile::StaticPrior()) {}

uint64_t QueryPlanner::Effective(Algorithm a) const {
  size_t index = PlannerIndex(a);
  if (profile_.samples[index] > 0) return profile_.latency_ewma_x16us[index];
  return kStaticPriorX16[index] * profile_.scale_x256 >> 8;
}

int QueryPlanner::Quintile(uint64_t lb_x16, uint64_t scale_x16) {
  if (scale_x16 == 0) return 2;
  // The rolling mean sits at the quintile boundary 2|3: a source at the
  // typical distance from its targets is "middle", 2.5x closer is quintile
  // 0, 1.6x farther is quintile 4.
  uint64_t step = scale_x16 / 5 * 2;  // 0.4x of the scale per quintile
  if (step == 0) return 2;
  uint64_t q = lb_x16 / step;
  return q > 4 ? 4 : static_cast<int>(q);
}

std::vector<Algorithm> QueryPlanner::ColdCandidates() const {
  if (base_.oracle == nullptr) {
    // Without an oracle every bound degenerates to 0; IterBound_I-NL is
    // the variant built for that regime (§6 of the paper).
    return {Algorithm::kIterBoundSptINoLm};
  }
  // DA (quadratic deviation baseline) and the no-landmark variant are
  // dominated when an oracle is attached; everything else stays in play
  // so the online profile can promote it.
  return {Algorithm::kIterBoundSptI, Algorithm::kIterBoundSptP,
          Algorithm::kIterBound, Algorithm::kBestFirst, Algorithm::kDaSpt};
}

PlannerDecision QueryPlanner::Plan(const KpjQuery& query,
                                   const SptCache* cache, uint64_t epoch) {
  PlannerDecision decision;

  // Canonicalize the source and target sets exactly the way PrepareQuery
  // does (internal ids, sources dropped from the targets, sorted,
  // deduplicated) so probe keys are bit-equal to the keys the solvers
  // build. Out-of-range ids are dropped here — validation rejects the
  // query later either way.
  const NodeId num_nodes = instance_.NumNodes();
  std::vector<NodeId> sources;
  sources.reserve(query.sources.size());
  for (NodeId s : query.sources) {
    if (s < num_nodes) sources.push_back(instance_.ToInternal(s));
  }
  std::sort(sources.begin(), sources.end());
  std::vector<NodeId> targets;
  targets.reserve(query.targets.size());
  for (NodeId t : query.targets) {
    if (t >= num_nodes) continue;
    NodeId internal = instance_.ToInternal(t);
    if (!std::binary_search(sources.begin(), sources.end(), internal)) {
      targets.push_back(internal);
    }
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());

  std::lock_guard<std::mutex> lock(mu_);

  const bool use_oracle = base_.oracle != nullptr;

  // The best forward (non-DA-SPT) algorithm by the global profile — the
  // alternative every residency decision is weighed against. Large k
  // disqualifies DA-SPT outright (per-deviation enumeration dwarfs any
  // tree reuse there).
  Algorithm forward_algo = use_oracle ? Algorithm::kIterBoundSptI
                                      : Algorithm::kIterBoundSptINoLm;
  uint64_t forward_best = ~0ull;
  for (Algorithm a : ColdCandidates()) {
    if (a == Algorithm::kDaSpt) continue;
    uint64_t v = Effective(a);
    if (v < forward_best) {
      forward_best = v;
      forward_algo = a;
    }
  }
  const bool dasp_k_ok = query.k < options_.large_k;

  // 1./2. Side-effect-free residency probes. The DA-SPT tree depends on
  // the target set alone (the paper's join shape: one category, many
  // sources), so a hit removes DA-SPT's biggest cost — the full reverse
  // SPT. Whether what remains beats the forward solvers is decided by the
  // paired per-shape measurements in this shape's recurrence slot: a
  // global EWMA averages over shapes and cannot arbitrate a specific
  // category (see RepeatSlot).
  if (cache != nullptr && !targets.empty()) {
    uint64_t fp = FingerprintTargets(targets, epoch);
    RepeatSlot& slot = repeats_[fp % kRepeatSlots];
    const bool slot_matches = slot.fingerprint == fp;
    decision.shape_fp = fp;

    SptCacheKey reverse_key;
    reverse_key.kind = SptCacheKind::kReverseTargetSpt;
    reverse_key.epoch = epoch;
    reverse_key.targets = targets;
    if (dasp_k_ok && cache->Contains(reverse_key)) {
      const uint64_t shape_dasp = slot_matches ? slot.dasp_x16us : 0;
      const uint64_t shape_fwd = slot_matches ? slot.fwd_x16us : 0;
      if (shape_dasp == 0) {
        decision.algorithm = Algorithm::kDaSpt;
        decision.reason = "resident_measure_dasp";
        decision.resident = true;
      } else if (shape_fwd == 0) {
        decision.algorithm = forward_algo;
        decision.reason = "resident_probe_forward";
      } else if (shape_dasp <= shape_fwd) {
        decision.algorithm = Algorithm::kDaSpt;
        decision.reason = "resident_best_dasp";
        decision.resident = true;
      } else {
        decision.algorithm = forward_algo;
        decision.reason = "resident_best_forward";
      }
      ++decisions_;
      return decision;
    }

    SptCacheKey forward_key;
    forward_key.kind = SptCacheKind::kForwardSpti;
    forward_key.epoch = epoch;
    forward_key.sources = sources;
    forward_key.config =
        SptCacheConfig(use_oracle, base_.max_active_landmarks);
    forward_key.targets = targets;
    if (cache->Contains(forward_key)) {
      decision.algorithm = use_oracle ? Algorithm::kIterBoundSptI
                                      : Algorithm::kIterBoundSptINoLm;
      decision.reason = "forward_spt_resident";
      ++decisions_;
      return decision;
    }

    // 3. Recurring or category-sized target set with no tree resident
    // yet: invest in DA-SPT once so its reverse SPT lands in the cache
    // for the repeats the shape predicts. Seeding only pays if the
    // resident queries it enables would plausibly be routed to DA-SPT:
    // prefer this shape's own measured forward cost as the bar, falling
    // back to the global profile when the shape was never run.
    uint32_t seen = slot_matches ? slot.count : 0;
    if (!options_.pinned) {
      if (slot_matches) {
        ++slot.count;
      } else {
        slot = RepeatSlot{};
        slot.fingerprint = fp;
        slot.count = 1;
      }
    }
    const uint64_t resident_est =
        profile_.dasp_resident_samples > 0
            ? profile_.dasp_resident_ewma_x16us
            : kDaSptResidentPriorX16 * profile_.scale_x256 >> 8;
    const uint64_t forward_bar =
        slot_matches && slot.fwd_x16us != 0 ? slot.fwd_x16us : forward_best;
    if (dasp_k_ok && resident_est <= forward_bar &&
        (seen >= 1 || targets.size() >= options_.category_targets)) {
      decision.algorithm = Algorithm::kDaSpt;
      decision.reason = seen >= 1 ? "repeat_targets_seed_spt"
                                  : "category_targets_seed_spt";
      ++decisions_;
      return decision;
    }
  }

  // 4. Cold path. Features: k, |V_T|, whether landmarks are attached, the
  // landmark distance quintile of the sources against the rolling scale.
  int quintile = 2;
  if (use_oracle && !targets.empty()) {
    PathLength lb = kInfLength;
    // min over a bounded sample of targets: lb(S, V_T) <= lb(s, t).
    size_t probe = std::min<size_t>(targets.size(), 8);
    for (NodeId source : sources) {
      for (size_t i = 0; i < probe; ++i) {
        lb = std::min(lb, base_.oracle->LowerBound(source, targets[i]));
      }
    }
    if (lb != kInfLength) {
      uint64_t lb_x16 = static_cast<uint64_t>(lb) * 16;
      quintile = Quintile(lb_x16, profile_.lb_scale_x16);
      if (!options_.pinned) {
        profile_.lb_scale_x16 = EwmaUpdate(profile_.lb_scale_x16, lb_x16);
        ++profile_.lb_samples;
      }
    }
  }

  if (base_.oracle == nullptr) {
    decision.algorithm = Algorithm::kIterBoundSptINoLm;
    decision.reason = "no_oracle";
    ++decisions_;
    return decision;
  }

  std::vector<Algorithm> candidates = ColdCandidates();
  uint64_t best = ~0ull;
  for (Algorithm a : candidates) {
    uint64_t v = Effective(a);
    if (v < best) {
      best = v;
      decision.algorithm = a;
    }
  }
  decision.reason = "cold_profile_best";

  // Epsilon-greedy refinement: occasionally run a plausible non-best
  // candidate so its EWMA tracks reality. "Plausible" = within 4x of the
  // best, and only queries whose features predict a typical cost explore
  // at all (quintile <= 2, k < large_k): regret per explore is bounded by
  // a typical query, never a pathological one. The PRNG stream is a pure
  // function of (seed, decision index) — replays explore at the same
  // decision points.
  if (!options_.pinned && options_.explore_one_in > 0 && quintile <= 2 &&
      query.k < options_.large_k) {
    uint64_t state = options_.seed ^ (decisions_ * 0x9e3779b97f4a7c15ull);
    uint64_t r = SplitMix64(state);
    if (r % options_.explore_one_in == 0) {
      std::vector<Algorithm> plausible;
      for (Algorithm a : candidates) {
        if (Effective(a) <= best * 4) plausible.push_back(a);
      }
      if (plausible.size() > 1) {
        decision.algorithm =
            plausible[SplitMix64(state) % plausible.size()];
        decision.reason = "explore";
      }
    }
  }
  ++decisions_;
  return decision;
}

void QueryPlanner::RecordLatency(Algorithm algorithm, bool resident,
                                 uint64_t shape_fp, double elapsed_ms) {
  if (options_.pinned) return;
  if (!(elapsed_ms >= 0.0) || !std::isfinite(elapsed_ms)) return;
  uint64_t sample_x16 =
      static_cast<uint64_t>(std::llround(elapsed_ms * 1000.0 * 16.0));
  if (sample_x16 == 0) sample_x16 = 1;
  size_t index = PlannerIndex(algorithm);
  if (index >= kNumPlannableAlgorithms) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Shape-conditioned estimate: resident DA-SPT runs and forward runs of
  // the same target set are the pair the residency rule arbitrates. Cold
  // DA-SPT runs (tree build included) belong to neither side.
  if (shape_fp != 0) {
    RepeatSlot& slot = repeats_[shape_fp % kRepeatSlots];
    if (slot.fingerprint == shape_fp) {
      if (algorithm == Algorithm::kDaSpt) {
        if (resident) {
          slot.dasp_x16us = slot.dasp_x16us == 0
                                ? sample_x16
                                : EwmaUpdate(slot.dasp_x16us, sample_x16);
        }
      } else {
        slot.fwd_x16us = slot.fwd_x16us == 0
                             ? sample_x16
                             : EwmaUpdate(slot.fwd_x16us, sample_x16);
      }
    }
  }
  if (resident && algorithm == Algorithm::kDaSpt) {
    // The prior is in arbitrary prior units; the first real sample replaces
    // it outright rather than blending incommensurable scales.
    profile_.dasp_resident_ewma_x16us =
        profile_.dasp_resident_samples == 0
            ? sample_x16
            : EwmaUpdate(profile_.dasp_resident_ewma_x16us, sample_x16);
    ++profile_.dasp_resident_samples;
    return;
  }
  bool first_overall = true;
  for (uint64_t s : profile_.samples) {
    if (s != 0) {
      first_overall = false;
      break;
    }
  }
  profile_.latency_ewma_x16us[index] =
      profile_.samples[index] == 0
          ? sample_x16
          : EwmaUpdate(profile_.latency_ewma_x16us[index], sample_x16);
  ++profile_.samples[index];
  // Re-anchor the still-unmeasured priors: observed / prior, ×256. One real
  // sample is enough to stop the cold argmin from treating every prior as
  // if this instance ran at the priors' microsecond magnitude.
  uint64_t ratio_x256 = sample_x16 * 256 / kStaticPriorX16[index];
  if (ratio_x256 == 0) ratio_x256 = 1;
  profile_.scale_x256 =
      first_overall ? ratio_x256 : EwmaUpdate(profile_.scale_x256, ratio_x256);
}

PlannerProfile QueryPlanner::ProfileSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return profile_;
}

void QueryPlanner::PinProfile(const PlannerProfile& profile) {
  std::lock_guard<std::mutex> lock(mu_);
  profile_ = profile;
  options_.pinned = true;
}

}  // namespace kpj
