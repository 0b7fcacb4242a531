#ifndef KPJ_CORE_HEURISTICS_H_
#define KPJ_CORE_HEURISTICS_H_

#include "sssp/heuristic.h"
#include "sssp/incremental_search.h"
#include "sssp/spt.h"
#include "util/types.h"

namespace kpj {

/// Exact distance-to-destination heuristic backed by DA-SPT's full online
/// shortest path tree (§3): dist[u] is the exact unconstrained distance
/// from u to the destination set, which is an admissible (and maximally
/// informed) bound inside any subspace.
class FullSptBound final : public Heuristic {
 public:
  /// `spt` must outlive this object; dist is indexed by node id.
  explicit FullSptBound(const SptResult* spt) : spt_(spt) {}

  PathLength Estimate(NodeId u) const override {
    KPJ_DCHECK(u < spt_->dist.size());
    return spt_->dist[u];  // kInfLength marks proven unreachability.
  }

 private:
  const SptResult* spt_;
};

/// SPT_P-augmented bound (§5.2): exact distance for nodes inside the
/// partial shortest path tree, fallback bound (Eq. (2) landmarks, or zero)
/// elsewhere. "We give SPT_P a higher priority, because ... the lower bound
/// computed using SPT_P is guaranteed to be not smaller."
class SptpBound final : public Heuristic {
 public:
  /// `sptp` is the reverse-graph incremental search whose settled set is
  /// the partial SPT; `fallback` supplies bounds outside it. Both must
  /// outlive this object.
  SptpBound(const IncrementalSearch* sptp, const Heuristic* fallback)
      : sptp_(sptp), fallback_(fallback) {}

  PathLength Estimate(NodeId u) const override {
    if (sptp_->Settled(u)) return sptp_->Distance(u);
    return fallback_->Estimate(u);
  }

 private:
  const IncrementalSearch* sptp_;
  const Heuristic* fallback_;
};

/// Source-distance bound for the reverse-oriented SPT_I search (§5.3):
/// ds(v) from the forward incremental tree is the exact distance from the
/// source to v, hence an admissible bound on the remaining reverse-search
/// distance v -> source. Outside the tree the fallback applies (only
/// reachable from CompLB-SPT_I; TestLB-SPT_I never visits such nodes).
class SptiSourceBound final : public Heuristic {
 public:
  SptiSourceBound(const IncrementalSearch* spti, const Heuristic* fallback)
      : spti_(spti), fallback_(fallback) {}

  PathLength Estimate(NodeId u) const override {
    if (spti_->Settled(u)) return spti_->Distance(u);
    return fallback_->Estimate(u);
  }

 private:
  const IncrementalSearch* spti_;
  const Heuristic* fallback_;
};

}  // namespace kpj

#endif  // KPJ_CORE_HEURISTICS_H_
