#include "index/target_bound.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/logging.h"

namespace kpj {

std::shared_ptr<const LandmarkSetAggregates>
LandmarkSetBound::ComputeAggregates(const LandmarkIndex& index,
                                    std::span<const NodeId> set,
                                    BoundDirection direction) {
  auto agg = std::make_shared<LandmarkSetAggregates>();
  const uint32_t num = index.num_landmarks();
  agg->min_primary.assign(num, kInfLength);
  agg->max_secondary.assign(num, 0);
  for (uint32_t l = 0; l < num; ++l) {
    PathLength min_p = kInfLength;
    PathLength max_s = 0;
    for (NodeId x : set) {
      PathLength from = index.DistFromLandmark(l, x);  // δ(w, x)
      PathLength to = index.DistToLandmark(l, x);      // δ(x, w)
      PathLength p = direction == BoundDirection::kToSet ? from : to;
      PathLength s = direction == BoundDirection::kToSet ? to : from;
      min_p = std::min(min_p, p);
      max_s = std::max(max_s, s);
    }
    agg->min_primary[l] = min_p;
    agg->max_secondary[l] = max_s;
  }
  return agg;
}

LandmarkSetBound::LandmarkSetBound(const LandmarkIndex* index,
                                   std::span<const NodeId> set,
                                   BoundDirection direction,
                                   NodeId scoring_node, uint32_t max_active)
    : index_(index), direction_(direction) {
  KPJ_CHECK(index_ != nullptr);
  agg_ = ComputeAggregates(*index_, set, direction);
  SelectActive(scoring_node, max_active);
}

LandmarkSetBound::LandmarkSetBound(
    const LandmarkIndex* index,
    std::shared_ptr<const LandmarkSetAggregates> aggregates,
    BoundDirection direction, NodeId scoring_node, uint32_t max_active)
    : index_(index), direction_(direction), agg_(std::move(aggregates)) {
  KPJ_CHECK(index_ != nullptr);
  KPJ_CHECK(agg_ != nullptr);
  KPJ_CHECK(agg_->min_primary.size() == index_->num_landmarks());
  SelectActive(scoring_node, max_active);
}

void LandmarkSetBound::SelectActive(NodeId scoring_node,
                                    uint32_t max_active) {
  const uint32_t num = index_->num_landmarks();
  active_.resize(num);
  std::iota(active_.begin(), active_.end(), 0);
  if (max_active > 0 && max_active < num &&
      scoring_node < index_->num_nodes()) {
    // Keep the landmarks that bound best at the scoring node. An infinite
    // contribution (unreachability proof) trumps everything.
    std::vector<std::pair<PathLength, uint32_t>> scored;
    scored.reserve(num);
    for (uint32_t l = 0; l < num; ++l) {
      scored.emplace_back(EstimateOne(l, scoring_node), l);
    }
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      return a.first > b.first;
    });
    active_.clear();
    for (uint32_t i = 0; i < max_active; ++i) {
      active_.push_back(scored[i].second);
    }
    std::sort(active_.begin(), active_.end());  // Cache-friendly order.
  }
  // Kernel inputs for Estimate: a/b are the tables EstimateOne calls
  // from_u/to_u (kToSet) or to_u/from_u (kFromSet); p/q the aggregates,
  // exact in 32 bits because they are minima/maxima of table values.
  const bool to_set = direction_ == BoundDirection::kToSet;
  a_table_ = (to_set ? index_->dist_from() : index_->dist_to()).data();
  b_table_ = (to_set ? index_->dist_to() : index_->dist_from()).data();
  p_.assign(num, 0);
  q_.assign(num, LandmarkIndex::kUnreachable32);
  for (uint32_t l : active_) {
    p_[l] = LandmarkIndex::Narrow(agg_->min_primary[l]);
    q_[l] = LandmarkIndex::Narrow(agg_->max_secondary[l]);
  }
}

PathLength LandmarkSetBound::EstimateOne(uint32_t l, NodeId u) const {
  PathLength best = 0;
  PathLength from_u = index_->DistFromLandmark(l, u);  // δ(w, u)
  PathLength to_u = index_->DistToLandmark(l, u);      // δ(u, w)
  const PathLength min_primary = agg_->min_primary[l];
  const PathLength max_secondary = agg_->max_secondary[l];
  if (direction_ == BoundDirection::kToSet) {
    // dist(u, S) >= min_x δ(w,x) - δ(w,u): valid whenever δ(w,u) finite.
    // If w reaches u but no set member, u cannot reach the set at all
    // (u -> x would give w -> u -> x).
    if (from_u != kInfLength) {
      if (min_primary == kInfLength) return kInfLength;
      best = std::max(best, ClampedSub(min_primary, from_u));
    }
    // dist(u, S) >= δ(u,w) - max_x δ(x,w): valid when the max is finite,
    // i.e. every set member reaches w. Then if u cannot reach w, u can
    // reach no set member either (u -> x -> w would be finite).
    if (max_secondary != kInfLength) {
      if (to_u == kInfLength) return kInfLength;
      best = std::max(best, ClampedSub(to_u, max_secondary));
    }
  } else {
    // Symmetric pair for dist(S, u):
    //   dist(S, u) >= min_x δ(x,w) - δ(u,w)
    //   dist(S, u) >= δ(w,u) - max_x δ(w,x)
    // with the same unreachability inferences as above.
    if (to_u != kInfLength) {
      if (min_primary == kInfLength) return kInfLength;
      best = std::max(best, ClampedSub(min_primary, to_u));
    }
    if (max_secondary != kInfLength) {
      if (from_u == kInfLength) return kInfLength;
      best = std::max(best, ClampedSub(from_u, max_secondary));
    }
  }
  return best;
}

}  // namespace kpj
