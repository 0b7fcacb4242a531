#ifndef KPJ_INDEX_TARGET_BOUND_H_
#define KPJ_INDEX_TARGET_BOUND_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "index/landmark_index.h"
#include "util/logging.h"
#include "util/types.h"

namespace kpj {

/// Direction of a node-to-set distance bound.
enum class BoundDirection {
  /// Bound on dist(u, S) = min over x in S of dist(u, x). This is the
  /// paper's lb(u, V_T) of Eq. (2): the set is the destination category.
  kToSet,
  /// Bound on dist(S, u) = min over x in S of dist(x, u). Used by the
  /// reverse-oriented SPT_I search (bounding distance *from* the source
  /// side, §5.3/§6) and by GKPJ's multi-node source.
  kFromSet,
};

/// Per-landmark distance aggregates over a fixed node set — the O(|L|*|S|)
/// part of building a LandmarkSetBound, and a pure function of (landmark
/// tables, set, direction). Shareable across queries hitting the same
/// category: the engine caches it as SptCacheKind::kSetBound.
struct LandmarkSetAggregates {
  std::vector<PathLength> min_primary;   // kToSet: min_x δ(w,x); kFromSet: min_x δ(x,w)
  std::vector<PathLength> max_secondary; // kToSet: max_x δ(x,w); kFromSet: max_x δ(w,x)

  /// Approximate resident size, for cache byte accounting.
  size_t MemoryBytes() const {
    return sizeof(LandmarkSetAggregates) +
           (min_primary.capacity() + max_secondary.capacity()) *
               sizeof(PathLength);
  }
};

/// Per-query landmark lower bound against a fixed node set (Eq. (2)).
///
/// Construction aggregates each landmark's distance to/from the set once —
/// O(|L| * |S|), the paper's "computed only once for each query" — after
/// which Estimate costs O(|L|): one branch-free, inline pass over u's
/// node-major table rows. Prefetch(u) starts the loads of those rows (one
/// 64-byte line per table with 16 landmarks in a v4 file), so a search can
/// issue them for all heads of a settled node before it estimates any.
///
/// For kToSet with landmark w:
///   dist(u, S) >= min_{x in S} δ(w, x) - δ(w, u)   (Eq. (2))
///   dist(u, S) >= δ(u, w) - max_{x in S} δ(x, w)
/// For kFromSet the roles of the tables swap symmetrically.
///
/// Estimate takes real nodes only (< num_nodes()) and returns kInfLength
/// when the tables prove the set unreachable. A set member always gets a
/// bound of 0. The bound is consistent along edges of the forward
/// (kToSet) resp. reverse (kFromSet) graph, and a pure function of
/// (index, set, direction, scoring_node, max_active):
/// equal inputs give byte-identical bounds, which is what makes
/// cross-query caching and the engine's determinism guarantees sound.
class LandmarkSetBound {
 public:
  /// The all-zero bound, as from an empty index: the "computing without
  /// landmark" mode of Section 6.
  LandmarkSetBound() = default;

  /// An empty `index` (zero landmarks) yields all-zero bounds, like the
  /// default constructor.
  ///
  /// Active-landmark selection (extension; classic ALT trick): when
  /// `max_active > 0` and `scoring_node` is a real node, only the
  /// `max_active` landmarks giving the best bound *at the scoring node*
  /// (typically the query source) are evaluated by Estimate — most of the
  /// bound quality at a fraction of the per-node cost. Admissibility is
  /// unaffected (any subset of valid lower bounds is a valid lower bound).
  LandmarkSetBound(const LandmarkIndex* index, std::span<const NodeId> set,
                   BoundDirection direction,
                   NodeId scoring_node = kInvalidNode,
                   uint32_t max_active = 0);

  /// Same bound built from precomputed (typically cached) set aggregates.
  /// `aggregates` must have been computed for this index and direction;
  /// active-landmark selection is still performed per query (it depends on
  /// the scoring node, which is not part of any cache key).
  LandmarkSetBound(const LandmarkIndex* index,
                   std::shared_ptr<const LandmarkSetAggregates> aggregates,
                   BoundDirection direction,
                   NodeId scoring_node = kInvalidNode,
                   uint32_t max_active = 0);

  /// The O(|L| * |S|) aggregation step, exposed for the cache.
  static std::shared_ptr<const LandmarkSetAggregates> ComputeAggregates(
      const LandmarkIndex& index, std::span<const NodeId> set,
      BoundDirection direction);

  /// Lower bound on the distance between `u` and the set, per direction.
  PathLength Estimate(NodeId u) const {
    // Real nodes only: the solvers' virtual endpoints are pseudo-tree roots
    // and never reach a bound. (An empty index reads no row at all.)
    KPJ_DCHECK(p_.empty() || u < index_->num_nodes());
    // EstimateOne's two difference bounds, over 32-bit table values where
    // kInf32 is infinity, without a branch: an infinite minuend (the
    // "proof" case) turns the term into all ones, an infinite other operand
    // (the bound does not apply) into 0. A finite difference is below
    // kInf32, so a kInf32 maximum can only come from a proof. Inactive
    // landmarks have p = 0, q = kInf32 and contribute 0. A plain loop: gcc
    // vectorises it at -O3 with baseline SSE2.
    constexpr uint32_t kInf32 = LandmarkIndex::kUnreachable32;
    const size_t num = p_.size();
    const uint32_t* a = a_table_ + static_cast<size_t>(u) * num;
    const uint32_t* b = b_table_ + static_cast<size_t>(u) * num;
    const uint32_t* p = p_.data();
    const uint32_t* q = q_.data();
    uint32_t best = 0;
    for (size_t l = 0; l < num; ++l) {
      const uint32_t t1 =
          ((std::max(p[l], a[l]) - a[l]) | -uint32_t{p[l] == kInf32}) &
          -uint32_t{a[l] != kInf32};
      const uint32_t t2 =
          ((std::max(b[l], q[l]) - q[l]) | -uint32_t{b[l] == kInf32}) &
          -uint32_t{q[l] != kInf32};
      best = std::max(best, std::max(t1, t2));
    }
    return best == kInf32 ? kInfLength : best;
  }

  /// Starts loading the table rows Estimate(u) reads: their first and last
  /// entries, so a row that straddles two cache lines is covered too.
  /// Always inlined: gcc deems an out-of-line function of prefetches alone
  /// pure, and then deletes every call to it.
  [[gnu::always_inline]] void Prefetch(NodeId u) const {
    const size_t num = p_.size();
    if (num == 0) return;
    const size_t row = static_cast<size_t>(u) * num;
    __builtin_prefetch(a_table_ + row);
    __builtin_prefetch(a_table_ + row + num - 1);
    __builtin_prefetch(b_table_ + row);
    __builtin_prefetch(b_table_ + row + num - 1);
  }

  BoundDirection direction() const { return direction_; }

  /// Landmark slots Estimate actually evaluates.
  const std::vector<uint32_t>& active_landmarks() const { return active_; }

 private:
  /// Picks active_ and fills the Estimate kernel inputs below.
  void SelectActive(NodeId scoring_node, uint32_t max_active);

  /// Bound contribution of landmark slot `l` at node `u`; kInfLength means
  /// a proof that the set is unreachable from/to `u`. The reference form
  /// of Estimate's kernel; used to score landmarks in SelectActive.
  PathLength EstimateOne(uint32_t l, NodeId u) const;

  const LandmarkIndex* index_ = nullptr;
  BoundDirection direction_ = BoundDirection::kToSet;
  // Aggregates over the set per landmark; shared when cached. "primary"
  // powers the difference whose minuend is a set aggregate; "secondary"
  // the one whose subtrahend is a set aggregate. See EstimateOne.
  std::shared_ptr<const LandmarkSetAggregates> agg_;
  std::vector<uint32_t> active_;          // Landmark slots to evaluate.
  // Estimate kernel inputs, one entry per landmark slot: node-major rows
  // a (subtrahend of the primary bound) and b (minuend of the secondary
  // bound) in index_'s tables, and the aggregates narrowed to 32 bits;
  // an inactive slot has p = 0, q = infinity, so it contributes 0.
  const uint32_t* a_table_ = nullptr;
  const uint32_t* b_table_ = nullptr;
  std::vector<uint32_t> p_;
  std::vector<uint32_t> q_;
};

}  // namespace kpj

#endif  // KPJ_INDEX_TARGET_BOUND_H_
