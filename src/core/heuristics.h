#ifndef KPJ_CORE_HEURISTICS_H_
#define KPJ_CORE_HEURISTICS_H_

#include <utility>

#include "index/target_bound.h"
#include "sssp/incremental_search.h"
#include "sssp/spt.h"
#include "util/types.h"

namespace kpj {

/// Exact distance-to-destination heuristic backed by DA-SPT's full online
/// shortest path tree (§3): dist[u] is the exact unconstrained distance
/// from u to the destination set, which is an admissible (and maximally
/// informed) bound inside any subspace.
class FullSptBound {
 public:
  /// `spt` must outlive this object; dist is indexed by node id.
  explicit FullSptBound(const SptResult* spt) : spt_(spt) {}

  PathLength Estimate(NodeId u) const {
    KPJ_DCHECK(u < spt_->dist.size());
    return spt_->dist[u];  // kInfLength marks proven unreachability.
  }
  void Prefetch(NodeId) const {}

 private:
  const SptResult* spt_;
};

/// Tree-augmented bound: the exact distance for nodes a search tree has
/// settled, the landmark fallback (Eq. (2), or zero from an empty index)
/// elsewhere. It serves two roles:
///  * SPT_P (§5.2): the tree is the reverse-graph PartialSPT from V_T, so
///    a settled node's distance is its exact distance to the destination
///    set. "We give SPT_P a higher priority, because ... the lower bound
///    computed using SPT_P is guaranteed to be not smaller."
///  * SPT_I (§5.3): the tree is the forward incremental tree from the
///    source, so a settled node's distance is the exact remaining distance
///    of the reverse-oriented search. Outside the tree the fallback only
///    matters to CompLB-SPT_I: TestLB-SPT_I never visits such nodes.
/// With no tree (BestFirst, IterBound) it is the fallback alone.
class TreeBound {
 public:
  /// The all-zero bound.
  TreeBound() = default;

  /// `tree` (may be null: no tree) must outlive this object.
  TreeBound(const IncrementalSearch* tree, LandmarkSetBound fallback)
      : tree_(tree), fallback_(std::move(fallback)) {}

  PathLength Estimate(NodeId u) const {
    if (InTree(u)) return tree_->Distance(u);
    return fallback_.Estimate(u);
  }

  /// Only the fallback reads memory worth prefetching. Always inlined,
  /// like LandmarkSetBound::Prefetch.
  [[gnu::always_inline]] void Prefetch(NodeId u) const {
    if (!InTree(u)) fallback_.Prefetch(u);
  }

 private:
  bool InTree(NodeId u) const {
    return tree_ != nullptr && tree_->Settled(u);
  }

  const IncrementalSearch* tree_ = nullptr;
  LandmarkSetBound fallback_;
};

}  // namespace kpj

#endif  // KPJ_CORE_HEURISTICS_H_
