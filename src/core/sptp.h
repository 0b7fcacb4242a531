#ifndef KPJ_CORE_SPTP_H_
#define KPJ_CORE_SPTP_H_

#include "core/best_first.h"
#include "index/target_bound.h"
#include "sssp/incremental_search.h"

namespace kpj {

/// IterBound-SPT_P (paper §5.2, Alg. 6): the iteratively bounding approach
/// whose lb(v, V_T) comes from a *partial* shortest path tree.
///
/// The initial shortest-path query is answered by A* over the reverse
/// graph from all of V_T toward the source set (PartialSPT, Alg. 6); the
/// nodes it settles — obtained "without any extra cost" as a by-product —
/// carry exact distances to the destination set and take priority over
/// the landmark estimate (Prop. 5.1), tightening CompLB and TestLB.
class IterBoundSptpSolver final : public BestFirstFramework {
 public:
  IterBoundSptpSolver(const Graph& graph, const Graph& reverse,
                      const KpjOptions& options);

 protected:
  bool InitializeQuery(const PreparedQuery& query, SubspaceEntry* initial,
                       QueryStats* stats) override;

 private:
  IncrementalSearch sptp_;  // Reverse-graph A*; settled set = SPT_P.
  EpochSet source_set_;     // The query's sources: SPT_P's stop set.
  /// Per-query source-side bound guiding SPT_P construction (lb(s, w)).
  LandmarkSetBound source_bound_;
};

}  // namespace kpj

#endif  // KPJ_CORE_SPTP_H_
