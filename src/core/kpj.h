#ifndef KPJ_CORE_KPJ_H_
#define KPJ_CORE_KPJ_H_

#include <memory>
#include <vector>

#include "core/kpj_query.h"
#include "core/solver.h"
#include "graph/graph.h"
#include "graph/reorder.h"
#include "index/category_index.h"
#include "util/status.h"

namespace kpj {

/// A graph relabeled into a cache-friendly layout (graph/reorder.h)
/// together with the permutation connecting it to the caller's ids.
/// KpjInstance (core/kpj_instance.h) owns one of these; queries go through
/// the instance-based RunKpj/RunKsp or a KpjEngine, which translate ids at
/// the boundary so callers never observe remapped ids.
struct ReorderedGraph {
  Graph graph;              ///< Internal (relabeled) layout.
  Graph reverse;            ///< graph.Reverse(), same layout.
  Permutation permutation;  ///< original id -> internal id; empty = identity.

  NodeId ToInternal(NodeId original) const {
    return permutation.ToNew(original);
  }
  NodeId ToOriginal(NodeId internal) const {
    return permutation.ToOld(internal);
  }
};

/// Validates `query` against `graph` and produces the view solvers
/// execute. Fails on: empty source/target sets, out-of-range ids,
/// duplicate sources, k == 0, or overlapping source/target sets with
/// multiple sources (GKPJ with V_S ∩ V_T != ∅ is undefined; see
/// DESIGN.md). A single source contained in V_T is fine: it is dropped
/// from the per-query target set, which exactly excludes the trivial
/// zero-length path. Sources and targets come out sorted, so the answer
/// does not depend on the order a caller lists them in.
Result<PreparedQuery> PrepareQuery(const Graph& graph, const KpjQuery& query);

/// Builds the KpjQuery for "top-k paths from `source` to category `T`"
/// using the inverted index (paper §2).
Result<KpjQuery> MakeCategoryQuery(const CategoryIndex& index, NodeId source,
                                   CategoryId category, uint32_t k);

}  // namespace kpj

#endif  // KPJ_CORE_KPJ_H_
