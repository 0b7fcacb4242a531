#ifndef KPJ_CORE_SOLVER_H_
#define KPJ_CORE_SOLVER_H_

#include <memory>

#include "core/kpj_query.h"
#include "graph/graph.h"

namespace kpj {

/// Common interface of the seven (G)KPJ algorithms.
///
/// A solver is bound to a (graph, reverse, options) triple at construction
/// and can then run many prepared queries, reusing its workspaces. Use the
/// kpj.h facade (RunKpj / MakeSolver) rather than constructing concrete
/// solvers directly.
class KpjSolver {
 public:
  virtual ~KpjSolver() = default;

  /// Answers one prepared query, given in the id space of the graphs this
  /// solver was constructed with. One source or many (GKPJ), the same
  /// solver serves both.
  virtual KpjResult Run(const PreparedQuery& query) = 0;
};

/// Instantiates the solver selected by `options.algorithm`, bound to
/// `graph` (and `reverse`, which must be `graph.Reverse()`). Both graphs
/// and `options.landmarks` must outlive the solver.
std::unique_ptr<KpjSolver> MakeSolver(const Graph& graph,
                                      const Graph& reverse,
                                      const KpjOptions& options);

}  // namespace kpj

#endif  // KPJ_CORE_SOLVER_H_
