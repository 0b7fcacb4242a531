#include "core/constraint.h"

#include "util/logging.h"

namespace kpj {

ConstrainedSearch::ConstrainedSearch(const Graph& graph)
    : graph_(graph),
      targets_(graph.NumNodes()),
      forbidden_(graph.NumNodes()),
      dist_(graph.NumNodes(), kInfLength),
      parent_(graph.NumNodes(), kInvalidNode),
      heap_(graph.NumNodes()) {}

void ConstrainedSearch::SetTargets(std::span<const NodeId> targets) {
  targets_.ClearAll();
  for (NodeId t : targets) {
    KPJ_CHECK(t < graph_.NumNodes());
    targets_.Insert(t);
  }
}

}  // namespace kpj
