#include "core/kpj.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/best_first.h"
#include "core/da.h"
#include "core/da_spt.h"
#include "core/iter_bound.h"
#include "core/sptp.h"
#include "core/spti.h"

namespace kpj {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kDA:
      return "DA";
    case Algorithm::kDaSpt:
      return "DA-SPT";
    case Algorithm::kBestFirst:
      return "BestFirst";
    case Algorithm::kIterBound:
      return "IterBound";
    case Algorithm::kIterBoundSptP:
      return "IterBoundP";
    case Algorithm::kIterBoundSptI:
      return "IterBoundI";
    case Algorithm::kIterBoundSptINoLm:
      return "IterBoundI-NL";
    case Algorithm::kAuto:
      return "Auto";
  }
  return "?";
}

std::unique_ptr<KpjSolver> MakeSolver(const Graph& graph,
                                      const Graph& reverse,
                                      const KpjOptions& options) {
  switch (options.algorithm) {
    case Algorithm::kDA:
      return std::make_unique<DaSolver>(graph, reverse, options);
    case Algorithm::kDaSpt:
      return std::make_unique<DaSptSolver>(graph, reverse, options);
    case Algorithm::kBestFirst:
      return std::make_unique<BestFirstSolver>(graph, reverse, options);
    case Algorithm::kIterBound:
      return std::make_unique<IterBoundSolver>(graph, reverse, options);
    case Algorithm::kIterBoundSptP:
      return std::make_unique<IterBoundSptpSolver>(graph, reverse, options);
    case Algorithm::kIterBoundSptI:
      return std::make_unique<IterBoundSptiSolver>(graph, reverse, options,
                                                   /*use_landmarks=*/true);
    case Algorithm::kIterBoundSptINoLm:
      return std::make_unique<IterBoundSptiSolver>(graph, reverse, options,
                                                   /*use_landmarks=*/false);
    case Algorithm::kAuto:
      // kAuto is a planner sentinel, not a solver: the engine must resolve
      // it to a concrete algorithm (core/planner.h) before reaching here.
      KPJ_LOG(Fatal) << "MakeSolver called with Algorithm::kAuto";
      return nullptr;
  }
  KPJ_LOG(Fatal) << "unknown algorithm";
  return nullptr;
}

Result<PreparedQuery> PrepareQuery(const Graph& graph,
                                   const KpjQuery& query) {
  if (query.k == 0) return Status::InvalidArgument("k must be positive");
  if (query.sources.empty()) {
    return Status::InvalidArgument("query has no source node");
  }
  if (query.targets.empty()) {
    return Status::InvalidArgument("query has no target node");
  }
  std::unordered_set<NodeId> source_set;
  for (NodeId s : query.sources) {
    if (s >= graph.NumNodes()) {
      return Status::InvalidArgument("source node out of range");
    }
    if (!source_set.insert(s).second) {
      return Status::InvalidArgument("duplicate source node");
    }
  }
  for (NodeId t : query.targets) {
    if (t >= graph.NumNodes()) {
      return Status::InvalidArgument("target node out of range");
    }
    if (query.sources.size() > 1 && source_set.count(t) != 0) {
      return Status::InvalidArgument(
          "GKPJ requires disjoint source and target sets");
    }
  }

  PreparedQuery prepared;
  prepared.k = query.k;
  prepared.sources = query.sources;
  std::sort(prepared.sources.begin(), prepared.sources.end());
  // Drop sources from V_T (excludes only the trivial zero-length path:
  // simple paths cannot return to their source).
  prepared.targets.reserve(query.targets.size());
  for (NodeId t : query.targets) {
    if (source_set.count(t) == 0) prepared.targets.push_back(t);
  }
  std::sort(prepared.targets.begin(), prepared.targets.end());
  prepared.targets.erase(
      std::unique(prepared.targets.begin(), prepared.targets.end()),
      prepared.targets.end());
  return prepared;
}

Result<KpjQuery> MakeCategoryQuery(const CategoryIndex& index, NodeId source,
                                   CategoryId category, uint32_t k) {
  if (category >= index.NumCategories()) {
    return Status::InvalidArgument("unknown category");
  }
  KpjQuery query;
  query.sources = {source};
  auto targets = index.Nodes(category);
  query.targets.assign(targets.begin(), targets.end());
  query.k = k;
  if (query.targets.empty()) {
    return Status::InvalidArgument("category has no nodes");
  }
  return query;
}

}  // namespace kpj
