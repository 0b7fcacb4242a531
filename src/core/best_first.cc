#include "core/best_first.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/spt_cache.h"

namespace kpj {

namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();
}  // namespace

BestFirstFramework::BestFirstFramework(const Graph& graph,
                                       const Graph& reverse,
                                       const KpjOptions& options,
                                       bool iterative_bounding)
    : graph_(graph),
      reverse_(reverse),
      options_(options),
      search_(graph),
      iterative_bounding_(iterative_bounding),
      path_rank_(graph.NumNodes(), kUnranked) {
  KPJ_CHECK(options_.alpha > 1.0) << "alpha must exceed 1";
}

bool BestFirstFramework::ComputeRootPath(const PreparedQuery& query,
                                         SubspaceEntry* initial,
                                         QueryStats* stats) {
  search_.ClearForbidden();
  tree_.MarkPrefix(tree_.root(), &search_.forbidden());
  const PseudoTree::Vertex& root = tree_.vertex(tree_.root());
  SubspaceSearchRequest request = search_.RequestFor(root, query.sources);
  request.cancel = cancel_;

  ++stats->shortest_path_computations;
  SubspaceSearchResult result = search_.Run(request, bound_, stats);
  if (result.outcome != SearchOutcome::kFound) return false;

  initial->vertex = tree_.root();
  initial->has_path = true;
  initial->suffix_length = result.suffix_length;
  initial->key = static_cast<double>(result.suffix_length);
  std::span<const NodeId> suffix = result.SuffixAfter(root.node);
  initial->suffix.assign(suffix.begin(), suffix.end());
  return true;
}

bool BestFirstFramework::InitializeQuery(const PreparedQuery& query,
                                         SubspaceEntry* initial,
                                         QueryStats* stats) {
  SptCache* spt_cache = query.cache != nullptr ? query.cache->spt : nullptr;
  const uint64_t epoch = query.cache != nullptr ? query.cache->epoch : 0;

  LandmarkSetBound oracle_bound;
  if (options_.oracle != nullptr) {
    oracle_bound = MakeCachedSetBound(
        options_.oracle, query.targets, BoundDirection::kToSet, query.root(),
        options_.max_active_landmarks, query.cache, &stats->algo);
  }
  bound_ = TreeBound(/*tree=*/nullptr, std::move(oracle_bound));

  // Cross-query reuse: the overall shortest path (including "there is
  // none") is a pure function of (sources, targets, heuristic config), so
  // the cached initial entry equals the recomputed one exactly.
  SptCacheKey key;
  if (spt_cache != nullptr) {
    key.kind = SptCacheKind::kRootPath;
    key.epoch = epoch;
    key.sources = query.sources;
    key.config = SptCacheConfig(options_.oracle != nullptr,
                                options_.max_active_landmarks);
    key.targets = query.targets;
    if (std::optional<SptCacheValue> cached = spt_cache->Lookup(key)) {
      ++stats->algo.spt_cache_hits;
      const CachedRootPath& root = *cached->root_path;
      if (!root.found) return false;
      initial->vertex = tree_.root();
      initial->has_path = true;
      initial->suffix_length = root.suffix_length;
      initial->key = static_cast<double>(root.suffix_length);
      initial->suffix.assign(root.suffix.begin(), root.suffix.end());
      return true;
    }
    ++stats->algo.spt_cache_misses;
  }

  const uint64_t settled_before = stats->nodes_settled;
  bool found = ComputeRootPath(query, initial, stats);
  if (spt_cache != nullptr &&
      (query.cancel == nullptr || !query.cancel->ShouldStop())) {
    auto root = std::make_shared<CachedRootPath>();
    root->found = found;
    if (found) {
      root->suffix.assign(initial->suffix.begin(), initial->suffix.end());
      root->suffix_length = initial->suffix_length;
    }
    SptCacheValue value;
    value.root_path = std::move(root);
    value.cost = stats->nodes_settled - settled_before;
    spt_cache->Insert(std::move(key), std::move(value));
  }
  return found;
}

double BestFirstFramework::CompLB(uint32_t v, uint32_t limit,
                                  QueryStats* stats) {
  const PseudoTree::Vertex& vx = tree_.vertex(v);

  double lb = kInfinity;
  // The zero-length suffix plays the role of the virtual edge (u, t).
  if (search_.CanFinishAt(vx)) lb = static_cast<double>(vx.prefix_length);
  std::span<const OutEdge> arcs = vx.node == kInvalidNode
                                      ? std::span<const OutEdge>(root_arcs_)
                                      : graph_.OutEdges(vx.node);
  for (const OutEdge& e : arcs) {
    ++stats->edges_relaxed;
    if (path_rank_.Get(e.to) <= limit) continue;  // On prefix(v).
    bool banned = false;
    for (NodeId b : vx.banned) {
      if (b == e.to) {
        banned = true;
        break;
      }
    }
    if (banned) continue;
    PathLength h = bound_.Estimate(e.to);
    if (h == kInfLength) continue;  // Proven dead end.
    double est = static_cast<double>(
        SatAdd(vx.prefix_length, SatAdd(e.weight, h)));
    lb = std::min(lb, est);
  }
  return lb;
}

void BestFirstFramework::ExpandDivision(const DivisionResult& division,
                                        double chosen_length,
                                        SubspaceQueue& queue,
                                        QueryStats* stats) {
  // Canonical slot order — revised vertex, then created vertices in
  // creation order — matches sequential execution; the merge below
  // preserves it regardless of which lane computed which slot.
  std::vector<uint32_t> slots;
  slots.reserve(1 + division.created.size());
  slots.push_back(division.revised);
  slots.insert(slots.end(), division.created.begin(),
               division.created.end());

  struct Slot {
    double lb = kInfinity;
    QueryStats stats;
  };
  std::vector<Slot> results(slots.size());
  // Every lane reads the one rank array; nothing writes it in the round.
  const uint32_t depth = RankDivisionPath(tree_, division, &path_rank_);
  RunDeviationRound(
      intra_, slots.size(), &stats->algo, [&](size_t i, unsigned) {
        // Stolen tasks poll the token too: a dead query must not keep
        // computing bounds (the skipped lb only matters when cancelled,
        // where the main loop exits before using it).
        if (cancel_ != nullptr && cancel_->ShouldStop()) return;
        results[i].lb = CompLB(slots[i], depth + static_cast<uint32_t>(i),
                               &results[i].stats);
      });
  for (size_t i = 0; i < results.size(); ++i) {
    stats->Accumulate(results[i].stats);
    ++stats->subspaces_created;
    if (results[i].lb == kInfinity) {
      ++stats->algo.candidates_pruned;
      continue;  // Provably empty subspace.
    }
    SubspaceEntry fresh;
    fresh.vertex = slots[i];
    // Alg. 2 line 9: the chosen path's length bounds every path in the
    // subspaces it was divided into.
    fresh.key = std::max(results[i].lb, chosen_length);
    queue.Push(std::move(fresh));
  }
}

KpjResult BestFirstFramework::Run(const PreparedQuery& query) {
  KpjResult res;
  cancel_ = query.cancel;
  intra_ = query.intra;
  tree_.Reset(query.root());
  search_.SetTargets(query.targets);
  root_arcs_.clear();
  if (query.root() == kInvalidNode) {
    for (NodeId s : query.sources) root_arcs_.push_back({s, 0});
  }

  SubspaceEntry initial;
  if (!InitializeQuery(query, &initial, &res.stats)) {
    // "No path" and "cancelled mid-initialization" both land here; the
    // token distinguishes them.
    if (cancel_ != nullptr && cancel_->ShouldStop()) {
      res.status = cancel_->CancelStatus();
    }
    return res;
  }

  SubspaceQueue queue;
  ++res.stats.algo.candidates_generated;
  queue.Push(std::move(initial));

  while (res.paths.size() < query.k && !queue.empty()) {
    if (cancel_ != nullptr && cancel_->ShouldStop()) break;
    res.stats.max_queue_size =
        std::max<uint64_t>(res.stats.max_queue_size, queue.size());
    SubspaceEntry entry = queue.Pop();

    if (entry.has_path) {
      // Next shortest path: its key is exact while every other key is a
      // lower bound.
      res.paths.push_back(
          AssemblePath(tree_, entry, /*reverse_oriented=*/false));
      if (res.paths.size() == query.k) break;

      DivisionResult division = DivideSubspace(
          tree_, graph_, entry.vertex, entry.suffix,
          /*create_destination_vertex=*/true);
      ExpandDivision(division, entry.key, queue, &res.stats);
      continue;
    }

    // Bound-only entry: test/compute its shortest path.
    const PseudoTree::Vertex& vx = tree_.vertex(entry.vertex);
    double tau = kInfinity;
    if (iterative_bounding_) {
      // Alg. 4 line 9: τ = α * max(lb(S), Q.top().key). The +1 floor
      // guarantees strict growth for integral lengths even near 0.
      double base = std::max(entry.key, queue.TopKey());
      if (std::isfinite(base)) {
        tau = std::max(options_.alpha * base, base + 1.0);
        res.stats.final_tau = std::max(res.stats.final_tau, tau);
      }
    }

    search_.ClearForbidden();
    tree_.MarkPrefix(entry.vertex, &search_.forbidden());
    SubspaceSearchRequest request = search_.RequestFor(vx, query.sources);
    request.tau = tau;
    request.cancel = cancel_;

    if (std::isfinite(tau)) {
      ++res.stats.lower_bound_tests;
    } else {
      ++res.stats.shortest_path_computations;
    }
    SubspaceSearchResult result = search_.Run(request, bound_, &res.stats);
    if (cancel_ != nullptr && cancel_->ShouldStop()) break;
    switch (result.outcome) {
      case SearchOutcome::kFound: {
        if (std::isfinite(tau)) ++res.stats.shortest_path_computations;
        SubspaceEntry found;
        found.vertex = entry.vertex;
        found.has_path = true;
        found.suffix_length = result.suffix_length;
        found.key =
            static_cast<double>(vx.prefix_length + result.suffix_length);
        std::span<const NodeId> suffix = result.SuffixAfter(vx.node);
        found.suffix.assign(suffix.begin(), suffix.end());
        // The popped key was a lower bound on the exact length just
        // computed; their integer ratio measures CompLB tightness.
        if (entry.key >= 0 && std::isfinite(entry.key)) {
          res.stats.algo.lb_tightness_num +=
              static_cast<uint64_t>(std::llround(entry.key));
          res.stats.algo.lb_tightness_den +=
              static_cast<uint64_t>(std::llround(found.key));
        }
        ++res.stats.algo.candidates_generated;
        queue.Push(std::move(found));
        break;
      }
      case SearchOutcome::kBounded: {
        KPJ_DCHECK(std::isfinite(tau));
        ++res.stats.algo.iter_bound_rounds;
        SubspaceEntry bounded;
        bounded.vertex = entry.vertex;
        bounded.key = tau;  // Tightened lower bound.
        queue.Push(std::move(bounded));
        break;
      }
      case SearchOutcome::kEmpty:
        ++res.stats.algo.candidates_pruned;
        break;  // No path at any τ: discard the subspace.
    }
  }
  if (cancel_ != nullptr && cancel_->ShouldStop() &&
      res.paths.size() < query.k) {
    res.status = cancel_->CancelStatus();
  }
  return res;
}

}  // namespace kpj
