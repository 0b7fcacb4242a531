#include "core/spti.h"

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

PathLength TauToBound(double tau) {
  if (!std::isfinite(tau)) return kInfLength;
  if (tau <= 0) return 0;
  if (tau >= 1.8e19) return kInfLength;
  return static_cast<PathLength>(tau);  // Keys are integral: floor is exact.
}

}  // namespace

IterBoundSptiSolver::IterBoundSptiSolver(const Graph& graph,
                                         const Graph& reverse,
                                         const KpjOptions& options,
                                         bool use_landmarks)
    : graph_(graph),
      reverse_(reverse),
      options_(options),
      use_landmarks_(use_landmarks),
      rev_search_(reverse),
      spti_(graph),
      path_rank_(reverse.NumNodes(), kUnranked),
      target_membership_(graph.NumNodes()) {
  KPJ_CHECK(options_.alpha > 1.0) << "alpha must exceed 1";
}

void IterBoundSptiSolver::GrowTree(double tau, QueryStats* stats) {
  size_t before = spti_.num_settled();
  spti_.AdvanceToBound(TauToBound(tau), forward_bound_, [this](NodeId v) {
    if (target_membership_.Contains(v)) d_.push_back(v);
  });
  // A "resume hit" answered the new τ entirely from the existing tree —
  // the payoff of keeping SPT_I alive across bounding rounds (§5.3).
  if (spti_.num_settled() == before) {
    ++stats->algo.spt_resume_hits;
  } else {
    ++stats->algo.spt_resume_misses;
  }
}

double IterBoundSptiSolver::CompLb(uint32_t v, uint32_t limit,
                                   const PreparedQuery& query,
                                   QueryStats* stats) {
  const PseudoTree::Vertex& vx = tree_.vertex(v);
  // x lies on prefix(v) iff its path rank is within v's limit.
  auto on_prefix = [&](NodeId x) { return path_rank_.Get(x) <= limit; };

  double lb = kInfinity;
  if (vx.node == kInvalidNode) {
    // Root (virtual t): N(t) = D, virtual hops of weight 0 (Alg. 8
    // line 1); exact lb(s, x) = ds(x) for every settled target.
    for (NodeId x : d_) {
      bool banned = false;
      for (NodeId b : vx.banned) {
        if (b == x) {
          banned = true;
          break;
        }
      }
      if (banned || on_prefix(x)) continue;
      lb = std::min(lb, static_cast<double>(spti_.Distance(x)));
    }
    if (d_.size() < query.targets.size() && !spti_.Exhausted()) {
      // Paths entering through a target not yet in D cost at least the
      // SPT_I frontier key (refinement of Alg. 8 line 8).
      lb = std::min(lb, static_cast<double>(spti_.FrontierKey()));
    }
    return lb;
  }

  // A vertex at a source is always finish-banned: a division creates it as
  // the last node of a chosen path, which already ended there.
  KPJ_DCHECK(!rev_search_.CanFinishAt(vx));
  // Alg. 8 lines 3-7: one reverse hop plus lb(s, ·) — exact inside SPT_I,
  // Eq. (2) landmarks (or zero) outside.
  for (const OutEdge& e : reverse_.OutEdges(vx.node)) {
    ++stats->edges_relaxed;
    if (on_prefix(e.to)) continue;
    bool banned = false;
    for (NodeId b : vx.banned) {
      if (b == e.to) {
        banned = true;
        break;
      }
    }
    if (banned) continue;
    PathLength h = reverse_bound_.Estimate(e.to);
    if (h == kInfLength) continue;
    lb = std::min(lb, static_cast<double>(
                          SatAdd(vx.prefix_length, SatAdd(e.weight, h))));
  }
  return lb;
}

void IterBoundSptiSolver::ExpandDivision(const DivisionResult& division,
                                         const PreparedQuery& query,
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
        // Stolen tasks poll the token too; a skipped lb only matters when
        // cancelled, where the main loop exits before using it.
        if (cancel_ != nullptr && cancel_->ShouldStop()) return;
        results[i].lb = CompLb(slots[i], depth + static_cast<uint32_t>(i),
                               query, &results[i].stats);
      });
  for (size_t i = 0; i < results.size(); ++i) {
    stats->Accumulate(results[i].stats);
    ++stats->subspaces_created;
    if (results[i].lb == kInfinity) {
      ++stats->algo.candidates_pruned;
      continue;
    }
    SubspaceEntry fresh;
    fresh.vertex = slots[i];
    fresh.key = std::max(results[i].lb, chosen_length);
    queue.Push(std::move(fresh));
  }
}

KpjResult IterBoundSptiSolver::Run(const PreparedQuery& query) {
  KpjResult res;
  cancel_ = query.cancel;
  intra_ = query.intra;
  spti_.SetCancelToken(cancel_);
  // res is stack storage: the pointer is cleared on every exit path below.
  spti_.SetAlgoStats(&res.stats.algo);

  SptCache* spt_cache = query.cache != nullptr ? query.cache->spt : nullptr;
  const uint64_t epoch = query.cache != nullptr ? query.cache->epoch : 0;

  // Per-query bounds (§4.2 / §6).
  forward_bound_ = LandmarkSetBound();
  LandmarkSetBound source_bound;  // lb(s, v), Eq. (2)
  if (use_landmarks_ && options_.oracle != nullptr) {
    forward_bound_ = MakeCachedSetBound(
        options_.oracle, query.targets, BoundDirection::kToSet, query.root(),
        options_.max_active_landmarks, query.cache, &res.stats.algo);
    source_bound = MakeCachedSetBound(
        options_.oracle, query.sources, BoundDirection::kFromSet,
        query.targets.front(), options_.max_active_landmarks, query.cache,
        &res.stats.algo);
  }
  reverse_bound_ = TreeBound(&spti_, std::move(source_bound));

  // Phase 1 of SPT_I: the initial shortest path as a by-product (§5.3).
  // Cross-query reuse caches the *end-of-phase-1* state only: the grown
  // tree of the main loop depends on k and the subspace schedule, and a
  // warm superset tree would change lower bounds (hence tie-breaking).
  // The phase-1 state is a pure function of (sources, targets, heuristic
  // config), so restoring it is byte-identical to recomputing it.
  target_membership_.ClearAll();
  for (NodeId t : query.targets) target_membership_.Insert(t);
  d_.clear();

  SptCacheKey key;
  bool restored = false;
  NodeId hit = kInvalidNode;
  if (spt_cache != nullptr) {
    key.kind = SptCacheKind::kForwardSpti;
    key.epoch = epoch;
    key.sources = query.sources;
    const bool use_oracle = use_landmarks_ && options_.oracle != nullptr;
    key.config = SptCacheConfig(use_oracle, options_.max_active_landmarks);
    key.targets = query.targets;
    if (std::optional<SptCacheValue> cached = spt_cache->Lookup(key)) {
      spti_.RestoreSnapshot(*cached->snapshot);
      d_ = *cached->settled_targets;  // {hit}, or empty when unreachable.
      hit = d_.empty() ? kInvalidNode : d_.front();
      ++res.stats.algo.spt_cache_hits;
      restored = true;
    } else {
      ++res.stats.algo.spt_cache_misses;
    }
  }
  if (!restored) {
    // Every source is a seed at distance 0: the virtual source's 0-weight
    // arcs, without the virtual node.
    std::vector<std::pair<NodeId, PathLength>> seeds;
    seeds.reserve(query.sources.size());
    for (NodeId s : query.sources) seeds.emplace_back(s, 0);
    spti_.Initialize(seeds, forward_bound_);
    hit = spti_.AdvanceUntilAnySettled(
        target_membership_, forward_bound_,
        [this](NodeId v) {
          if (target_membership_.Contains(v)) d_.push_back(v);
        });
    if (spt_cache != nullptr &&
        (cancel_ == nullptr || !cancel_->ShouldStop())) {
      // Unreachable (exhausted) phase-1 states are cacheable too;
      // cancelled (truncated) ones are not.
      auto snap = std::make_shared<SearchSnapshot>();
      spti_.ExportSnapshot(snap.get());
      SptCacheValue value;
      value.snapshot = std::move(snap);
      value.settled_targets =
          std::make_shared<const std::vector<NodeId>>(d_);
      value.cost = spti_.stats().nodes_settled;
      spt_cache->Insert(std::move(key), std::move(value));
    }
  }
  if (hit == kInvalidNode) {
    res.stats.nodes_settled += spti_.stats().nodes_settled;
    res.stats.edges_relaxed += spti_.stats().edges_relaxed;
    // Either the category is unreachable (no paths at all) or the token
    // tripped mid-phase-1; the token distinguishes them.
    if (cancel_ != nullptr && cancel_->ShouldStop()) {
      res.status = cancel_->CancelStatus();
    }
    spti_.SetAlgoStats(nullptr);
    return res;
  }

  tree_.Reset(kInvalidNode);  // Virtual destination t.
  rev_search_.SetTargets(query.sources);
  // A GKPJ path may pass one source on its way to another, just as a
  // forward path may pass one target on its way to another: the division
  // then keeps the source it ended at as a finish-banned vertex.
  const bool multi_source = query.sources.size() > 1;

  SubspaceQueue queue;
  {
    std::vector<NodeId> forward_path = spti_.PathTo(hit);  // s .. hit
    KPJ_DCHECK(std::binary_search(query.sources.begin(), query.sources.end(),
                                  forward_path.front()));
    SubspaceEntry initial;
    initial.vertex = tree_.root();
    initial.has_path = true;
    initial.suffix_length = spti_.Distance(hit);
    initial.key = static_cast<double>(initial.suffix_length);
    initial.suffix.assign(forward_path.rbegin(), forward_path.rend());
    ++res.stats.algo.candidates_generated;
    queue.Push(std::move(initial));
  }
  res.stats.final_tau = static_cast<double>(spti_.Distance(hit));

  while (res.paths.size() < query.k && !queue.empty()) {
    if (cancel_ != nullptr && cancel_->ShouldStop()) break;
    res.stats.max_queue_size =
        std::max<uint64_t>(res.stats.max_queue_size, queue.size());
    SubspaceEntry entry = queue.Pop();

    if (entry.has_path) {
      res.paths.push_back(
          AssemblePath(tree_, entry, /*reverse_oriented=*/true));
      if (res.paths.size() == query.k) break;

      DivisionResult division = DivideSubspace(
          tree_, reverse_, entry.vertex, entry.suffix,
          /*create_destination_vertex=*/multi_source);
      ExpandDivision(division, query, entry.key, queue, &res.stats);
      continue;
    }

    // TestLB-SPT_I with τ = α · max(lb(S), Q.top().key) (Alg. 4 line 9).
    const PseudoTree::Vertex& vx = tree_.vertex(entry.vertex);
    double base = std::max(entry.key, queue.TopKey());
    double tau = kInfinity;
    if (std::isfinite(base)) {
      tau = std::max(options_.alpha * base, base + 1.0);
      res.stats.final_tau = std::max(res.stats.final_tau, tau);
    }
    GrowTree(tau, &res.stats);  // Alg. 7, between lines 9 and 10 of Alg. 4.

    rev_search_.ClearForbidden();
    tree_.MarkPrefix(entry.vertex, &rev_search_.forbidden());
    SubspaceSearchRequest request = rev_search_.RequestFor(vx, d_);
    // Targets not yet settled by SPT_I all lie beyond τ (Prop. 5.2); the
    // root subspace must not be declared empty while any remain.
    request.seeds_incomplete =
        d_.size() < query.targets.size() && !spti_.Exhausted();
    request.tau = tau;
    request.restrict_to = &spti_;
    request.cancel = cancel_;

    if (std::isfinite(tau)) {
      ++res.stats.lower_bound_tests;
    } else {
      ++res.stats.shortest_path_computations;
    }
    SubspaceSearchResult result =
        rev_search_.Run(request, reverse_bound_, &res.stats);
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
        bounded.key = tau;
        queue.Push(std::move(bounded));
        break;
      }
      case SearchOutcome::kEmpty:
        ++res.stats.algo.candidates_pruned;
        break;
    }
  }

  res.stats.nodes_settled += spti_.stats().nodes_settled;
  res.stats.edges_relaxed += spti_.stats().edges_relaxed;
  res.stats.spt_nodes = spti_.num_settled();
  spti_.SetAlgoStats(nullptr);
  if (cancel_ != nullptr && cancel_->ShouldStop() &&
      res.paths.size() < query.k) {
    res.status = cancel_->CancelStatus();
  }
  return res;
}

}  // namespace kpj
