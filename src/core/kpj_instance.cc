#include "core/kpj_instance.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/spt_cache.h"
#include "graph/serialize.h"
#include "util/trace.h"

namespace kpj {

Result<KpjInstance> KpjInstance::Make(Graph graph, ReorderStrategy strategy) {
  if (graph.NumNodes() == 0) {
    return Status::InvalidArgument("cannot build an instance over an empty graph");
  }
  ReorderedGraph bundle;
  bundle.permutation = ComputeReordering(graph, strategy);
  bundle.graph = ApplyPermutation(graph, bundle.permutation);
  bundle.reverse = bundle.graph.Reverse();
  return KpjInstance(std::move(bundle));
}

Result<KpjInstance> KpjInstance::Wrap(Graph graph, Permutation permutation) {
  if (graph.NumNodes() == 0) {
    return Status::InvalidArgument("cannot build an instance over an empty graph");
  }
  if (!permutation.empty() && permutation.size() != graph.NumNodes()) {
    return Status::InvalidArgument("permutation does not match graph");
  }
  ReorderedGraph bundle;
  bundle.graph = std::move(graph);
  bundle.reverse = bundle.graph.Reverse();
  bundle.permutation = std::move(permutation);
  return KpjInstance(std::move(bundle));
}

Result<KpjInstance> KpjInstance::LoadMapped(const std::string& path,
                                            const MappedLoadOptions& options) {
  Result<MappedGraphBundle> mapped = MapGraphFile(path, options);
  if (!mapped.ok()) return mapped.status();
  MappedGraphBundle& b = mapped.value();
  if (b.graph.NumNodes() == 0) {
    return Status::InvalidArgument("cannot build an instance over an empty graph");
  }
  ReorderedGraph bundle;
  bundle.graph = std::move(b.graph);
  bundle.reverse = std::move(b.reverse);  // stored reverse — never recomputed
  bundle.permutation = std::move(b.permutation);
  KpjInstance instance(std::move(bundle));
  instance.mapping_ = std::move(b.file);
  if (b.landmarks.has_value()) {
    KPJ_RETURN_IF_ERROR(instance.AttachLandmarks(std::move(*b.landmarks)));
  }
  if (b.categories.has_value()) {
    KPJ_RETURN_IF_ERROR(instance.AttachCategories(std::move(*b.categories)));
  }
  return instance;
}

Status KpjInstance::AttachLandmarks(LandmarkIndex landmarks) {
  if (landmarks.num_nodes() != bundle_.graph.NumNodes()) {
    return Status::InvalidArgument(
        "landmark index node count does not match graph");
  }
  landmarks_ = std::move(landmarks);
  ++epoch_;
  return Status::Ok();
}

Status KpjInstance::AttachCategories(CategoryIndex categories) {
  if (categories.num_nodes() != bundle_.graph.NumNodes()) {
    return Status::InvalidArgument(
        "category index node count does not match graph");
  }
  categories_ = std::move(categories);
  ++epoch_;
  return Status::Ok();
}

KpjOptions ResolveOptions(const KpjInstance& instance,
                          const KpjOptions& options) {
  KpjOptions resolved = options;
  if (resolved.oracle == nullptr) resolved.oracle = instance.landmarks();
  return resolved;
}

std::unique_ptr<KpjSolver> MakeSolver(const KpjInstance& instance,
                                      const KpjOptions& options) {
  return MakeSolver(instance.graph(), instance.reverse(),
                    ResolveOptions(instance, options));
}

namespace {

/// Translates the query's node ids into the internal layout; fails fast on
/// out-of-range ids so Permutation::ToNew never sees them.
Result<KpjQuery> TranslateQuery(const KpjInstance& instance,
                                const KpjQuery& query) {
  const NodeId n = instance.NumNodes();
  KpjQuery internal = query;
  for (NodeId& s : internal.sources) {
    if (s >= n) return Status::InvalidArgument("source node out of range");
    s = instance.ToInternal(s);
  }
  for (NodeId& t : internal.targets) {
    if (t >= n) return Status::InvalidArgument("target node out of range");
    t = instance.ToInternal(t);
  }
  return internal;
}

/// The answer-cache key of a prepared query: the substrate key fields plus
/// the solver that runs it, but not k (see ServesK). Knobs an engine fixes
/// at construction (alpha) need no field: a cache belongs to one engine.
SptCacheKey AnswerKey(const KpjInstance& instance, const KpjOptions& options,
                      const PreparedQuery& pq, uint64_t epoch) {
  SptCacheKey key;
  key.kind = SptCacheKind::kAnswer;
  key.epoch = epoch;
  key.sources = pq.sources;
  key.config = SptCacheConfig(
      ResolveOptions(instance, options).oracle != nullptr,
      options.max_active_landmarks);
  key.targets = pq.targets;
  key.algorithm = options.algorithm;
  return key;
}

/// Whether a stored answer computed for k' = `value.answer_k` holds the
/// top-k answer: it has at least k paths, or fewer than k' because no more
/// exist. Every solver reads k only as its loop's stop test, so its top-k
/// answer is the first k paths of its top-k' answer for any k' >= k.
bool ServesK(const SptCacheValue& value, uint32_t k) {
  const size_t held = value.answer->size();
  return held >= k || held < value.answer_k;
}

}  // namespace

Result<PreparedQuery> PrepareQuery(const KpjInstance& instance,
                                   const KpjQuery& query) {
  Result<KpjQuery> internal = TranslateQuery(instance, query);
  if (!internal.ok()) return internal.status();
  return PrepareQuery(instance.graph(), internal.value());
}

Result<KpjResult> RunKpjOnInstance(const KpjInstance& instance,
                                   const KpjQuery& query,
                                   const KpjOptions& options,
                                   KpjSolver* pooled_solver,
                                   const CancellationToken* cancel,
                                   const QueryCacheContext* cache,
                                   const IntraQueryContext* intra) {
  TraceSpan prepare_span("instance.prepare");
  Result<PreparedQuery> prepared = PrepareQuery(instance, query);
  if (!prepared.ok()) return prepared.status();
  PreparedQuery& pq = prepared.value();
  pq.cancel = cancel;
  pq.cache = cache;
  pq.intra = intra;
  prepare_span.End();

  if (pq.targets.empty()) {
    // Every target coincided with the single source: only the trivial
    // path exists and it is excluded by definition.
    KpjResult empty;
    empty.algorithm_used = options.algorithm;
    return empty;
  }

  TraceSpan solver_span("solver.run");
  KpjResult result;
  // A stored answer that covers k is served as its first k paths:
  // byte-identical, with zero work counters. Any other lookup is a miss.
  SptCache* answers = cache != nullptr ? cache->spt : nullptr;
  SptCacheKey key;
  if (answers != nullptr) {
    key = AnswerKey(instance, options, pq, cache->epoch);
    std::optional<SptCacheValue> hit = answers->Lookup(key);
    if (hit.has_value() && ServesK(*hit, pq.k)) {
      const std::vector<Path>& stored = *hit->answer;
      result.paths.assign(
          stored.begin(),
          stored.begin() + std::min<size_t>(stored.size(), pq.k));
      result.stats.algo.answer_cache_hits = 1;
    }
  }
  if (result.stats.algo.answer_cache_hits == 0) {
    if (pooled_solver != nullptr) {
      result = pooled_solver->Run(pq);
    } else {
      result = MakeSolver(instance, options)->Run(pq);
    }
    if (answers != nullptr) {
      result.stats.algo.answer_cache_misses = 1;
      // Only complete answers are stored: a deadline-truncated prefix is
      // not the answer. A miss ran a k the resident entry (if any) did not
      // cover, so this answer replaces it. Two workers racing on one key
      // may leave the smaller answer resident; that costs hit rate, never
      // correctness, since an entry serves only the k it covers.
      if (result.status.ok()) {
        SptCacheValue value;
        value.answer =
            std::make_shared<const std::vector<Path>>(result.paths);
        value.answer_k = pq.k;
        value.cost = result.stats.nodes_settled;
        answers->Insert(std::move(key), std::move(value));
      }
    }
  }
  solver_span.End();

  if (!instance.permutation().empty()) {
    for (Path& path : result.paths) {
      for (NodeId& v : path.nodes) v = instance.ToOriginal(v);
    }
  }
  result.algorithm_used = options.algorithm;
  return result;
}

Result<KpjResult> RunKpj(const KpjInstance& instance, const KpjQuery& query,
                         const KpjOptions& options) {
  return RunKpjOnInstance(instance, query, options, /*pooled_solver=*/nullptr,
                          /*cancel=*/nullptr);
}

Result<KpjResult> RunKsp(const KpjInstance& instance, NodeId source,
                         NodeId target, uint32_t k,
                         const KpjOptions& options) {
  KpjQuery query;
  query.sources = {source};
  query.targets = {target};
  query.k = k;
  return RunKpj(instance, query, options);
}

Result<KpjQuery> MakeCategoryQuery(const KpjInstance& instance, NodeId source,
                                   CategoryId category, uint32_t k) {
  if (instance.categories() == nullptr) {
    return Status::FailedPrecondition("instance has no category index");
  }
  return MakeCategoryQuery(*instance.categories(), source, category, k);
}

}  // namespace kpj
