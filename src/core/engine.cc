#include "core/engine.h"

#include <algorithm>
#include <utility>

#include "util/cancellation.h"
#include "util/concurrency.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/trace.h"

namespace kpj {

unsigned KpjEngine::ResolveThreads(const KpjEngineOptions& options) {
  return ResolveWorkerCount(options.threads, options.clamp_to_hardware);
}

KpjEngine::KpjEngine(const KpjInstance& instance, KpjEngineOptions options)
    : instance_(instance),
      options_(std::move(options)),
      pool_(ResolveThreads(options_)),
      solvers_(pool_.num_workers()),
      planner_(std::make_unique<QueryPlanner>(instance, options_.solver,
                                              options_.planner)) {
  // Eagerly build one solver per worker so the first queries do not pay
  // the O(n) workspace allocations, and so construction fails fast if the
  // options are unusable. In auto mode the warm column is the planner's
  // cold default; its other choices fill the grid lazily on first use.
  Algorithm warm = options_.solver.algorithm;
  if (warm == Algorithm::kAuto) {
    warm = instance_.landmarks() != nullptr || options_.solver.oracle != nullptr
               ? Algorithm::kIterBoundSptI
               : Algorithm::kIterBoundSptINoLm;
  }
  KpjOptions warm_options = options_.solver;
  warm_options.algorithm = warm;
  for (unsigned w = 0; w < pool_.num_workers(); ++w) {
    solvers_[w][PlannerIndex(warm)] = MakeSolver(instance_, warm_options);
  }
  if (options_.cache_mb > 0) {
    spt_cache_ =
        std::make_unique<SptCache>(options_.cache_mb * size_t{1024} * 1024);
    purged_epoch_.store(instance_.epoch(), std::memory_order_relaxed);
  }
}

KpjSolver* KpjEngine::SolverFor(unsigned worker, Algorithm algorithm) {
  std::unique_ptr<KpjSolver>& slot = solvers_[worker][PlannerIndex(algorithm)];
  if (slot == nullptr) {
    KpjOptions options = options_.solver;
    options.algorithm = algorithm;
    slot = MakeSolver(instance_, options);
  }
  return slot.get();
}

Result<KpjResult> KpjEngine::RunOne(const KpjQuery& query, double deadline_ms,
                                    unsigned worker, uint64_t query_id,
                                    const QueryContext& context) {
  CancellationToken token;
  const CancellationToken* cancel = nullptr;
  if (deadline_ms > 0.0) {
    token.SetDeadlineAfterMs(deadline_ms);
    cancel = &token;
  }

  QueryCacheContext cache_ctx;
  const QueryCacheContext* cache = nullptr;
  if (spt_cache_ != nullptr) {
    uint64_t epoch = instance_.epoch();
    uint64_t seen = purged_epoch_.load(std::memory_order_acquire);
    if (seen != epoch && purged_epoch_.compare_exchange_strong(
                             seen, epoch, std::memory_order_acq_rel)) {
      spt_cache_->PurgeOlderEpochs(epoch);
    }
    cache_ctx.spt = spt_cache_.get();
    cache_ctx.epoch = epoch;
    cache = &cache_ctx;
  }

  // Resolve this query's algorithm: the per-query override wins over the
  // engine configuration; kAuto (from either) engages the planner. A
  // fixed algorithm never consults the planner at all.
  KpjOptions run_options = options_.solver;
  run_options.algorithm =
      context.algorithm.value_or(options_.solver.algorithm);
  const bool planned = run_options.algorithm == Algorithm::kAuto;
  const char* planner_reason = "";
  bool planner_resident = false;
  uint64_t planner_shape_fp = 0;
  if (planned) {
    PlannerDecision decision =
        planner_->Plan(query, cache_ctx.spt, cache_ctx.epoch);
    run_options.algorithm = decision.algorithm;
    planner_reason = decision.reason;
    planner_resident = decision.resident;
    planner_shape_fp = decision.shape_fp;
    metrics_.planner_choice[PlannerIndex(decision.algorithm)].Increment();
  }

  // Resolve this query's intra-parallelism fan-out against the current
  // load *after* counting ourselves in, so a lone query sees active == 1
  // and claims the whole pool under the auto-split policy.
  unsigned active =
      active_queries_.fetch_add(1, std::memory_order_relaxed) + 1;
  unsigned intra_lanes = options_.intra_threads;
  if (intra_lanes == 0) {
    intra_lanes = std::max(1u, pool_.num_workers() / std::max(1u, active));
  } else if (options_.clamp_to_hardware) {
    intra_lanes = EffectiveWorkers(intra_lanes);
  }
  IntraQueryContext intra_ctx;
  const IntraQueryContext* intra = nullptr;
  if (intra_lanes > 1) {
    intra_ctx.pool = &pool_;
    intra_ctx.threads = intra_lanes;
    intra_ctx.steals = &metrics_.intra_steals;
    intra_ctx.parallel_rounds = &metrics_.intra_parallel_rounds;
    intra_ctx.fanout = &metrics_.intra_fanout;
    intra = &intra_ctx;
  }

  Timer timer;
  // Result<T> has no default constructor; the placeholder is overwritten.
  Result<KpjResult> result = Status::FailedPrecondition("query not executed");
  {
    // Bind the request's trace id to this worker thread for the duration of
    // the query: the engine.query span below and every solver span beneath
    // it inherit the id, so wire-level traces stitch end to end.
    TraceContext trace_ctx(context.trace_id);
    KPJ_TRACE_SPAN("engine.query");
    result = RunKpjOnInstance(instance_, query, run_options,
                              SolverFor(worker, run_options.algorithm),
                              cancel, cache, intra);
  }
  active_queries_.fetch_sub(1, std::memory_order_relaxed);
  double elapsed_ms = timer.ElapsedMillis();
  metrics_.latency.Record(elapsed_ms);

  if (planned && result.ok()) {
    // Feed the rolling profile (no-op for pinned planners) and stamp the
    // decision provenance so api/server layers can report it. An answer
    // served from the cache says nothing about the solver's cost, so it
    // is not a sample.
    if (result.value().stats.algo.answer_cache_hits == 0) {
      planner_->RecordLatency(run_options.algorithm, planner_resident,
                              planner_shape_fp, elapsed_ms);
    }
    result.value().planner_reason = planner_reason;
  }

  if (!result.ok()) {
    metrics_.queries_failed.Increment();
    return result;
  }
  const KpjResult& r = result.value();
  if (r.status.ok()) {
    metrics_.queries_served.Increment();
  } else {
    metrics_.deadline_exceeded.Increment();
  }
  metrics_.paths_returned.Add(r.paths.size());
  metrics_.edges_relaxed.Add(r.stats.edges_relaxed);
  metrics_.sp_computations.Add(r.stats.shortest_path_computations);
  algo_[PlannerIndex(r.algorithm_used)].Add(r.stats.algo);

  if (options_.slow_query_ms > 0.0 &&
      (elapsed_ms >= options_.slow_query_ms || !r.status.ok())) {
    metrics_.slow_queries.Increment();
    internal::LogMessage log(LogLevel::kWarning, __FILE__, __LINE__);
    log << "slow query id=" << query_id;
    if (context.trace_id != 0) {
      log << " trace_id=" << FormatTraceId(context.trace_id);
    }
    log << " took " << elapsed_ms << " ms (threshold "
        << options_.slow_query_ms << " ms";
    if (deadline_ms > 0.0) {
      log << ", " << 100.0 * elapsed_ms / deadline_ms << "% of the "
          << deadline_ms << " ms deadline";
    }
    log << ") queue_ms=" << context.queue_ms
        << " algorithm=" << AlgorithmName(r.algorithm_used)
        << " expansions=" << r.stats.algo.node_expansions
        << " paths=" << r.paths.size();
    if (planned && r.planner_reason[0] != '\0') {
      log << " planner_reason=" << r.planner_reason;
    }
    // The status message is free text, so it stays last.
    log << " answer_cached=" << r.stats.algo.answer_cache_hits;
    if (!r.status.ok()) log << " status=" << r.status.ToString();
  }
  return result;
}

std::future<Result<KpjResult>> KpjEngine::Submit(KpjQuery query) {
  return Submit(std::move(query), options_.default_deadline_ms);
}

std::future<Result<KpjResult>> KpjEngine::Submit(KpjQuery query,
                                                 double deadline_ms) {
  return Submit(std::move(query), deadline_ms, QueryContext{});
}

std::future<Result<KpjResult>> KpjEngine::Submit(KpjQuery query,
                                                 double deadline_ms,
                                                 QueryContext context) {
  // ThreadPool::Task is a std::function (copyable), so the per-task state
  // lives behind a shared_ptr.
  struct PendingQuery {
    KpjQuery query;
    std::promise<Result<KpjResult>> promise;
  };
  auto pending = std::make_shared<PendingQuery>();
  pending->query = std::move(query);
  std::future<Result<KpjResult>> future = pending->promise.get_future();
  uint64_t id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  pool_.Submit([this, pending, deadline_ms, id, context](unsigned worker) {
    pending->promise.set_value(
        RunOne(pending->query, deadline_ms, worker, id, context));
  });
  return future;
}

std::vector<Result<KpjResult>> KpjEngine::RunBatch(
    std::span<const KpjQuery> queries) {
  return RunBatch(queries, options_.default_deadline_ms);
}

std::vector<Result<KpjResult>> KpjEngine::RunBatch(
    std::span<const KpjQuery> queries, double deadline_ms) {
  return RunBatch(queries, deadline_ms, QueryContext{});
}

std::vector<Result<KpjResult>> KpjEngine::RunBatch(
    std::span<const KpjQuery> queries, double deadline_ms,
    QueryContext context) {
  // Result<T> has no default constructor; prefill with a placeholder that
  // every executed index overwrites.
  std::vector<Result<KpjResult>> results;
  results.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    results.emplace_back(Status::FailedPrecondition("query not executed"));
  }
  // Ids are assigned by input position so a batch query's id does not
  // depend on worker scheduling.
  uint64_t base_id =
      next_query_id_.fetch_add(queries.size(), std::memory_order_relaxed);
  pool_.ParallelFor(queries.size(), [&](size_t i, unsigned worker) {
    results[i] = RunOne(queries[i], deadline_ms, worker, base_id + i, context);
  });
  return results;
}

EngineMetricsSnapshot KpjEngine::MetricsSnapshot() const {
  EngineMetricsSnapshot snap;
  metrics_.ReadInto(&snap);
  for (size_t a = 0; a < algo_.size(); ++a) {
    snap.algo_by_algorithm[a] = algo_[a].Snapshot();
    snap.algo.Accumulate(snap.algo_by_algorithm[a]);
  }
  // Gauges, and the counters the reuse cache keeps itself.
  snap.workers = num_workers();
  snap.lb_tightness = snap.algo.LowerBoundTightness();
  if (spt_cache_ != nullptr) {
    SptCacheStats spt = spt_cache_->StatsSnapshot();
    snap.spt_cache_insertions = spt.insertions;
    snap.spt_cache_evictions = spt.evictions;
    snap.cache_bytes = static_cast<double>(spt.bytes);
    snap.spt_cache_answer_bytes = static_cast<double>(spt.answer_bytes);
  }
  return snap;
}

std::string KpjEngine::MetricsJson() const {
  return WriteMetricsJson(MetricsSnapshot(), /*with_server=*/false);
}

std::string KpjEngine::MetricsPrometheus() const {
  return WriteMetricsPrometheus(MetricsSnapshot(), /*with_server=*/false);
}

void KpjEngine::ResetMetrics() {
  metrics_.Reset();
  for (AtomicAlgoStats& a : algo_) a.Reset();
  if (spt_cache_ != nullptr) spt_cache_->ResetStats();
}

}  // namespace kpj
