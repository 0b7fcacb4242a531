#ifndef KPJ_CORE_ENGINE_H_
#define KPJ_CORE_ENGINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/intra.h"
#include "core/kpj_instance.h"
#include "core/kpj_query.h"
#include "core/metrics.h"
#include "core/planner.h"
#include "core/solver.h"
#include "core/spt_cache.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace kpj {

/// Engine configuration, fixed at construction.
struct KpjEngineOptions {
  /// Worker threads. 0 picks the hardware concurrency.
  unsigned threads = 0;
  /// Apply the advisory hardware clamp to an explicit `threads` request.
  /// Turn off to deliberately oversubscribe (determinism and sanitizer
  /// tests run N workers on fewer cores; correctness is unaffected).
  bool clamp_to_hardware = true;
  /// Deadline applied to every query that does not carry its own, in
  /// milliseconds. 0 disables (queries run to completion).
  double default_deadline_ms = 0.0;
  /// Solver selection and knobs. `solver.oracle` may be left null: the
  /// instance's landmark index is used (ResolveOptions).
  KpjOptions solver;
  /// Slow-query log threshold in milliseconds; queries at or above it are
  /// reported through KPJ_LOG(Warning) with their query id (and, when a
  /// deadline applies, the fraction of it consumed). Deadline-exceeded
  /// queries are always logged while the threshold is active. 0 disables.
  double slow_query_ms = 0.0;
  /// Cross-query reuse cache budget in MiB, all of it the one SptCache's;
  /// see DESIGN.md "Cross-query reuse". 0 (the default) disables caching
  /// entirely. Results are byte-identical either way, at any worker
  /// count — the cache only shortcuts recomputation of state a cold run
  /// reaches at the same program point. The CLI defaults this to 64 (--cache-mb/--no-cache).
  size_t cache_mb = 0;
  /// Intra-query parallelism: lanes (including the owning worker) each
  /// query's deviation rounds may fan out across the pool. 1 (the
  /// default) runs rounds inline — full backward compatibility. 0 is the
  /// auto-split policy: each query gets num_workers / in-flight-queries
  /// lanes, so a lone expensive query uses the whole pool while a full
  /// batch degrades to per-query parallelism only. Explicit values are
  /// clamped by `clamp_to_hardware`. Results are byte-identical at every
  /// setting (DESIGN.md "Intra-query parallelism").
  unsigned intra_threads = 1;
  /// Adaptive-planner knobs (core/planner.h), consulted only when
  /// `solver.algorithm == Algorithm::kAuto` or a query carries an `auto`
  /// override. The planner only changes which solver produces the
  /// byte-identical answer, never the answer.
  PlannerOptions planner;
};

/// Per-query service context threaded down from the server layer. The
/// trace id tags every span the query records (TraceContext), stitching
/// engine/solver spans into the request's wire-level timeline; queue_ms is
/// the admission wait, reported by the slow-query log so slow-log lines
/// join access-log lines on the same trace id. All-defaults (the common
/// in-process case) means "no trace, no queue".
struct QueryContext {
  uint64_t trace_id = 0;
  double queue_ms = 0.0;
  /// Per-query algorithm override (additive wire field `algorithm`):
  /// nullopt runs the engine's configured algorithm; a concrete value
  /// forces that solver for this query only; Algorithm::kAuto engages the
  /// planner for this query even on a fixed-algorithm engine.
  std::optional<Algorithm> algorithm;
};

/// Concurrent KPJ query engine over one immutable KpjInstance.
///
/// Owns a fixed ThreadPool and one KpjSolver per worker, so every query
/// reuses a warm per-worker workspace (epoch-reset arrays, heaps) without
/// any locking — a worker only ever touches its own solver. Queries are
/// submitted one-shot (Submit -> future) or as an order-preserving batch
/// (RunBatch), optionally bounded by a per-query deadline enforced through
/// the cooperative CancellationToken threaded into the solver loops.
///
/// Results are deterministic: a query's answer does not depend on the
/// number of workers or on what else is in flight, because solvers share
/// nothing but the read-only instance.
///
/// The instance must outlive the engine and must not be moved while the
/// engine exists (solvers keep references into it).
class KpjEngine {
 public:
  explicit KpjEngine(const KpjInstance& instance,
                     KpjEngineOptions options = {});

  /// Destruction waits for in-flight and queued queries to finish.
  ~KpjEngine() = default;

  KpjEngine(const KpjEngine&) = delete;
  KpjEngine& operator=(const KpjEngine&) = delete;

  unsigned num_workers() const { return pool_.num_workers(); }
  const KpjInstance& instance() const { return instance_; }
  const KpjEngineOptions& options() const { return options_; }

  /// The adaptive planner behind `--algorithm=auto`. Always constructed
  /// (per-query overrides can engage it on a fixed-algorithm engine) but
  /// consulted only for queries whose effective algorithm is kAuto —
  /// fixed-algorithm queries bypass it entirely. Exposed mutable so tests
  /// can pin a profile snapshot (QueryPlanner::PinProfile) and benches
  /// can read the rolling profile.
  QueryPlanner& planner() { return *planner_; }
  const QueryPlanner& planner() const { return *planner_; }

  /// Enqueues one query (original ids) and returns a future for its
  /// result. Uses the engine's default deadline.
  std::future<Result<KpjResult>> Submit(KpjQuery query);

  /// Enqueues one query with an explicit deadline in milliseconds
  /// (0 = run to completion, overriding the engine default).
  std::future<Result<KpjResult>> Submit(KpjQuery query, double deadline_ms);

  /// Submit with a service context (trace id + queue wait); see
  /// QueryContext.
  std::future<Result<KpjResult>> Submit(KpjQuery query, double deadline_ms,
                                        QueryContext context);

  /// Runs every query in `queries` across the pool and returns results in
  /// input order. Uses the engine's default deadline. Blocks the caller;
  /// concurrent Submit calls interleave safely on the same pool.
  std::vector<Result<KpjResult>> RunBatch(std::span<const KpjQuery> queries);

  /// RunBatch with an explicit per-query deadline (0 = no deadline).
  std::vector<Result<KpjResult>> RunBatch(std::span<const KpjQuery> queries,
                                          double deadline_ms);

  /// RunBatch with a service context shared by every entry.
  std::vector<Result<KpjResult>> RunBatch(std::span<const KpjQuery> queries,
                                          double deadline_ms,
                                          QueryContext context);

  /// Every metric of the registry (core/metrics.def); server entries are
  /// zero.
  EngineMetricsSnapshot MetricsSnapshot() const;

  /// The snapshot as a JSON object (stable keys; for --metrics-out and
  /// dashboards) or in Prometheus text exposition format.
  std::string MetricsJson() const;
  std::string MetricsPrometheus() const;

  void ResetMetrics();

 private:
  /// Executes one query on `worker`'s pooled solver, recording metrics.
  /// `query_id` is a per-engine sequence number used by the trace span and
  /// the slow-query log.
  Result<KpjResult> RunOne(const KpjQuery& query, double deadline_ms,
                           unsigned worker, uint64_t query_id,
                           const QueryContext& context);

  static unsigned ResolveThreads(const KpjEngineOptions& options);

  /// Returns worker `worker`'s pooled solver for `algorithm`, building it
  /// on first use. Each worker only ever touches its own row of the grid,
  /// so no synchronization is needed.
  KpjSolver* SolverFor(unsigned worker, Algorithm algorithm);

  const KpjInstance& instance_;
  const KpjEngineOptions options_;
  ThreadPool pool_;
  /// Per-worker solver grid, indexed [worker][PlannerIndex(algorithm)].
  /// Fixed-algorithm engines eagerly build one column (fail-fast, warm
  /// first query); the planner's other choices fill in lazily on first
  /// use. Workers use only their own row, so no synchronization is
  /// needed.
  std::vector<
      std::array<std::unique_ptr<KpjSolver>, kNumPlannableAlgorithms>>
      solvers_;
  /// The adaptive planner (see planner()); never null.
  std::unique_ptr<QueryPlanner> planner_;
  /// Cross-query reuse cache, shared by all workers (internally
  /// synchronized). Null when options_.cache_mb == 0.
  std::unique_ptr<SptCache> spt_cache_;
  /// Last instance epoch a worker observed; on a change the stale entries
  /// are purged eagerly (lookups could never hit them anyway — the epoch
  /// is part of every cache key).
  std::atomic<uint64_t> purged_epoch_{0};

  LiveMetrics<MetricOwner::kEngine> metrics_;
  /// Per-query AlgoStats sums, split by the solver that ran
  /// (PlannerIndex order).
  std::array<AtomicAlgoStats, kNumPlannableAlgorithms> algo_;
  /// Monotonic query-id source shared by Submit and RunBatch.
  std::atomic<uint64_t> next_query_id_{0};
  /// Queries currently inside RunOne; drives the intra_threads == 0
  /// auto-split policy (workers / active queries).
  std::atomic<unsigned> active_queries_{0};
};

}  // namespace kpj

#endif  // KPJ_CORE_ENGINE_H_
