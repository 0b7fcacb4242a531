#ifndef KPJ_API_API_H_
#define KPJ_API_API_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/kpj_query.h"
#include "util/status.h"
#include "util/types.h"

namespace kpj::api {

/// Wire protocol version. Rules (docs/PROTOCOL.md "Versioning"):
///  * every request and response carries a `v` field;
///  * a server answers requests with `v <= kApiVersion` (older clients keep
///    working) and rejects newer versions with kInvalidArgument;
///  * unknown fields are ignored on both sides, so additive evolution does
///    not need a version bump — only semantic changes do.
inline constexpr uint32_t kApiVersion = 1;

/// Wire status codes: the union of query-level outcomes (validation,
/// deadline, cancellation) and service-level outcomes (overload shedding,
/// drain). These are the *stable* names clients switch on; the in-process
/// kpj::StatusCode stays an implementation detail.
enum class StatusCode : uint32_t {
  kOk = 0,
  /// Malformed request or query validation failure.
  kInvalidArgument = 1,
  kNotFound = 2,
  /// Deadline expired; the response still carries the proven path prefix.
  kDeadlineExceeded = 3,
  kCancelled = 4,
  /// Shed by admission control: the accept queue was full, or the queue
  /// time consumed the whole deadline before a worker was free. The query
  /// was never started; retry against a less loaded server.
  kOverloaded = 5,
  /// The server is draining (or has no serving instance) and accepts no
  /// new work.
  kUnavailable = 6,
  /// Anything else (I/O, corruption, internal invariants).
  kInternal = 7,
};

/// Stable wire spelling ("ok", "invalid_argument", ...).
const char* StatusCodeName(StatusCode code);
Result<StatusCode> ParseStatusCode(std::string_view name);

/// Maps an in-process status onto the wire vocabulary.
StatusCode FromCoreStatus(const kpj::Status& status);

/// Parses an algorithm name as printed by AlgorithmName (case-insensitive,
/// '-'/'_' interchangeable): "DA", "da-spt", "IterBoundI", ... plus
/// "auto" for the adaptive per-query planner (Algorithm::kAuto).
Result<Algorithm> ParseAlgorithm(const std::string& name);

/// One engine configuration, shared verbatim by kpj_cli, kpjd, benches and
/// tests — the consolidation of the old loose `KpjEngineOptions` /
/// `KpjOptions` / CLI-flag triple into a single wire-serializable struct.
/// Field vocabulary matches the shared flag parser (api/options_parse.h).
struct EngineConfig {
  /// Worker threads; 0 picks the hardware concurrency.
  unsigned workers = 0;
  /// Intra-query deviation lanes (1 = sequential, 0 = auto-split).
  unsigned intra_threads = 1;
  /// Cross-query reuse cache budget in MiB; 0 disables. The CLI and the
  /// daemon default this to 64 via the flag parser; the struct default
  /// matches the core engine (off) so migrated tests keep cold-run
  /// behavior unless they opt in.
  size_t cache_mb = 0;
  /// Default per-query deadline in ms; 0 = unbounded.
  double deadline_ms = 0.0;
  /// Slow-query log threshold in ms; 0 disables.
  double slow_query_ms = 0.0;
  Algorithm algorithm = Algorithm::kIterBoundSptI;
  /// τ growth factor for the iteratively bounding solvers; must be > 1.
  double alpha = 1.1;
  /// ALT only: evaluate at most this many landmarks per query; 0 = all.
  uint32_t max_active_landmarks = 0;
  /// Advisory hardware clamp on explicit worker counts; tests turn this
  /// off to prove determinism under oversubscription.
  bool clamp_to_hardware = true;

  /// Range checks with the same error text as the flag parser.
  kpj::Status Validate() const;

  /// Lowers to the core engine options. The solver oracle pointer is left
  /// null — engines resolve it from the instance's landmark index.
  KpjEngineOptions ToEngineOptions() const;
};

/// One (G)KPJ query as it travels over the wire. `sources.size() == 1` is
/// the paper's KPJ query; multiple sources form GKPJ. Node ids are always
/// original (user-visible) ids.
struct QueryRequest {
  std::vector<NodeId> sources;
  std::vector<NodeId> targets;
  uint32_t k = 1;
  /// Per-query deadline in ms. Negative = inherit the server's default;
  /// 0 = explicitly unbounded.
  double deadline_ms = -1.0;
  /// Per-query algorithm override (additive v1 field `algorithm`): empty
  /// inherits the server's configured algorithm; an AlgorithmName spelling
  /// forces that solver for this query; "auto" engages the adaptive
  /// planner for this query. Unknown spellings are rejected.
  std::string algorithm;

  KpjQuery ToQuery() const&;
  /// Moves the node lists into the query instead of copying them.
  KpjQuery ToQuery() &&;
  static QueryRequest FromQuery(const KpjQuery& query);
};

/// One result path: node sequence (original ids) plus its length.
struct PathPayload {
  std::vector<NodeId> nodes;
  PathLength length = 0;
};

/// Answer to one QueryRequest. On kOk `paths` is the complete top-k answer;
/// on kDeadlineExceeded/kCancelled it is the proven prefix; on any other
/// status it is empty and `message` says why.
struct QueryResponse {
  StatusCode status = StatusCode::kOk;
  std::string message;
  std::vector<PathPayload> paths;
  /// Serving-state epoch that answered (increments on hot swap). All paths
  /// in one response come from exactly one epoch.
  uint64_t epoch = 0;
  /// Solver wall time in ms (excludes queue time).
  double elapsed_ms = 0.0;
  /// Time spent in the admission queue before a worker was free.
  double queue_ms = 0.0;
  /// Work-counter excerpt, for client-side observability.
  uint64_t sp_computations = 0;
  uint64_t nodes_settled = 0;
  /// Additive v1 fields: the algorithm that produced the paths
  /// (AlgorithmName spelling) and, when the adaptive planner made the
  /// choice, which rule of its cost model fired. Both empty on responses
  /// that never reached a solver (validation failures, shed queries).
  std::string algorithm_chosen;
  std::string planner_reason;
  /// True when the engine served the paths from its answer cache and no
  /// solver ran. Kept for the access log; not serialized (on the wire such
  /// an answer shows nodes_settled 0 and sp_computations 0).
  bool answer_cached = false;
};

/// An ordered batch; responses come back in request order. The batch-level
/// deadline applies to each query (same contract as KpjEngine::RunBatch).
struct BatchRequest {
  std::vector<QueryRequest> queries;
  double deadline_ms = -1.0;
};

struct BatchResponse {
  StatusCode status = StatusCode::kOk;
  std::string message;
  std::vector<QueryResponse> results;
};

/// Builds the wire response for one executed query. A non-ok Result
/// (validation failure) maps onto the wire status with empty paths; a
/// partial KpjResult keeps its proven prefix.
QueryResponse BuildQueryResponse(const Result<KpjResult>& result,
                                 uint64_t epoch, double elapsed_ms,
                                 double queue_ms);

}  // namespace kpj::api

#endif  // KPJ_API_API_H_
