#include "api/api.h"

#include <cctype>

namespace kpj::api {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kOverloaded: return "overloaded";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kInternal: return "internal";
  }
  return "internal";
}

Result<StatusCode> ParseStatusCode(std::string_view name) {
  constexpr StatusCode kAll[] = {
      StatusCode::kOk,         StatusCode::kInvalidArgument,
      StatusCode::kNotFound,   StatusCode::kDeadlineExceeded,
      StatusCode::kCancelled,  StatusCode::kOverloaded,
      StatusCode::kUnavailable, StatusCode::kInternal,
  };
  for (StatusCode code : kAll) {
    if (name == StatusCodeName(code)) return code;
  }
  return Status::InvalidArgument("unknown status code '" + std::string(name) +
                                 "'");
}

StatusCode FromCoreStatus(const kpj::Status& status) {
  switch (status.code()) {
    case kpj::StatusCode::kOk: return StatusCode::kOk;
    case kpj::StatusCode::kInvalidArgument: return StatusCode::kInvalidArgument;
    case kpj::StatusCode::kNotFound: return StatusCode::kNotFound;
    case kpj::StatusCode::kDeadlineExceeded:
      return StatusCode::kDeadlineExceeded;
    case kpj::StatusCode::kCancelled: return StatusCode::kCancelled;
    case kpj::StatusCode::kIoError:
    case kpj::StatusCode::kCorruption:
    case kpj::StatusCode::kUnimplemented:
    case kpj::StatusCode::kFailedPrecondition:
      return StatusCode::kInternal;
  }
  return StatusCode::kInternal;
}

Result<Algorithm> ParseAlgorithm(const std::string& name) {
  std::string canonical;
  for (char c : name) {
    if (c == '_') c = '-';
    canonical.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  // kAuto is deliberately absent from kAllAlgorithms (it is a planner
  // sentinel, not a solver), so it needs its own spelling here.
  if (canonical == "auto") return Algorithm::kAuto;
  for (Algorithm a : kAllAlgorithms) {
    std::string candidate = AlgorithmName(a);
    for (char& c : candidate) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (candidate == canonical) return a;
  }
  return Status::InvalidArgument("unknown algorithm '" + name + "'");
}

kpj::Status EngineConfig::Validate() const {
  if (deadline_ms < 0.0) {
    return Status::InvalidArgument("--deadline-ms must be >= 0");
  }
  if (slow_query_ms < 0.0) {
    return Status::InvalidArgument("--slow-query-ms must be >= 0");
  }
  if (alpha <= 1.0) {
    return Status::InvalidArgument("--alpha must be > 1");
  }
  return Status::Ok();
}

KpjEngineOptions EngineConfig::ToEngineOptions() const {
  KpjEngineOptions options;
  options.threads = workers;
  options.clamp_to_hardware = clamp_to_hardware;
  options.default_deadline_ms = deadline_ms;
  options.slow_query_ms = slow_query_ms;
  options.cache_mb = cache_mb;
  options.intra_threads = intra_threads;
  options.solver.algorithm = algorithm;
  options.solver.alpha = alpha;
  options.solver.max_active_landmarks = max_active_landmarks;
  // solver.oracle stays null: the engine resolves the instance's landmark
  // index (ResolveOptions).
  return options;
}

KpjQuery QueryRequest::ToQuery() const& {
  KpjQuery query;
  query.sources = sources;
  query.targets = targets;
  query.k = k;
  return query;
}

KpjQuery QueryRequest::ToQuery() && {
  KpjQuery query;
  query.sources = std::move(sources);
  query.targets = std::move(targets);
  query.k = k;
  return query;
}

QueryRequest QueryRequest::FromQuery(const KpjQuery& query) {
  QueryRequest request;
  request.sources = query.sources;
  request.targets = query.targets;
  request.k = query.k;
  return request;
}

QueryResponse BuildQueryResponse(const Result<KpjResult>& result,
                                 uint64_t epoch, double elapsed_ms,
                                 double queue_ms) {
  QueryResponse response;
  response.epoch = epoch;
  response.elapsed_ms = elapsed_ms;
  response.queue_ms = queue_ms;
  if (!result.ok()) {
    response.status = FromCoreStatus(result.status());
    response.message = result.status().message();
    return response;
  }
  const KpjResult& kr = result.value();
  response.status = FromCoreStatus(kr.status);
  response.message = kr.status.message();
  response.paths.reserve(kr.paths.size());
  for (const Path& p : kr.paths) {
    PathPayload payload;
    payload.nodes.assign(p.nodes.begin(), p.nodes.end());
    payload.length = p.length;
    response.paths.push_back(std::move(payload));
  }
  response.sp_computations = kr.stats.shortest_path_computations;
  response.nodes_settled = kr.stats.nodes_settled;
  response.algorithm_chosen = AlgorithmName(kr.algorithm_used);
  response.planner_reason = kr.planner_reason;
  response.answer_cached = kr.stats.algo.answer_cache_hits != 0;
  return response;
}

}  // namespace kpj::api
