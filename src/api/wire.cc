#include "api/wire.h"

#include <limits>
#include <string>
#include <utility>

#include "util/trace.h"

namespace kpj::api {
namespace {

/// Reads a non-negative integer field into U (uint32/uint64), rejecting
/// negatives and overflow with the shared "field 'k' ..." error format.
template <typename U>
Result<U> GetUint(const JsonValue& object, std::string_view key, U def) {
  Result<int64_t> value = GetInt(object, key, static_cast<int64_t>(def));
  if (!value.ok()) return value.status();
  if (value.value() < 0 ||
      static_cast<uint64_t>(value.value()) > std::numeric_limits<U>::max()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' out of range");
  }
  return static_cast<U>(value.value());
}

/// Reads an array of node ids.
Result<std::vector<NodeId>> GetNodeArray(const JsonValue& object,
                                         std::string_view key) {
  const JsonValue* field = object.Find(key);
  if (field == nullptr || !field->is_array()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be an array of node ids");
  }
  std::vector<NodeId> nodes;
  nodes.reserve(field->items().size());
  for (const JsonValue& item : field->items()) {
    if (!item.is_int() || item.int_value() < 0) {
      return Status::InvalidArgument("field '" + std::string(key) +
                                     "' must be an array of node ids");
    }
    nodes.push_back(static_cast<NodeId>(item.int_value()));
  }
  return nodes;
}

JsonValue NodeArray(const std::vector<NodeId>& nodes) {
  JsonValue array = JsonValue::Array();
  for (NodeId node : nodes) array.Append(JsonValue::Uint(node));
  return array;
}

/// One QueryResponse as a JSON object, in the order QueryResponseFromJson
/// reads it.
void WriteQueryResponse(const QueryResponse& response, JsonWriter& json) {
  json.BeginObject();
  json.Key("status").String(StatusCodeName(response.status));
  if (!response.message.empty()) json.Key("message").String(response.message);
  json.Key("paths").BeginArray();
  for (const PathPayload& path : response.paths) {
    json.BeginObject().Key("nodes").Uint32Array(path.nodes);
    json.Key("length").Uint(path.length).EndObject();
  }
  json.EndArray();
  json.Key("epoch").Uint(response.epoch);
  json.Key("elapsed_ms").Double(response.elapsed_ms);
  json.Key("queue_ms").Double(response.queue_ms);
  json.Key("sp_computations").Uint(response.sp_computations);
  json.Key("nodes_settled").Uint(response.nodes_settled);
  // Additive v1 fields: omitted when the query never reached a solver, so
  // pre-planner clients see byte-identical error responses.
  if (!response.algorithm_chosen.empty()) {
    json.Key("algorithm_chosen").String(response.algorithm_chosen);
  }
  if (!response.planner_reason.empty()) {
    json.Key("planner_reason").String(response.planner_reason);
  }
  json.EndObject();
}

}  // namespace

const char* RequestTypeName(RequestType type) {
  switch (type) {
    case RequestType::kQuery: return "query";
    case RequestType::kBatch: return "batch";
    case RequestType::kMetrics: return "metrics";
    case RequestType::kHealth: return "health";
    case RequestType::kDrain: return "drain";
    case RequestType::kSwap: return "swap";
    case RequestType::kStats: return "stats";
  }
  return "query";
}

Result<RequestType> ParseRequestType(std::string_view name) {
  constexpr RequestType kAll[] = {
      RequestType::kQuery,  RequestType::kBatch, RequestType::kMetrics,
      RequestType::kHealth, RequestType::kDrain, RequestType::kSwap,
      RequestType::kStats,
  };
  for (RequestType type : kAll) {
    if (name == RequestTypeName(type)) return type;
  }
  return Status::InvalidArgument("unknown request type '" +
                                 std::string(name) + "'");
}

// --- QueryRequest ---------------------------------------------------------

JsonValue ToJson(const QueryRequest& request) {
  JsonValue object = JsonValue::Object();
  object.Set("sources", NodeArray(request.sources));
  object.Set("targets", NodeArray(request.targets));
  object.Set("k", JsonValue::Uint(request.k));
  if (request.deadline_ms >= 0.0) {
    object.Set("deadline_ms", JsonValue::Double(request.deadline_ms));
  }
  // Additive v1 field: absent means "inherit the server's algorithm".
  if (!request.algorithm.empty()) {
    object.Set("algorithm", JsonValue::Str(request.algorithm));
  }
  return object;
}

Result<QueryRequest> QueryRequestFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("query payload must be an object");
  }
  QueryRequest request;
  Result<std::vector<NodeId>> sources = GetNodeArray(json, "sources");
  if (!sources.ok()) return sources.status();
  request.sources = std::move(sources).value();
  Result<std::vector<NodeId>> targets = GetNodeArray(json, "targets");
  if (!targets.ok()) return targets.status();
  request.targets = std::move(targets).value();
  Result<uint32_t> k = GetUint<uint32_t>(json, "k", 1);
  if (!k.ok()) return k.status();
  if (k.value() > kMaxK) {
    return Status::InvalidArgument("field 'k' exceeds the maximum of " +
                                   std::to_string(kMaxK));
  }
  request.k = k.value();
  Result<double> deadline = GetDouble(json, "deadline_ms", -1.0);
  if (!deadline.ok()) return deadline.status();
  request.deadline_ms = deadline.value();
  Result<std::string> algorithm = GetString(json, "algorithm", "");
  if (!algorithm.ok()) return algorithm.status();
  request.algorithm = std::move(algorithm).value();
  return request;
}

// --- QueryResponse --------------------------------------------------------

Result<QueryResponse> QueryResponseFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("query response must be an object");
  }
  QueryResponse response;
  Result<std::string> status = GetString(json, "status");
  if (!status.ok()) return status.status();
  Result<StatusCode> code = ParseStatusCode(status.value());
  if (!code.ok()) return code.status();
  response.status = code.value();
  Result<std::string> message = GetString(json, "message", "");
  if (!message.ok()) return message.status();
  response.message = std::move(message).value();
  const JsonValue* paths = json.Find("paths");
  if (paths == nullptr || !paths->is_array()) {
    return Status::InvalidArgument("field 'paths' must be an array");
  }
  response.paths.reserve(paths->items().size());
  for (const JsonValue& entry : paths->items()) {
    if (!entry.is_object()) {
      return Status::InvalidArgument("field 'paths' must hold objects");
    }
    PathPayload path;
    Result<std::vector<NodeId>> nodes = GetNodeArray(entry, "nodes");
    if (!nodes.ok()) return nodes.status();
    path.nodes = std::move(nodes).value();
    Result<uint64_t> length = GetUint<uint64_t>(entry, "length", 0);
    if (!length.ok()) return length.status();
    path.length = length.value();
    response.paths.push_back(std::move(path));
  }
  Result<uint64_t> epoch = GetUint<uint64_t>(json, "epoch", 0);
  if (!epoch.ok()) return epoch.status();
  response.epoch = epoch.value();
  Result<double> elapsed = GetDouble(json, "elapsed_ms", 0.0);
  if (!elapsed.ok()) return elapsed.status();
  response.elapsed_ms = elapsed.value();
  Result<double> queued = GetDouble(json, "queue_ms", 0.0);
  if (!queued.ok()) return queued.status();
  response.queue_ms = queued.value();
  Result<uint64_t> sp = GetUint<uint64_t>(json, "sp_computations", 0);
  if (!sp.ok()) return sp.status();
  response.sp_computations = sp.value();
  Result<uint64_t> settled = GetUint<uint64_t>(json, "nodes_settled", 0);
  if (!settled.ok()) return settled.status();
  response.nodes_settled = settled.value();
  Result<std::string> chosen = GetString(json, "algorithm_chosen", "");
  if (!chosen.ok()) return chosen.status();
  response.algorithm_chosen = std::move(chosen).value();
  Result<std::string> reason = GetString(json, "planner_reason", "");
  if (!reason.ok()) return reason.status();
  response.planner_reason = std::move(reason).value();
  return response;
}

// --- BatchRequest / BatchResponse -----------------------------------------

JsonValue ToJson(const BatchRequest& request) {
  JsonValue object = JsonValue::Object();
  JsonValue queries = JsonValue::Array();
  for (const QueryRequest& query : request.queries) {
    queries.Append(ToJson(query));
  }
  object.Set("queries", std::move(queries));
  if (request.deadline_ms >= 0.0) {
    object.Set("deadline_ms", JsonValue::Double(request.deadline_ms));
  }
  return object;
}

Result<BatchRequest> BatchRequestFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("batch payload must be an object");
  }
  const JsonValue* queries = json.Find("queries");
  if (queries == nullptr || !queries->is_array()) {
    return Status::InvalidArgument("field 'queries' must be an array");
  }
  BatchRequest request;
  request.queries.reserve(queries->items().size());
  for (const JsonValue& entry : queries->items()) {
    Result<QueryRequest> query = QueryRequestFromJson(entry);
    if (!query.ok()) return query.status();
    request.queries.push_back(std::move(query).value());
  }
  Result<double> deadline = GetDouble(json, "deadline_ms", -1.0);
  if (!deadline.ok()) return deadline.status();
  request.deadline_ms = deadline.value();
  return request;
}

Result<BatchResponse> BatchResponseFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("batch response must be an object");
  }
  BatchResponse response;
  Result<std::string> status = GetString(json, "status");
  if (!status.ok()) return status.status();
  Result<StatusCode> code = ParseStatusCode(status.value());
  if (!code.ok()) return code.status();
  response.status = code.value();
  Result<std::string> message = GetString(json, "message", "");
  if (!message.ok()) return message.status();
  response.message = std::move(message).value();
  const JsonValue* results = json.Find("results");
  if (results == nullptr || !results->is_array()) {
    return Status::InvalidArgument("field 'results' must be an array");
  }
  response.results.reserve(results->items().size());
  for (const JsonValue& entry : results->items()) {
    Result<QueryResponse> result = QueryResponseFromJson(entry);
    if (!result.ok()) return result.status();
    response.results.push_back(std::move(result).value());
  }
  return response;
}

// --- MetricsRequest -------------------------------------------------------

JsonValue ToJson(const MetricsRequest& request) {
  JsonValue object = JsonValue::Object();
  object.Set("format", JsonValue::Str(request.format));
  return object;
}

Result<MetricsRequest> MetricsRequestFromJson(const JsonValue& json) {
  MetricsRequest request;
  if (json.is_null()) return request;  // Format defaults to json.
  if (!json.is_object()) {
    return Status::InvalidArgument("metrics payload must be an object");
  }
  Result<std::string> format = GetString(json, "format", "json");
  if (!format.ok()) return format.status();
  request.format = std::move(format).value();
  if (request.format != "json" && request.format != "prom") {
    return Status::InvalidArgument("field 'format' must be 'json' or 'prom'");
  }
  return request;
}

// --- SwapRequest ----------------------------------------------------------

JsonValue ToJson(const SwapRequest& request) {
  JsonValue object = JsonValue::Object();
  object.Set("graph", JsonValue::Str(request.graph));
  if (!request.landmarks.empty()) {
    object.Set("landmarks", JsonValue::Str(request.landmarks));
  }
  return object;
}

Result<SwapRequest> SwapRequestFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("swap payload must be an object");
  }
  SwapRequest request;
  Result<std::string> graph = GetString(json, "graph");
  if (!graph.ok()) return graph.status();
  request.graph = std::move(graph).value();
  Result<std::string> landmarks = GetString(json, "landmarks", "");
  if (!landmarks.ok()) return landmarks.status();
  request.landmarks = std::move(landmarks).value();
  return request;
}

// --- HealthInfo -----------------------------------------------------------

JsonValue ToJson(const HealthInfo& info) {
  JsonValue object = JsonValue::Object();
  object.Set("serving", JsonValue::Bool(info.serving));
  object.Set("epoch", JsonValue::Uint(info.epoch));
  object.Set("graph", JsonValue::Str(info.graph));
  object.Set("uptime_ms", JsonValue::Uint(info.uptime_ms));
  object.Set("in_flight", JsonValue::Uint(info.in_flight));
  object.Set("nodes", JsonValue::Uint(info.nodes));
  return object;
}

Result<HealthInfo> HealthInfoFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("health payload must be an object");
  }
  HealthInfo info;
  Result<bool> serving = GetBool(json, "serving", false);
  if (!serving.ok()) return serving.status();
  info.serving = serving.value();
  Result<uint64_t> epoch = GetUint<uint64_t>(json, "epoch", 0);
  if (!epoch.ok()) return epoch.status();
  info.epoch = epoch.value();
  Result<std::string> graph = GetString(json, "graph", "");
  if (!graph.ok()) return graph.status();
  info.graph = std::move(graph).value();
  Result<uint64_t> uptime = GetUint<uint64_t>(json, "uptime_ms", 0);
  if (!uptime.ok()) return uptime.status();
  info.uptime_ms = uptime.value();
  Result<uint64_t> in_flight = GetUint<uint64_t>(json, "in_flight", 0);
  if (!in_flight.ok()) return in_flight.status();
  info.in_flight = in_flight.value();
  Result<uint64_t> nodes = GetUint<uint64_t>(json, "nodes", 0);
  if (!nodes.ok()) return nodes.status();
  info.nodes = nodes.value();
  return info;
}

// --- SwapInfo -------------------------------------------------------------

JsonValue ToJson(const SwapInfo& info) {
  JsonValue object = JsonValue::Object();
  object.Set("old_epoch", JsonValue::Uint(info.old_epoch));
  object.Set("new_epoch", JsonValue::Uint(info.new_epoch));
  object.Set("load_ms", JsonValue::Double(info.load_ms));
  return object;
}

Result<SwapInfo> SwapInfoFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("swap response must be an object");
  }
  SwapInfo info;
  Result<uint64_t> old_epoch = GetUint<uint64_t>(json, "old_epoch", 0);
  if (!old_epoch.ok()) return old_epoch.status();
  info.old_epoch = old_epoch.value();
  Result<uint64_t> new_epoch = GetUint<uint64_t>(json, "new_epoch", 0);
  if (!new_epoch.ok()) return new_epoch.status();
  info.new_epoch = new_epoch.value();
  Result<double> load_ms = GetDouble(json, "load_ms", 0.0);
  if (!load_ms.ok()) return load_ms.status();
  info.load_ms = load_ms.value();
  return info;
}

// --- StatsInfo ------------------------------------------------------------

JsonValue ToJson(const StatsInfo& info) {
  JsonValue object = JsonValue::Object();
  object.Set("window_s", JsonValue::Uint(info.window_s));
  object.Set("requests", JsonValue::Uint(info.requests));
  object.Set("shed", JsonValue::Uint(info.shed));
  object.Set("errors", JsonValue::Uint(info.errors));
  object.Set("qps", JsonValue::Double(info.qps));
  object.Set("latency_mean_ms", JsonValue::Double(info.latency_mean_ms));
  object.Set("latency_p50_ms", JsonValue::Double(info.latency_p50_ms));
  object.Set("latency_p90_ms", JsonValue::Double(info.latency_p90_ms));
  object.Set("latency_p99_ms", JsonValue::Double(info.latency_p99_ms));
  object.Set("latency_max_ms", JsonValue::Double(info.latency_max_ms));
  object.Set("in_flight", JsonValue::Uint(info.in_flight));
  object.Set("epoch", JsonValue::Uint(info.epoch));
  JsonValue per_second = JsonValue::Array();
  for (uint64_t n : info.per_second) per_second.Append(JsonValue::Uint(n));
  object.Set("per_second", std::move(per_second));
  return object;
}

Result<StatsInfo> StatsInfoFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("stats payload must be an object");
  }
  StatsInfo info;
  Result<uint64_t> window = GetUint<uint64_t>(json, "window_s", 0);
  if (!window.ok()) return window.status();
  info.window_s = window.value();
  Result<uint64_t> requests = GetUint<uint64_t>(json, "requests", 0);
  if (!requests.ok()) return requests.status();
  info.requests = requests.value();
  Result<uint64_t> shed = GetUint<uint64_t>(json, "shed", 0);
  if (!shed.ok()) return shed.status();
  info.shed = shed.value();
  Result<uint64_t> errors = GetUint<uint64_t>(json, "errors", 0);
  if (!errors.ok()) return errors.status();
  info.errors = errors.value();
  Result<double> qps = GetDouble(json, "qps", 0.0);
  if (!qps.ok()) return qps.status();
  info.qps = qps.value();
  Result<double> mean = GetDouble(json, "latency_mean_ms", 0.0);
  if (!mean.ok()) return mean.status();
  info.latency_mean_ms = mean.value();
  Result<double> p50 = GetDouble(json, "latency_p50_ms", 0.0);
  if (!p50.ok()) return p50.status();
  info.latency_p50_ms = p50.value();
  Result<double> p90 = GetDouble(json, "latency_p90_ms", 0.0);
  if (!p90.ok()) return p90.status();
  info.latency_p90_ms = p90.value();
  Result<double> p99 = GetDouble(json, "latency_p99_ms", 0.0);
  if (!p99.ok()) return p99.status();
  info.latency_p99_ms = p99.value();
  Result<double> max = GetDouble(json, "latency_max_ms", 0.0);
  if (!max.ok()) return max.status();
  info.latency_max_ms = max.value();
  Result<uint64_t> in_flight = GetUint<uint64_t>(json, "in_flight", 0);
  if (!in_flight.ok()) return in_flight.status();
  info.in_flight = in_flight.value();
  Result<uint64_t> epoch = GetUint<uint64_t>(json, "epoch", 0);
  if (!epoch.ok()) return epoch.status();
  info.epoch = epoch.value();
  if (const JsonValue* per_second = json.Find("per_second");
      per_second != nullptr) {
    if (!per_second->is_array()) {
      return Status::InvalidArgument("field 'per_second' must be an array");
    }
    info.per_second.reserve(per_second->items().size());
    for (const JsonValue& item : per_second->items()) {
      if (!item.is_int() || item.int_value() < 0) {
        return Status::InvalidArgument(
            "field 'per_second' must hold non-negative counts");
      }
      info.per_second.push_back(static_cast<uint64_t>(item.int_value()));
    }
  }
  return info;
}

// --- Envelopes ------------------------------------------------------------

std::string SerializeRequest(const RequestEnvelope& request) {
  std::string out;
  JsonWriter json(&out);
  json.BeginObject();
  json.Key("v").Uint(request.version);
  json.Key("id").Uint(request.id);
  json.Key("type").String(RequestTypeName(request.type));
  if (!request.payload.is_null()) json.Key("payload").Value(request.payload);
  if (request.trace_id != 0) {
    // The request-side trace block: {"id":"<16 hex>","collect":true}.
    json.Key("trace").BeginObject();
    json.Key("id").String(FormatTraceId(request.trace_id));
    if (request.collect_spans) json.Key("collect").Bool(true);
    json.EndObject();
  }
  json.EndObject();
  return out;
}

namespace {

/// Shared envelope-prefix parsing: version rules + correlation id.
Result<std::pair<uint32_t, uint64_t>> ParseEnvelopePrefix(
    const JsonValue& object) {
  Result<uint32_t> version = GetUint<uint32_t>(object, "v", 0);
  if (!version.ok()) return version.status();
  if (version.value() == 0) {
    return Status::InvalidArgument("missing field 'v'");
  }
  if (version.value() > kApiVersion) {
    return Status::InvalidArgument(
        "unsupported protocol version " + std::to_string(version.value()) +
        " (this server speaks <= " + std::to_string(kApiVersion) + ")");
  }
  Result<uint64_t> id = GetUint<uint64_t>(object, "id", 0);
  if (!id.ok()) return id.status();
  return std::make_pair(version.value(), id.value());
}

}  // namespace

Result<RequestEnvelope> ParseRequest(std::string_view text) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  if (!parsed.ok()) return parsed.status();
  JsonValue& object = parsed.value();
  if (!object.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  Result<std::pair<uint32_t, uint64_t>> prefix = ParseEnvelopePrefix(object);
  if (!prefix.ok()) return prefix.status();
  RequestEnvelope request;
  request.version = prefix.value().first;
  request.id = prefix.value().second;
  Result<std::string> type = GetString(object, "type");
  if (!type.ok()) return type.status();
  Result<RequestType> parsed_type = ParseRequestType(type.value());
  if (!parsed_type.ok()) return parsed_type.status();
  request.type = parsed_type.value();
  // The payload moves out of the parsed document; nothing reads it there.
  if (JsonValue* payload = object.Find("payload"); payload != nullptr) {
    request.payload = std::move(*payload);
  }
  // Trace context is best-effort telemetry: a malformed block parses as "no
  // trace" rather than failing the request.
  if (const JsonValue* trace = object.Find("trace");
      trace != nullptr && trace->is_object()) {
    if (const JsonValue* id = trace->Find("id");
        id != nullptr && id->is_string()) {
      request.trace_id = ParseTraceId(id->string_value());
    }
    if (const JsonValue* collect = trace->Find("collect");
        collect != nullptr && collect->is_bool()) {
      request.collect_spans = collect->bool_value();
    }
  }
  return request;
}

void ResponseWriter::Open(uint64_t id, StatusCode status,
                          std::string_view message) {
  json_.BeginObject();
  json_.Key("v").Uint(kApiVersion);
  json_.Key("id").Uint(id);
  json_.Key("status").String(StatusCodeName(status));
  if (!message.empty()) json_.Key("message").String(message);
}

void ResponseWriter::Payload(const QueryResponse& response) {
  WriteQueryResponse(response, json_.Key("payload"));
}

void ResponseWriter::Payload(const BatchResponse& response) {
  json_.Key("payload").BeginObject();
  json_.Key("status").String(StatusCodeName(response.status));
  if (!response.message.empty()) {
    json_.Key("message").String(response.message);
  }
  json_.Key("results").BeginArray();
  for (const QueryResponse& result : response.results) {
    WriteQueryResponse(result, json_);
  }
  json_.EndArray().EndObject();
}

void ResponseWriter::Payload(const JsonValue& payload) {
  if (!payload.is_null()) json_.Key("payload").Value(payload);
}

void ResponseWriter::Close(uint64_t trace_id,
                           const std::vector<TraceSpanWire>& spans) {
  if (trace_id != 0) {
    json_.Key("trace").BeginObject();
    json_.Key("id").String(FormatTraceId(trace_id));
    if (!spans.empty()) {
      json_.Key("spans").BeginArray();
      for (const TraceSpanWire& span : spans) {
        json_.BeginObject();
        json_.Key("name").String(span.name);
        json_.Key("ts").Int(span.ts_us);
        json_.Key("dur").Int(span.dur_us);
        json_.Key("tid").Uint(span.tid);
        json_.EndObject();
      }
      json_.EndArray();
    }
    json_.EndObject();
  }
  json_.EndObject();
}

Result<ResponseEnvelope> ParseResponse(std::string_view text) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  if (!parsed.ok()) return parsed.status();
  JsonValue& object = parsed.value();
  if (!object.is_object()) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  Result<std::pair<uint32_t, uint64_t>> prefix = ParseEnvelopePrefix(object);
  if (!prefix.ok()) return prefix.status();
  ResponseEnvelope response;
  response.version = prefix.value().first;
  response.id = prefix.value().second;
  Result<std::string> status = GetString(object, "status");
  if (!status.ok()) return status.status();
  Result<StatusCode> code = ParseStatusCode(status.value());
  if (!code.ok()) return code.status();
  response.status = code.value();
  Result<std::string> message = GetString(object, "message", "");
  if (!message.ok()) return message.status();
  response.message = std::move(message).value();
  if (JsonValue* payload = object.Find("payload"); payload != nullptr) {
    response.payload = std::move(*payload);
  }
  if (const JsonValue* trace = object.Find("trace");
      trace != nullptr && trace->is_object()) {
    if (const JsonValue* id = trace->Find("id");
        id != nullptr && id->is_string()) {
      response.trace_id = ParseTraceId(id->string_value());
    }
    if (const JsonValue* spans = trace->Find("spans");
        spans != nullptr && spans->is_array()) {
      response.trace_spans.reserve(spans->items().size());
      for (const JsonValue& entry : spans->items()) {
        if (!entry.is_object()) continue;
        TraceSpanWire span;
        Result<std::string> name = GetString(entry, "name", "");
        if (name.ok()) span.name = std::move(name).value();
        Result<int64_t> ts = GetInt(entry, "ts", 0);
        if (ts.ok()) span.ts_us = ts.value();
        Result<int64_t> dur = GetInt(entry, "dur", 0);
        if (dur.ok()) span.dur_us = dur.value();
        Result<uint32_t> tid = GetUint<uint32_t>(entry, "tid", 0);
        if (tid.ok()) span.tid = tid.value();
        response.trace_spans.push_back(std::move(span));
      }
    }
  }
  return response;
}

}  // namespace kpj::api
