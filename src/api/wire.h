#ifndef KPJ_API_WIRE_H_
#define KPJ_API_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.h"
#include "api/json.h"
#include "util/status.h"

namespace kpj::api {

/// Largest `k` a wire query may ask for. A peer's k sizes the solver's
/// candidate queue and result, so an unbounded k is unbounded work and
/// memory; QueryRequestFromJson rejects k above this with
/// kInvalidArgument. 4096 is 8x the paper's largest k (500). In-process
/// callers (KpjEngine, kpj_cli) are not capped.
inline constexpr uint32_t kMaxK = 4096;

/// The request types kpjd serves (docs/PROTOCOL.md).
enum class RequestType : uint32_t {
  kQuery = 0,    ///< One KpjQuery -> QueryResponse.
  kBatch = 1,    ///< Ordered batch -> BatchResponse.
  kMetrics = 2,  ///< Metrics exposition (json or prom format).
  kHealth = 3,   ///< Liveness + serving epoch.
  kDrain = 4,    ///< Begin graceful drain; acknowledged immediately.
  kSwap = 5,     ///< Hot-swap the serving instance to a new graph file.
  kStats = 6,    ///< Rolling-window (last 60 s) load/latency gauges.
};

const char* RequestTypeName(RequestType type);
Result<RequestType> ParseRequestType(std::string_view name);

/// Payload of a kMetrics request.
struct MetricsRequest {
  std::string format = "json";  ///< "json" or "prom".
};

/// Payload of a kSwap request: paths are resolved by the *server* process.
struct SwapRequest {
  std::string graph;      ///< New graph file (required).
  std::string landmarks;  ///< Optional landmark index file.
};

/// Payload of a kHealth response.
struct HealthInfo {
  bool serving = false;    ///< False while draining.
  uint64_t epoch = 0;      ///< Current serving-state epoch.
  std::string graph;       ///< Graph file backing the current epoch.
  uint64_t uptime_ms = 0;  ///< Milliseconds since the server started.
  uint64_t in_flight = 0;  ///< Admitted queries currently executing.
  uint64_t nodes = 0;      ///< Node count of the serving graph (lets load
                           ///< generators pick valid ids without a copy).
};

/// Payload of a kStats response: gauges over the trailing 60-second window
/// (a ring of 1 s buckets; expired buckets fall out as time advances), so a
/// loaded daemon can be inspected live without scraping counters twice and
/// differencing. Only *requests* are counted — a batch is one request.
struct StatsInfo {
  uint64_t window_s = 0;     ///< Window span covered by the gauges.
  uint64_t requests = 0;     ///< Query/batch requests finished in-window.
  uint64_t shed = 0;         ///< ... of which admission control shed.
  uint64_t errors = 0;       ///< ... of which failed (non-ok, non-shed).
  double qps = 0.0;          ///< requests / window_s.
  double latency_mean_ms = 0.0;  ///< Queue + execute wall time per request.
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
  uint64_t in_flight = 0;    ///< Admitted queries executing right now.
  uint64_t epoch = 0;        ///< Current serving-state epoch.
  /// Requests finished per 1 s bucket, oldest first; size <= window_s
  /// (buckets never written stay absent at the old end).
  std::vector<uint64_t> per_second;
};

/// One span echoed in a response's trace block: the server-side slice of a
/// request's timeline. Timestamps are microseconds on the *server's* trace
/// clock; the client rebases them into its own timeline when merging.
struct TraceSpanWire {
  std::string name;
  int64_t ts_us = 0;
  int64_t dur_us = 0;
  uint32_t tid = 0;
};

/// Payload of a kSwap response.
struct SwapInfo {
  uint64_t old_epoch = 0;
  uint64_t new_epoch = 0;
  double load_ms = 0.0;  ///< Wall time spent building the new state.
};

/// One request frame: {"v":1,"id":7,"type":"query","payload":{...}}.
/// `id` is an opaque client-chosen correlation id echoed in the response.
struct RequestEnvelope {
  uint32_t version = kApiVersion;
  uint64_t id = 0;
  RequestType type = RequestType::kQuery;
  /// Parsed payload object (kind depends on `type`); Null for types that
  /// carry none (health, drain, stats).
  JsonValue payload;
  /// Trace context, serialized as {"trace":{"id":"<16 hex>","collect":true}}.
  /// 0 = no context. Additive same-version fields: old peers ignore them.
  uint64_t trace_id = 0;
  /// True asks the server to echo this request's spans back in the
  /// response's trace block so the client can merge one end-to-end timeline.
  bool collect_spans = false;
};

/// One parsed response frame:
/// {"v":1,"id":7,"status":"ok","message":"","payload":{...}}.
/// Responses are written by ResponseWriter, never from this struct.
struct ResponseEnvelope {
  uint32_t version = kApiVersion;
  uint64_t id = 0;
  StatusCode status = StatusCode::kOk;
  std::string message;
  JsonValue payload;
  /// Echo of the request's trace id (0 when the request carried none), and
  /// the server-side spans when the request asked to collect. Serialized as
  /// {"trace":{"id":"<16 hex>","spans":[...]}}.
  uint64_t trace_id = 0;
  std::vector<TraceSpanWire> trace_spans;
};

// --- Payload (de)serialization -------------------------------------------

JsonValue ToJson(const QueryRequest& request);
Result<QueryRequest> QueryRequestFromJson(const JsonValue& json);

/// Query and batch responses have no tree builder: ResponseWriter streams
/// them, and these parse them back.
Result<QueryResponse> QueryResponseFromJson(const JsonValue& json);

JsonValue ToJson(const BatchRequest& request);
Result<BatchRequest> BatchRequestFromJson(const JsonValue& json);

Result<BatchResponse> BatchResponseFromJson(const JsonValue& json);

JsonValue ToJson(const MetricsRequest& request);
Result<MetricsRequest> MetricsRequestFromJson(const JsonValue& json);

JsonValue ToJson(const SwapRequest& request);
Result<SwapRequest> SwapRequestFromJson(const JsonValue& json);

JsonValue ToJson(const HealthInfo& info);
Result<HealthInfo> HealthInfoFromJson(const JsonValue& json);

JsonValue ToJson(const SwapInfo& info);
Result<SwapInfo> SwapInfoFromJson(const JsonValue& json);

JsonValue ToJson(const StatsInfo& info);
Result<StatsInfo> StatsInfoFromJson(const JsonValue& json);

// --- Envelope (de)serialization ------------------------------------------

/// Serializes one request frame body (the length prefix is the socket
/// layer's job; util/socket.h WriteFrame).
std::string SerializeRequest(const RequestEnvelope& request);

/// Parses a request frame body. Enforces the versioning rules: a version
/// above kApiVersion is rejected with kInvalidArgument (the message names
/// both versions); unknown fields are ignored.
Result<RequestEnvelope> ParseRequest(std::string_view text);

/// Writes one response frame body into a caller-owned buffer, field by
/// field in wire order:
/// {"v":1,"id":7,"status":"ok","message":"..","payload":{..},"trace":{..}}.
/// Open writes the head (the message only when non-empty), at most one
/// Payload call writes the payload in place, and Close writes the trace
/// block and closes the object. Query and batch answers are formatted
/// straight from their structs, with no JSON tree and no copy; kpjd hands
/// the writer a frame buffer that already holds the socket layer's length
/// slot (util/socket.h SendFrame), so the frame is built once and sent as
/// it stands.
class ResponseWriter {
 public:
  explicit ResponseWriter(std::string* out) : json_(out) {}

  void Open(uint64_t id, StatusCode status, std::string_view message);
  void Payload(const QueryResponse& response);
  void Payload(const BatchResponse& response);
  /// A tree payload (health, stats, metrics, swap); Null writes nothing.
  void Payload(const JsonValue& payload);
  /// Writes {"trace":{"id":"<16 hex>","spans":[...]}} when `trace_id` is
  /// nonzero (spans only when there are any), then closes the envelope.
  void Close(uint64_t trace_id, const std::vector<TraceSpanWire>& spans);

 private:
  JsonWriter json_;
};

Result<ResponseEnvelope> ParseResponse(std::string_view text);

}  // namespace kpj::api

#endif  // KPJ_API_WIRE_H_
