// The versioned request/response API layer (src/api/): JSON document tree,
// wire payload round-trips, envelope versioning rules, status-code
// vocabulary, and the shared options parser that kpj_cli and kpjd both
// speak.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/api.h"
#include "api/json.h"
#include "api/options_parse.h"
#include "api/wire.h"

namespace kpj::api {
namespace {

// ---------------------------------------------------------------------------
// JsonValue

TEST(JsonTest, ParsesScalarsAndRoundTrips) {
  for (const char* doc :
       {"null", "true", "false", "0", "-17", "3.5", "\"hi\"", "[]",
        "[1,2,3]", "{}", "{\"a\":1,\"b\":[true,null]}"}) {
    Result<JsonValue> parsed = JsonValue::Parse(doc);
    ASSERT_TRUE(parsed.ok()) << doc << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed.value().Dump(), doc) << doc;
  }
}

TEST(JsonTest, IntegersSurviveBitExactly) {
  // int64 extremes must round-trip without passing through a double.
  const int64_t big = 9007199254740993;  // 2^53 + 1: not double-exact.
  JsonValue v = JsonValue::Int(big);
  Result<JsonValue> back = JsonValue::Parse(v.Dump());
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(back.value().is_int());
  EXPECT_EQ(back.value().int_value(), big);
}

TEST(JsonTest, UintClampsPastInt64Range) {
  JsonValue v = JsonValue::Uint(~uint64_t{0});
  ASSERT_TRUE(v.is_int());
  EXPECT_EQ(v.int_value(), std::numeric_limits<int64_t>::max());
}

TEST(JsonTest, StringEscapesRoundTrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("s", JsonValue::Str("a\"b\\c\n\t\x01z"));
  Result<JsonValue> back = JsonValue::Parse(obj.Dump());
  ASSERT_TRUE(back.ok());
  const JsonValue* s = back.value().Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->string_value(), "a\"b\\c\n\t\x01z");
}

TEST(JsonTest, NonFiniteDoublesSerializeAsZero) {
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Double(std::numeric_limits<double>::quiet_NaN()));
  arr.Append(JsonValue::Double(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(arr.Dump(), "[0,0]");
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* doc : {"", "{", "[1,]", "{\"a\"}", "tru", "1 2",
                          "\"unterminated", "{\"a\":1,}", "nul"}) {
    EXPECT_FALSE(JsonValue::Parse(doc).ok()) << doc;
  }
}

TEST(JsonTest, RejectsHostileNestingDepth) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonTest, TypedReadersNameTheField) {
  Result<JsonValue> obj = JsonValue::Parse("{\"n\":3,\"s\":\"x\"}");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(GetInt(obj.value(), "n").value(), 3);
  EXPECT_EQ(GetInt(obj.value(), "missing", 7).value(), 7);
  EXPECT_EQ(GetString(obj.value(), "s").value(), "x");
  Result<int64_t> wrong = GetInt(obj.value(), "s");
  ASSERT_FALSE(wrong.ok());
  EXPECT_NE(wrong.status().ToString().find("field 's'"), std::string::npos);
  Result<std::string> absent = GetString(obj.value(), "nope");
  ASSERT_FALSE(absent.ok());
  EXPECT_NE(absent.status().ToString().find("field 'nope'"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Status codes

TEST(StatusCodeTest, NamesRoundTrip) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kDeadlineExceeded, StatusCode::kCancelled,
        StatusCode::kOverloaded, StatusCode::kUnavailable,
        StatusCode::kInternal}) {
    Result<StatusCode> parsed = ParseStatusCode(StatusCodeName(code));
    ASSERT_TRUE(parsed.ok()) << StatusCodeName(code);
    EXPECT_EQ(parsed.value(), code);
  }
  EXPECT_FALSE(ParseStatusCode("no_such_status").ok());
}

TEST(StatusCodeTest, CoreStatusesMapOntoTheWireVocabulary) {
  EXPECT_EQ(FromCoreStatus(Status::Ok()), StatusCode::kOk);
  EXPECT_EQ(FromCoreStatus(Status::InvalidArgument("x")),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FromCoreStatus(Status::NotFound("x")), StatusCode::kNotFound);
  EXPECT_EQ(FromCoreStatus(Status::DeadlineExceeded("x")),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(FromCoreStatus(Status::Cancelled("x")), StatusCode::kCancelled);
  // Everything without a wire-level meaning collapses to kInternal.
  EXPECT_EQ(FromCoreStatus(Status::IoError("x")), StatusCode::kInternal);
  EXPECT_EQ(FromCoreStatus(Status::Corruption("x")), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// EngineConfig

TEST(EngineConfigTest, ValidateRejectsOutOfRangeFields) {
  EngineConfig ok;
  EXPECT_TRUE(ok.Validate().ok());
  EngineConfig bad_alpha;
  bad_alpha.alpha = 1.0;
  EXPECT_FALSE(bad_alpha.Validate().ok());
  EngineConfig bad_deadline;
  bad_deadline.deadline_ms = -1.0;
  EXPECT_FALSE(bad_deadline.Validate().ok());
}

TEST(EngineConfigTest, LowersOntoEngineOptions) {
  EngineConfig config;
  config.workers = 3;
  config.intra_threads = 2;
  config.cache_mb = 32;
  config.deadline_ms = 150.0;
  config.slow_query_ms = 9.0;
  config.algorithm = Algorithm::kDaSpt;
  config.alpha = 1.5;
  config.clamp_to_hardware = false;
  KpjEngineOptions options = config.ToEngineOptions();
  EXPECT_EQ(options.threads, 3u);
  EXPECT_EQ(options.intra_threads, 2u);
  EXPECT_EQ(options.cache_mb, 32u);
  EXPECT_EQ(options.default_deadline_ms, 150.0);
  EXPECT_EQ(options.slow_query_ms, 9.0);
  EXPECT_EQ(options.solver.algorithm, Algorithm::kDaSpt);
  EXPECT_EQ(options.solver.alpha, 1.5);
  EXPECT_FALSE(options.clamp_to_hardware);
  // The oracle pointer stays null: engines resolve it from the instance.
  EXPECT_EQ(options.solver.oracle, nullptr);
}

// ---------------------------------------------------------------------------
// Payload round-trips

/// One response frame body as kpjd writes it: ResponseWriter straight from
/// the struct, no tree.
template <typename Payload>
std::string ResponseText(uint64_t id, StatusCode status,
                         std::string_view message, const Payload& payload,
                         uint64_t trace_id = 0,
                         const std::vector<TraceSpanWire>& spans = {}) {
  std::string text;
  ResponseWriter out(&text);
  out.Open(id, status, message);
  out.Payload(payload);
  out.Close(trace_id, spans);
  return text;
}

std::string QueryText(const QueryResponse& response, uint64_t id = 1,
                      uint64_t trace_id = 0,
                      const std::vector<TraceSpanWire>& spans = {}) {
  return ResponseText(id, response.status, response.message, response,
                      trace_id, spans);
}

/// The payload member of a streamed response, parsed back.
JsonValue PayloadOf(const std::string& text) {
  Result<JsonValue> doc = JsonValue::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (!doc.ok() || doc.value().Find("payload") == nullptr) return {};
  return *doc.value().Find("payload");
}

TEST(WireTest, QueryRequestRoundTrips) {
  QueryRequest request;
  request.sources = {7, 9};
  request.targets = {1, 2, 3};
  request.k = 5;
  request.deadline_ms = 12.5;
  Result<QueryRequest> back = QueryRequestFromJson(ToJson(request));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().sources, request.sources);
  EXPECT_EQ(back.value().targets, request.targets);
  EXPECT_EQ(back.value().k, 5u);
  EXPECT_EQ(back.value().deadline_ms, 12.5);

  KpjQuery query = request.ToQuery();
  EXPECT_EQ(query.sources, request.sources);
  EXPECT_EQ(query.targets, request.targets);
  EXPECT_EQ(query.k, 5u);
}

TEST(WireTest, QueryRequestOmittedDeadlineInheritsServerDefault) {
  QueryRequest request;
  request.sources = {1};
  request.targets = {2};
  Result<QueryRequest> back = QueryRequestFromJson(ToJson(request));
  ASSERT_TRUE(back.ok());
  EXPECT_LT(back.value().deadline_ms, 0.0);
}

TEST(WireTest, QueryRequestRejectsBadFields) {
  for (const char* doc : {
           "{\"targets\":[1],\"k\":1}",  // no sources
           "{\"sources\":[-1],\"targets\":[1],\"k\":1}",
           "{\"sources\":[1],\"targets\":[2],\"k\":-3}",
           "{\"sources\":\"x\",\"targets\":[1],\"k\":1}",
       }) {
    Result<JsonValue> json = JsonValue::Parse(doc);
    ASSERT_TRUE(json.ok()) << doc;
    EXPECT_FALSE(QueryRequestFromJson(json.value()).ok()) << doc;
  }
}

TEST(WireTest, QueryRequestCapsKAtTheWire) {
  QueryRequest request;
  request.sources = {1};
  request.targets = {2};
  request.k = kMaxK;
  Result<QueryRequest> at_cap = QueryRequestFromJson(ToJson(request));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap.value().k, 4096u);

  request.k = kMaxK + 1;
  Result<QueryRequest> over = QueryRequestFromJson(ToJson(request));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), kpj::StatusCode::kInvalidArgument);
  EXPECT_NE(over.status().message().find("4096"), std::string::npos)
      << over.status().message();

  // A batch entry goes through the same parser.
  BatchRequest batch;
  batch.queries.push_back(request);
  EXPECT_FALSE(BatchRequestFromJson(ToJson(batch)).ok());
}

TEST(WireTest, QueryResponseRoundTrips) {
  QueryResponse response;
  response.status = StatusCode::kDeadlineExceeded;
  response.message = "deadline";
  response.epoch = 4;
  response.elapsed_ms = 1.25;
  response.queue_ms = 0.5;
  response.sp_computations = 11;
  response.nodes_settled = 222;
  PathPayload path;
  path.nodes = {3, 1, 4, 1, 5};
  path.length = 92653;
  response.paths.push_back(path);
  Result<QueryResponse> back =
      QueryResponseFromJson(PayloadOf(QueryText(response)));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(back.value().message, "deadline");
  EXPECT_EQ(back.value().epoch, 4u);
  ASSERT_EQ(back.value().paths.size(), 1u);
  EXPECT_EQ(back.value().paths[0].nodes, path.nodes);
  EXPECT_EQ(back.value().paths[0].length, path.length);
  EXPECT_EQ(back.value().sp_computations, 11u);
  EXPECT_EQ(back.value().nodes_settled, 222u);
}

TEST(WireTest, BatchRoundTrips) {
  BatchRequest batch;
  batch.deadline_ms = 30.0;
  QueryRequest q;
  q.sources = {1};
  q.targets = {2, 3};
  q.k = 2;
  batch.queries.push_back(q);
  q.sources = {4};
  batch.queries.push_back(q);
  Result<BatchRequest> back = BatchRequestFromJson(ToJson(batch));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().queries.size(), 2u);
  EXPECT_EQ(back.value().queries[1].sources, std::vector<NodeId>{4});
  EXPECT_EQ(back.value().deadline_ms, 30.0);

  BatchResponse response;
  response.results.resize(2);
  response.results[1].status = StatusCode::kOverloaded;
  Result<BatchResponse> rback = BatchResponseFromJson(
      PayloadOf(ResponseText(1, StatusCode::kOk, "", response)));
  ASSERT_TRUE(rback.ok());
  ASSERT_EQ(rback.value().results.size(), 2u);
  EXPECT_EQ(rback.value().results[1].status, StatusCode::kOverloaded);
}

TEST(WireTest, AuxiliaryPayloadsRoundTrip) {
  MetricsRequest metrics;
  metrics.format = "prom";
  EXPECT_EQ(MetricsRequestFromJson(ToJson(metrics)).value().format, "prom");
  // A null payload defaults to json; unknown formats are rejected.
  EXPECT_EQ(MetricsRequestFromJson(JsonValue::Null()).value().format,
            "json");
  Result<JsonValue> bad = JsonValue::Parse("{\"format\":\"xml\"}");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(MetricsRequestFromJson(bad.value()).ok());

  SwapRequest swap;
  swap.graph = "/tmp/g.bin";
  swap.landmarks = "/tmp/l.bin";
  Result<SwapRequest> sback = SwapRequestFromJson(ToJson(swap));
  ASSERT_TRUE(sback.ok());
  EXPECT_EQ(sback.value().graph, "/tmp/g.bin");
  EXPECT_EQ(sback.value().landmarks, "/tmp/l.bin");
  // The landmark path is optional and omitted from the wire when empty.
  swap.landmarks.clear();
  EXPECT_EQ(ToJson(swap).Find("landmarks"), nullptr);
  sback = SwapRequestFromJson(ToJson(swap));
  ASSERT_TRUE(sback.ok());
  EXPECT_EQ(sback.value().graph, "/tmp/g.bin");
  EXPECT_TRUE(sback.value().landmarks.empty());
  // Unknown fields are ignored, so a swap from an older client that still
  // names an "oracle" is accepted.
  Result<JsonValue> legacy =
      JsonValue::Parse("{\"graph\":\"g.bin\",\"oracle\":\"alt\"}");
  ASSERT_TRUE(legacy.ok());
  Result<SwapRequest> legacy_swap = SwapRequestFromJson(legacy.value());
  ASSERT_TRUE(legacy_swap.ok());
  EXPECT_EQ(legacy_swap.value().graph, "g.bin");

  HealthInfo health;
  health.serving = true;
  health.epoch = 3;
  health.graph = "g.bin";
  health.uptime_ms = 1234;
  health.in_flight = 2;
  Result<HealthInfo> hback = HealthInfoFromJson(ToJson(health));
  ASSERT_TRUE(hback.ok());
  EXPECT_TRUE(hback.value().serving);
  EXPECT_EQ(hback.value().epoch, 3u);
  EXPECT_EQ(hback.value().in_flight, 2u);

  SwapInfo info;
  info.old_epoch = 1;
  info.new_epoch = 2;
  info.load_ms = 7.5;
  Result<SwapInfo> iback = SwapInfoFromJson(ToJson(info));
  ASSERT_TRUE(iback.ok());
  EXPECT_EQ(iback.value().new_epoch, 2u);
  EXPECT_EQ(iback.value().load_ms, 7.5);
}

// ---------------------------------------------------------------------------
// Envelopes and versioning

TEST(WireTest, RequestEnvelopeRoundTrips) {
  RequestEnvelope request;
  request.id = 42;
  request.type = RequestType::kQuery;
  QueryRequest q;
  q.sources = {1};
  q.targets = {2};
  q.k = 1;
  request.payload = ToJson(q);
  Result<RequestEnvelope> back = ParseRequest(SerializeRequest(request));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().version, kApiVersion);
  EXPECT_EQ(back.value().id, 42u);
  EXPECT_EQ(back.value().type, RequestType::kQuery);
  EXPECT_TRUE(QueryRequestFromJson(back.value().payload).ok());
}

TEST(WireTest, ResponseEnvelopeRoundTrips) {
  std::string text;
  ResponseWriter out(&text);
  out.Open(9, StatusCode::kUnavailable, "server is draining");
  out.Close(0, {});
  Result<ResponseEnvelope> back = ParseResponse(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().id, 9u);
  EXPECT_EQ(back.value().status, StatusCode::kUnavailable);
  EXPECT_EQ(back.value().message, "server is draining");
  EXPECT_TRUE(back.value().payload.is_null());
}

TEST(WireTest, NewerProtocolVersionsAreRejected) {
  Result<RequestEnvelope> r =
      ParseRequest("{\"v\":2,\"id\":1,\"type\":\"health\"}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("version"), std::string::npos);
}

TEST(WireTest, MissingVersionIsRejected) {
  EXPECT_FALSE(ParseRequest("{\"id\":1,\"type\":\"health\"}").ok());
}

TEST(WireTest, UnknownFieldsAreIgnoredForAdditiveEvolution) {
  Result<RequestEnvelope> r = ParseRequest(
      "{\"v\":1,\"id\":1,\"type\":\"health\",\"future_field\":[1,2]}");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().type, RequestType::kHealth);
}

TEST(WireTest, RequestTypeNamesRoundTrip) {
  for (RequestType type :
       {RequestType::kQuery, RequestType::kBatch, RequestType::kMetrics,
        RequestType::kHealth, RequestType::kDrain, RequestType::kSwap}) {
    Result<RequestType> parsed = ParseRequestType(RequestTypeName(type));
    ASSERT_TRUE(parsed.ok()) << RequestTypeName(type);
    EXPECT_EQ(parsed.value(), type);
  }
  EXPECT_FALSE(ParseRequestType("restart").ok());
}

// ---------------------------------------------------------------------------
// Golden response bytes: each case pins the exact frame body kpjd sends (the
// strings were taken from the tree serializer these writers replaced), and
// parsing it back and writing it again must give the same bytes.

PathPayload MakePath(std::vector<NodeId> nodes, uint64_t length) {
  PathPayload path;
  path.nodes = std::move(nodes);
  path.length = length;
  return path;
}

/// Both planner fields set.
QueryResponse OkAnswer() {
  QueryResponse r;
  r.paths.push_back(MakePath({5, 17, 42}, 123));
  r.paths.push_back(MakePath({5, 9, 11, 42}, 130));
  r.epoch = 3;
  r.elapsed_ms = 1.5;
  r.queue_ms = 0.25;
  r.sp_computations = 4;
  r.nodes_settled = 321;
  r.algorithm_chosen = "IterBound_I";
  r.planner_reason = "warm_reverse_spt";
  return r;
}

/// Node ids up to 2^32-2, a length past 2^53, 1e-300, and uint64 values
/// past int64 range (written clamped); algorithm_chosen without a reason.
QueryResponse ExtremeAnswer() {
  QueryResponse r;
  r.paths.push_back(
      MakePath({0, 4294967294u, 4294967293u}, 9007199254740993ull));
  r.paths.push_back(MakePath({4294967294u}, ~uint64_t{0}));
  r.epoch = ~uint64_t{0};
  r.elapsed_ms = 1e-300;
  r.queue_ms = 123456.789;
  r.sp_computations = 9007199254740993ull;
  r.nodes_settled = 4294967296ull;
  r.algorithm_chosen = "DA";
  return r;
}

/// No paths and neither planner field.
QueryResponse EmptyAnswer() {
  QueryResponse r;
  r.epoch = 1;
  return r;
}

/// An error whose message needs every kind of escape, NaN and Inf timings
/// (written as 0), and a planner reason without an algorithm.
QueryResponse ErrorAnswer() {
  QueryResponse r;
  r.status = StatusCode::kDeadlineExceeded;
  r.message = "bad \"quote\" back\\slash\nline \x01 end";
  r.paths.push_back(MakePath({1, 2}, 7));
  r.epoch = 2;
  r.elapsed_ms = std::numeric_limits<double>::quiet_NaN();
  r.queue_ms = std::numeric_limits<double>::infinity();
  r.sp_computations = 1;
  r.nodes_settled = 2;
  r.planner_reason = "only_reason";
  return r;
}

std::vector<TraceSpanWire> GoldenSpans() {
  return {{"server.serialize", 100, 25, 3},
          {"engine.query", -5, 0, 4294967295u}};
}

BatchResponse GoldenBatch() {
  BatchResponse batch;
  batch.results.push_back(OkAnswer());
  QueryResponse shed;
  shed.status = StatusCode::kOverloaded;
  shed.message = "admission queue full";
  shed.queue_ms = 0.5;
  batch.results.push_back(shed);
  batch.results.push_back(EmptyAnswer());
  return batch;
}

/// Parses `text` as a response frame and writes it again from the parsed
/// structs; the bytes must not change.
template <typename Payload, typename FromJson>
void ExpectRewritesIdentically(const std::string& text, FromJson from_json) {
  Result<ResponseEnvelope> envelope = ParseResponse(text);
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  Result<Payload> payload = from_json(envelope.value().payload);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(ResponseText(envelope.value().id, envelope.value().status,
                         envelope.value().message, payload.value(),
                         envelope.value().trace_id,
                         envelope.value().trace_spans),
            text);
}

void ExpectQueryGolden(const std::string& text, const std::string& golden) {
  EXPECT_EQ(text, golden);
  ExpectRewritesIdentically<QueryResponse>(text, QueryResponseFromJson);
}

TEST(WireGoldenTest, OkAnswerWithPaths) {
  const QueryResponse answer = OkAnswer();
  const std::string text = QueryText(answer, 7);
  ExpectQueryGolden(text,
      R"({"v":1,"id":7,"status":"ok","payload":{"status":"ok","paths":[{"nodes":[5,17,42],"length":123},{"nodes":[5,9,11,42],"length":130}],"epoch":3,"elapsed_ms":1.5,"queue_ms":0.25,"sp_computations":4,"nodes_settled":321,"algorithm_chosen":"IterBound_I","planner_reason":"warm_reverse_spt"}})");
  Result<QueryResponse> back = QueryResponseFromJson(PayloadOf(text));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().paths.size(), 2u);
  EXPECT_EQ(back.value().paths[1].nodes, answer.paths[1].nodes);
  EXPECT_EQ(back.value().paths[1].length, 130u);
  EXPECT_EQ(back.value().elapsed_ms, 1.5);
  EXPECT_EQ(back.value().algorithm_chosen, "IterBound_I");
  EXPECT_EQ(back.value().planner_reason, "warm_reverse_spt");
}

TEST(WireGoldenTest, ExtremeIdsLengthsAndTimings) {
  const std::string text = QueryText(ExtremeAnswer(), 8);
  ExpectQueryGolden(text,
      R"({"v":1,"id":8,"status":"ok","payload":{"status":"ok","paths":[{"nodes":[0,4294967294,4294967293],"length":9007199254740993},{"nodes":[4294967294],"length":9223372036854775807}],"epoch":9223372036854775807,"elapsed_ms":1e-300,"queue_ms":123456.789,"sp_computations":9007199254740993,"nodes_settled":4294967296,"algorithm_chosen":"DA"}})");
  Result<QueryResponse> back = QueryResponseFromJson(PayloadOf(text));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().paths[0].nodes,
            (std::vector<NodeId>{0, 4294967294u, 4294967293u}));
  EXPECT_EQ(back.value().paths[0].length, 9007199254740993ull);
  EXPECT_EQ(back.value().elapsed_ms, 1e-300);
  EXPECT_TRUE(back.value().planner_reason.empty());
}

TEST(WireGoldenTest, EmptyAnswer) {
  ExpectQueryGolden(QueryText(EmptyAnswer(), 1),
      R"({"v":1,"id":1,"status":"ok","payload":{"status":"ok","paths":[],"epoch":1,"elapsed_ms":0,"queue_ms":0,"sp_computations":0,"nodes_settled":0}})");
}

TEST(WireGoldenTest, ErrorMessageEscapesAndNonFiniteTimings) {
  const QueryResponse answer = ErrorAnswer();
  const std::string text = QueryText(answer, 2);
  ExpectQueryGolden(text,
      R"({"v":1,"id":2,"status":"deadline_exceeded","message":"bad \"quote\" back\\slash\nline \u0001 end","payload":{"status":"deadline_exceeded","message":"bad \"quote\" back\\slash\nline \u0001 end","paths":[{"nodes":[1,2],"length":7}],"epoch":2,"elapsed_ms":0,"queue_ms":0,"sp_computations":1,"nodes_settled":2,"planner_reason":"only_reason"}})");
  Result<ResponseEnvelope> envelope = ParseResponse(text);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope.value().message, answer.message);
  Result<QueryResponse> back =
      QueryResponseFromJson(envelope.value().payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(back.value().message, answer.message);
  EXPECT_EQ(back.value().elapsed_ms, 0.0);
  EXPECT_EQ(back.value().queue_ms, 0.0);
  EXPECT_TRUE(back.value().algorithm_chosen.empty());
}

TEST(WireGoldenTest, EnvelopeOnlyError) {
  const std::string text = ResponseText(
      9, StatusCode::kInvalidArgument,
      "field 'k' must be \"an integer\"\n\x01", JsonValue::Null());
  EXPECT_EQ(text,
      R"({"v":1,"id":9,"status":"invalid_argument","message":"field 'k' must be \"an integer\"\n\u0001"})");
  Result<ResponseEnvelope> back = ParseResponse(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().message, "field 'k' must be \"an integer\"\n\x01");
  EXPECT_TRUE(back.value().payload.is_null());
}

TEST(WireGoldenTest, TracedEnvelopes) {
  const std::string text =
      QueryText(OkAnswer(), 3, 0x0123456789abcdefull, GoldenSpans());
  ExpectQueryGolden(text,
      R"({"v":1,"id":3,"status":"ok","payload":{"status":"ok","paths":[{"nodes":[5,17,42],"length":123},{"nodes":[5,9,11,42],"length":130}],"epoch":3,"elapsed_ms":1.5,"queue_ms":0.25,"sp_computations":4,"nodes_settled":321,"algorithm_chosen":"IterBound_I","planner_reason":"warm_reverse_spt"},"trace":{"id":"0123456789abcdef","spans":[{"name":"server.serialize","ts":100,"dur":25,"tid":3},{"name":"engine.query","ts":-5,"dur":0,"tid":4294967295}]}})");
  Result<ResponseEnvelope> back = ParseResponse(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().trace_id, 0x0123456789abcdefull);
  ASSERT_EQ(back.value().trace_spans.size(), 2u);
  EXPECT_EQ(back.value().trace_spans[1].ts_us, -5);
  EXPECT_EQ(back.value().trace_spans[1].tid, 4294967295u);

  // A trace id without collected spans echoes the id alone.
  ExpectQueryGolden(QueryText(EmptyAnswer(), 4, 0xff),
      R"({"v":1,"id":4,"status":"ok","payload":{"status":"ok","paths":[],"epoch":1,"elapsed_ms":0,"queue_ms":0,"sp_computations":0,"nodes_settled":0},"trace":{"id":"00000000000000ff"}})");
}

TEST(WireGoldenTest, Batch) {
  const std::string text =
      ResponseText(5, StatusCode::kOk, "", GoldenBatch());
  EXPECT_EQ(text,
      R"({"v":1,"id":5,"status":"ok","payload":{"status":"ok","results":[{"status":"ok","paths":[{"nodes":[5,17,42],"length":123},{"nodes":[5,9,11,42],"length":130}],"epoch":3,"elapsed_ms":1.5,"queue_ms":0.25,"sp_computations":4,"nodes_settled":321,"algorithm_chosen":"IterBound_I","planner_reason":"warm_reverse_spt"},{"status":"overloaded","message":"admission queue full","paths":[],"epoch":0,"elapsed_ms":0,"queue_ms":0.5,"sp_computations":0,"nodes_settled":0},{"status":"ok","paths":[],"epoch":1,"elapsed_ms":0,"queue_ms":0,"sp_computations":0,"nodes_settled":0}]}})");
  ExpectRewritesIdentically<BatchResponse>(text, BatchResponseFromJson);
  Result<BatchResponse> back = BatchResponseFromJson(PayloadOf(text));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().results.size(), 3u);
  EXPECT_EQ(back.value().results[0].paths[0].nodes,
            (std::vector<NodeId>{5, 17, 42}));
  EXPECT_EQ(back.value().results[1].status, StatusCode::kOverloaded);
  EXPECT_EQ(back.value().results[1].message, "admission queue full");

  // A batch-level message and a trace block.
  BatchResponse partial = GoldenBatch();
  partial.status = StatusCode::kInternal;
  partial.message = "partial";
  const std::string traced =
      ResponseText(5, StatusCode::kOk, "", partial, 42, GoldenSpans());
  EXPECT_EQ(traced,
      R"({"v":1,"id":5,"status":"ok","payload":{"status":"internal","message":"partial","results":[{"status":"ok","paths":[{"nodes":[5,17,42],"length":123},{"nodes":[5,9,11,42],"length":130}],"epoch":3,"elapsed_ms":1.5,"queue_ms":0.25,"sp_computations":4,"nodes_settled":321,"algorithm_chosen":"IterBound_I","planner_reason":"warm_reverse_spt"},{"status":"overloaded","message":"admission queue full","paths":[],"epoch":0,"elapsed_ms":0,"queue_ms":0.5,"sp_computations":0,"nodes_settled":0},{"status":"ok","paths":[],"epoch":1,"elapsed_ms":0,"queue_ms":0,"sp_computations":0,"nodes_settled":0}]},"trace":{"id":"000000000000002a","spans":[{"name":"server.serialize","ts":100,"dur":25,"tid":3},{"name":"engine.query","ts":-5,"dur":0,"tid":4294967295}]}})");
  ExpectRewritesIdentically<BatchResponse>(traced, BatchResponseFromJson);
}

// ---------------------------------------------------------------------------
// Hostile JSON: a seeded mutation loop over a valid query frame. Every call
// must come back with a value or a Status (no crash, hang or sanitizer
// report); nothing else is asserted about the mutants.

TEST(HostileJsonTest, MutatedQueryFramesReturnValueOrStatus) {
  RequestEnvelope request;
  request.id = 77;
  QueryRequest query;
  query.sources = {12, 7};
  query.targets = {100, 4000, 4294967294u};
  query.k = 10;
  query.deadline_ms = 2.5;
  query.algorithm = "auto";
  request.payload = ToJson(query);
  request.trace_id = 0xabcdef;
  request.collect_spans = true;
  const std::string valid = SerializeRequest(request);
  ASSERT_TRUE(ParseRequest(valid).ok());

  std::mt19937_64 rng(20240917);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  const std::string alphabet = "{}[]\",:0123456789-+.eEtrufalsn\\u \x01\xff";
  size_t parsed = 0;
  size_t requests = 0;
  size_t queries = 0;
  size_t rejected = 0;
  constexpr int kIterations = 20000;
  for (int i = 0; i < kIterations; ++i) {
    std::string text = valid;
    switch (i % 4) {
      case 0:  // Bit flips.
        for (size_t n = 1 + pick(4); n > 0; --n) {
          text[pick(text.size())] ^= static_cast<char>(1u << pick(8));
        }
        break;
      case 1:  // Truncation.
        text.resize(pick(text.size()));
        break;
      case 2:  // Insertions of JSON-ish bytes.
        for (size_t n = 1 + pick(6); n > 0; --n) {
          const char c = alphabet[pick(alphabet.size())];
          text.insert(pick(text.size() + 1), 1, c);
        }
        break;
      case 3: {  // Deep nesting, spliced in or wrapped around the payload.
        const size_t depth = 1 + pick(200);
        const bool arrays = pick(2) == 0;
        std::string open, close;
        for (size_t d = 0; d < depth; ++d) {
          open += arrays ? "[" : "{\"a\":";
          close += arrays ? "]" : "}";
        }
        const size_t at = text.find("\"payload\":") + 10;
        if (pick(2) == 0) {
          text.insert(pick(text.size() + 1), open);
        } else {
          text.insert(text.find(",\"trace\""), close);
          text.insert(at, open);
        }
        break;
      }
    }
    Result<JsonValue> doc = JsonValue::Parse(text);
    EXPECT_TRUE(doc.ok() || !doc.status().ok());
    if (doc.ok()) {
      ++parsed;
      Result<QueryRequest> whole = QueryRequestFromJson(doc.value());
      EXPECT_TRUE(whole.ok() || !whole.status().ok());
    }
    Result<RequestEnvelope> envelope = ParseRequest(text);
    if (!envelope.ok()) {
      ++rejected;
      EXPECT_FALSE(envelope.status().ok());
      continue;
    }
    ++requests;
    Result<QueryRequest> payload =
        QueryRequestFromJson(envelope.value().payload);
    if (payload.ok()) ++queries;
  }
  // The loop must reach every layer: some mutants survive each parser and
  // some are refused.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(requests, 0u);
  EXPECT_GT(queries, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// Shared options parser

std::vector<std::string> Args(std::initializer_list<const char*> parts) {
  return std::vector<std::string>(parts.begin(), parts.end());
}

TEST(OptionsParseTest, ParsesTheSharedVocabulary) {
  Result<ParsedArgs> args = ParseFlagsOnly(Args(
      {"--workers", "4", "--intra-threads", "2", "--cache-mb", "16",
       "--deadline-ms", "25", "--slow-query-ms", "1.5", "--algorithm",
       "da-spt", "--alpha", "1.3"}));
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  Result<EngineConfig> config = ParseEngineConfig(args.value());
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config.value().workers, 4u);
  // --intra-threads is advisory-clamped to the hardware concurrency, so on
  // a single-core machine the requested 2 lands as 1.
  EXPECT_EQ(config.value().intra_threads,
            std::min(2u, std::max(1u, std::thread::hardware_concurrency())));
  EXPECT_EQ(config.value().cache_mb, 16u);
  EXPECT_EQ(config.value().deadline_ms, 25.0);
  EXPECT_EQ(config.value().slow_query_ms, 1.5);
  EXPECT_EQ(config.value().algorithm, Algorithm::kDaSpt);
  EXPECT_EQ(config.value().alpha, 1.3);
}

TEST(OptionsParseTest, ThreadsIsAnAliasForWorkers) {
  Result<ParsedArgs> args = ParseFlagsOnly(Args({"--threads", "3"}));
  ASSERT_TRUE(args.ok());
  Result<EngineConfig> config = ParseEngineConfig(args.value());
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().workers, 3u);
  // --workers wins when both are present, and errors name the spelling the
  // user actually wrote.
  Result<ParsedArgs> both =
      ParseFlagsOnly(Args({"--threads", "3", "--workers", "5"}));
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(ParseEngineConfig(both.value()).value().workers, 5u);
  Result<ParsedArgs> bad = ParseFlagsOnly(Args({"--threads", "0"}));
  ASSERT_TRUE(bad.ok());
  Result<EngineConfig> err = ParseEngineConfig(bad.value());
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.status().ToString().find("--threads"), std::string::npos);
}

TEST(OptionsParseTest, DefaultsComeFromTheCaller) {
  Result<ParsedArgs> args = ParseFlagsOnly(Args({}));
  ASSERT_TRUE(args.ok());
  EngineConfigDefaults daemon_defaults;  // workers=1, cache_mb=64.
  Result<EngineConfig> config =
      ParseEngineConfig(args.value(), daemon_defaults);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().workers, 1u);
  EXPECT_EQ(config.value().cache_mb, 64u);
}

TEST(OptionsParseTest, RejectsInvalidValuesWithFlagSpelledErrors) {
  struct Case {
    std::vector<std::string> args;
    const char* needle;
  };
  for (const Case& c : std::initializer_list<Case>{
           {Args({"--workers", "0"}), "--workers"},
           {Args({"--intra-threads", "-1"}), "--intra-threads"},
           {Args({"--cache-mb", "-5"}), "--cache-mb"},
           {Args({"--cache-mb", "8", "--no-cache"}), "mutually exclusive"},
           {Args({"--deadline-ms", "-1"}), "--deadline-ms"},
           {Args({"--alpha", "1.0"}), "--alpha"},
           {Args({"--algorithm", "quantum"}), "algorithm"},
       }) {
    Result<ParsedArgs> args = ParseFlagsOnly(c.args);
    ASSERT_TRUE(args.ok());
    Result<EngineConfig> config = ParseEngineConfig(args.value());
    ASSERT_FALSE(config.ok()) << c.needle;
    EXPECT_NE(config.status().ToString().find(c.needle), std::string::npos)
        << config.status().ToString();
  }
}

TEST(OptionsParseTest, NoCacheDisablesTheCache) {
  Result<ParsedArgs> args = ParseFlagsOnly(Args({"--no-cache"}));
  ASSERT_TRUE(args.ok());
  EngineConfigDefaults defaults;
  Result<EngineConfig> config = ParseEngineConfig(args.value(), defaults);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().cache_mb, 0u);
}

TEST(OptionsParseTest, ParseArgsKeepsTheCommandGrammar) {
  std::vector<std::string> argv =
      Args({"query", "--graph", "g.bin", "--stats", "--k=5"});
  Result<ParsedArgs> parsed = ParseArgs(argv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().command, "query");
  EXPECT_EQ(parsed.value().Get("graph").value_or(""), "g.bin");
  EXPECT_TRUE(parsed.value().Has("stats"));
  EXPECT_EQ(parsed.value().GetInt("k", 0).value(), 5);
  EXPECT_FALSE(parsed.value().Require("absent").ok());
}

}  // namespace
}  // namespace kpj::api
