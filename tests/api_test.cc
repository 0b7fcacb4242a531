// The versioned request/response API layer (src/api/): JSON document tree,
// wire payload round-trips, envelope versioning rules, status-code
// vocabulary, and the shared options parser that kpj_cli and kpjd both
// speak.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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
  Result<QueryResponse> back = QueryResponseFromJson(ToJson(response));
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
  Result<BatchResponse> rback = BatchResponseFromJson(ToJson(response));
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
  ResponseEnvelope response = ErrorResponse(
      9, StatusCode::kUnavailable, "server is draining");
  Result<ResponseEnvelope> back = ParseResponse(SerializeResponse(response));
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
