// kpjd service-layer lifecycle: byte-identity with the in-process engine,
// admission control / overload shedding, queue-time deadline budgets, hot
// instance swap (epochs never mix), and graceful drain with every
// in-flight query answered.
//
// Tests drive server::KpjServer directly on a loopback port, speaking the
// wire protocol through util/socket.h — the same bytes kpj_client sends.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/api.h"
#include "api/wire.h"
#include "core/engine.h"
#include "core/kpj_instance.h"
#include "gen/road_gen.h"
#include "graph/serialize.h"
#include "index/landmark_index.h"
#include "server/server.h"
#include "util/timer.h"
#include "util/trace.h"

namespace kpj::server {
namespace {

// ---------------------------------------------------------------------------
// AdmissionController unit tests.

TEST(AdmissionControllerTest, AdmitsUpToSlotsThenShedsAtTheQueueBound) {
  AdmissionController admission(/*slots=*/1, /*max_queue=*/0);
  double queue_ms = -1.0;
  ASSERT_EQ(admission.Admit(0.0, &queue_ms),
            AdmissionController::Outcome::kAdmitted);
  EXPECT_GE(queue_ms, 0.0);
  EXPECT_EQ(admission.in_flight(), 1u);
  // Slot taken, queue bound 0: the next arrival sheds immediately.
  EXPECT_EQ(admission.Admit(1000.0, &queue_ms),
            AdmissionController::Outcome::kQueueFull);
  admission.Release();
  EXPECT_EQ(admission.in_flight(), 0u);
  EXPECT_EQ(admission.Admit(0.0, &queue_ms),
            AdmissionController::Outcome::kAdmitted);
  admission.Release();
}

TEST(AdmissionControllerTest, WaiterIsShedWhenQueueTimeEatsTheDeadline) {
  AdmissionController admission(/*slots=*/1, /*max_queue=*/4);
  double queue_ms = 0.0;
  ASSERT_EQ(admission.Admit(0.0, &queue_ms),
            AdmissionController::Outcome::kAdmitted);
  // The slot is never released, so a 20 ms budget must expire in queue.
  Timer timer;
  EXPECT_EQ(admission.Admit(20.0, &queue_ms),
            AdmissionController::Outcome::kDeadlineExhausted);
  EXPECT_GE(timer.ElapsedMillis(), 15.0);
  admission.Release();
}

TEST(AdmissionControllerTest, WaiterProceedsWhenASlotFrees) {
  AdmissionController admission(/*slots=*/1, /*max_queue=*/4);
  double queue_ms = 0.0;
  ASSERT_EQ(admission.Admit(0.0, &queue_ms),
            AdmissionController::Outcome::kAdmitted);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    admission.Release();
  });
  // Unbounded deadline: waits until the releaser frees the slot.
  EXPECT_EQ(admission.Admit(0.0, &queue_ms),
            AdmissionController::Outcome::kAdmitted);
  EXPECT_GT(queue_ms, 0.0);
  releaser.join();
  admission.Release();
}

// ---------------------------------------------------------------------------
// Server fixture and wire-speaking test client.

std::string GraphPath(uint32_t nodes, uint64_t seed) {
  std::string path = ::testing::TempDir() + "kpj_server_test_" +
                     std::to_string(nodes) + "_" + std::to_string(seed) +
                     ".bin";
  RoadGenOptions opt;
  opt.target_nodes = nodes;
  opt.seed = seed;
  Graph graph = GenerateRoadNetwork(opt).graph;
  Status saved = SaveGraphBinary(graph, Permutation(), path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return path;
}

/// One connection to a test server; every request round-trips through the
/// real serialized wire format.
class Client {
 public:
  explicit Client(uint16_t port) {
    Result<Socket> socket = ConnectTcp("127.0.0.1", port);
    EXPECT_TRUE(socket.ok()) << socket.status().ToString();
    socket_ = std::move(socket).value();
  }

  Status Send(api::RequestType type, api::JsonValue payload, uint64_t id = 1,
              uint64_t trace_id = 0, bool collect = false) {
    api::RequestEnvelope request;
    request.id = id;
    request.type = type;
    request.payload = std::move(payload);
    request.trace_id = trace_id;
    request.collect_spans = collect;
    return WriteFrame(socket_, api::SerializeRequest(request));
  }

  Result<api::ResponseEnvelope> Receive() {
    Result<Frame> frame = ReadFrame(socket_, 64u << 20);
    if (!frame.ok()) return frame.status();
    if (frame.value().eof) return Status::IoError("unexpected EOF");
    return api::ParseResponse(frame.value().payload);
  }

  Result<api::ResponseEnvelope> RoundTrip(api::RequestType type,
                                          api::JsonValue payload,
                                          uint64_t id = 1,
                                          uint64_t trace_id = 0,
                                          bool collect = false) {
    Status sent = Send(type, std::move(payload), id, trace_id, collect);
    if (!sent.ok()) return sent;
    return Receive();
  }

  Result<api::QueryResponse> Query(const api::QueryRequest& request) {
    Result<api::ResponseEnvelope> envelope =
        RoundTrip(api::RequestType::kQuery, api::ToJson(request));
    if (!envelope.ok()) return envelope.status();
    return api::QueryResponseFromJson(envelope.value().payload);
  }

  Socket& socket() { return socket_; }

 private:
  Socket socket_;
};

api::QueryRequest MakeRequest(std::vector<NodeId> sources,
                              std::vector<NodeId> targets, uint32_t k) {
  api::QueryRequest request;
  request.sources = std::move(sources);
  request.targets = std::move(targets);
  request.k = k;
  return request;
}

/// The in-process reference: same file, same config, same RunBatch entry
/// point the daemon uses. Byte-identity means node sequences and lengths
/// match this exactly.
std::vector<KpjResult> InProcess(const std::string& graph_path,
                                 const api::EngineConfig& config,
                                 const std::vector<KpjQuery>& queries) {
  Result<GraphFile> file = LoadGraphAuto(graph_path);
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  Result<KpjInstance> instance = KpjInstance::Wrap(
      std::move(file.value().graph), std::move(file.value().permutation));
  EXPECT_TRUE(instance.ok());
  KpjEngine engine(instance.value(), config.ToEngineOptions());
  std::vector<Result<KpjResult>> raw = engine.RunBatch(queries);
  std::vector<KpjResult> results;
  for (Result<KpjResult>& r : raw) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(r.ok() ? std::move(r).value() : KpjResult{});
  }
  return results;
}

void ExpectSamePaths(const api::QueryResponse& response,
                     const KpjResult& reference, const std::string& where) {
  ASSERT_EQ(response.paths.size(), reference.paths.size()) << where;
  for (size_t i = 0; i < reference.paths.size(); ++i) {
    EXPECT_EQ(response.paths[i].length, reference.paths[i].length)
        << where << " path " << i;
    std::vector<NodeId> expected(reference.paths[i].nodes.begin(),
                                 reference.paths[i].nodes.end());
    EXPECT_EQ(response.paths[i].nodes, expected) << where << " path " << i;
  }
}

KpjServerOptions SmallServerOptions(const std::string& graph_path) {
  KpjServerOptions options;
  options.graph_path = graph_path;
  options.engine.workers = 2;
  options.engine.cache_mb = 8;
  return options;
}

// ---------------------------------------------------------------------------
// Byte-identity: the daemon's answers equal in-process RunBatch answers.

TEST(KpjServerTest, QueriesAreByteIdenticalToInProcessEngine) {
  const std::string path = GraphPath(2500, 21);
  KpjServer server(SmallServerOptions(path));
  ASSERT_TRUE(server.Start().ok());

  std::vector<api::QueryRequest> requests = {
      MakeRequest({5}, {100, 200, 300}, 4),
      MakeRequest({17}, {900}, 8),
      MakeRequest({3, 7}, {250, 260, 270}, 5),  // GKPJ (two sources).
  };
  std::vector<KpjQuery> queries;
  for (const api::QueryRequest& r : requests) queries.push_back(r.ToQuery());
  api::EngineConfig config = SmallServerOptions(path).engine;
  std::vector<KpjResult> reference = InProcess(path, config, queries);

  Client client(server.port());
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<api::QueryResponse> response = client.Query(requests[i]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, api::StatusCode::kOk);
    EXPECT_EQ(response.value().epoch, 1u);
    ExpectSamePaths(response.value(), reference[i],
                    "query " + std::to_string(i));
  }
}

TEST(KpjServerTest, BatchIsByteIdenticalAndOrderPreserving) {
  const std::string path = GraphPath(2500, 21);
  KpjServer server(SmallServerOptions(path));
  ASSERT_TRUE(server.Start().ok());

  api::BatchRequest batch;
  batch.queries = {
      MakeRequest({1}, {500, 600}, 3),
      MakeRequest({2}, {700}, 6),
      MakeRequest({9}, {40, 41, 42}, 2),
  };
  std::vector<KpjQuery> queries;
  for (const api::QueryRequest& r : batch.queries) {
    queries.push_back(r.ToQuery());
  }
  std::vector<KpjResult> reference =
      InProcess(path, SmallServerOptions(path).engine, queries);

  Client client(server.port());
  Result<api::ResponseEnvelope> envelope =
      client.RoundTrip(api::RequestType::kBatch, api::ToJson(batch));
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  EXPECT_EQ(envelope.value().status, api::StatusCode::kOk);
  Result<api::BatchResponse> response =
      api::BatchResponseFromJson(envelope.value().payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.value().results.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(response.value().results[i].status, api::StatusCode::kOk);
    ExpectSamePaths(response.value().results[i], reference[i],
                    "batch entry " + std::to_string(i));
  }
}

TEST(KpjServerTest, LandmarkIndexIsLoadedAndValidated) {
  const std::string path = GraphPath(2500, 21);
  Result<GraphFile> file = LoadGraphAuto(path);
  ASSERT_TRUE(file.ok());
  LandmarkIndexOptions opt;
  opt.num_landmarks = 4;
  LandmarkIndex landmarks = LandmarkIndex::Build(
      file.value().graph, file.value().graph.Reverse(), opt);
  const std::string lm_path = ::testing::TempDir() + "kpj_server_test.lm";
  ASSERT_TRUE(landmarks.Save(lm_path).ok());

  KpjServerOptions options = SmallServerOptions(path);
  options.landmarks_path = lm_path;
  KpjServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  Result<api::QueryResponse> response =
      client.Query(MakeRequest({5}, {100, 200}, 3));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, api::StatusCode::kOk);

  // The same index against a different graph must fail Start().
  KpjServerOptions wrong = SmallServerOptions(GraphPath(1500, 22));
  wrong.landmarks_path = lm_path;
  KpjServer bad(std::move(wrong));
  Status started = bad.Start();
  ASSERT_FALSE(started.ok());
  EXPECT_NE(started.ToString().find("different graph"), std::string::npos);
}

TEST(KpjServerTest, StartFailsOnMissingGraph) {
  KpjServerOptions options;
  options.graph_path = "/nonexistent/graph.bin";
  KpjServer server(std::move(options));
  EXPECT_FALSE(server.Start().ok());
}

// ---------------------------------------------------------------------------
// Protocol-level behavior.

TEST(KpjServerTest, MalformedAndInvalidRequestsAreRejected) {
  const std::string path = GraphPath(2500, 21);
  KpjServer server(SmallServerOptions(path));
  ASSERT_TRUE(server.Start().ok());

  {
    // Not JSON at all: the server answers with kInvalidArgument, then
    // closes (it cannot trust the stream framing after garbage).
    Client client(server.port());
    ASSERT_TRUE(WriteFrame(client.socket(), "not json").ok());
    Result<Frame> frame = ReadFrame(client.socket(), 64u << 20);
    ASSERT_TRUE(frame.ok());
    Result<api::ResponseEnvelope> response =
        api::ParseResponse(frame.value().payload);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, api::StatusCode::kInvalidArgument);
  }
  {
    // A v=2 request: versioning rule says reject, name both versions.
    Client client(server.port());
    ASSERT_TRUE(
        WriteFrame(client.socket(), "{\"v\":2,\"id\":3,\"type\":\"health\"}")
            .ok());
    Result<Frame> frame = ReadFrame(client.socket(), 64u << 20);
    ASSERT_TRUE(frame.ok());
    Result<api::ResponseEnvelope> response =
        api::ParseResponse(frame.value().payload);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, api::StatusCode::kInvalidArgument);
    EXPECT_NE(response.value().message.find("version"), std::string::npos);
  }
  {
    // Well-formed envelope, semantically invalid query (out-of-range id):
    // the connection stays usable afterwards.
    Client client(server.port());
    Result<api::QueryResponse> bad =
        client.Query(MakeRequest({1u << 30}, {1}, 1));
    ASSERT_TRUE(bad.ok());
    EXPECT_EQ(bad.value().status, api::StatusCode::kInvalidArgument);
    Result<api::QueryResponse> good =
        client.Query(MakeRequest({5}, {100}, 1));
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value().status, api::StatusCode::kOk);
  }
}

TEST(KpjServerTest, HostileKIsRejectedWithinASecond) {
  // A k of 2e9 asks for unbounded solver work and memory; the wire parser
  // rejects any k above api::kMaxK before admission.
  const std::string path = GraphPath(2500, 21);
  KpjServer server(SmallServerOptions(path));
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  auto start = std::chrono::steady_clock::now();
  Result<api::ResponseEnvelope> hostile = client.RoundTrip(
      api::RequestType::kQuery,
      api::ToJson(MakeRequest({5}, {100}, 2000000000u)));
  auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(hostile.ok()) << hostile.status().ToString();
  EXPECT_EQ(hostile.value().status, api::StatusCode::kInvalidArgument);
  EXPECT_NE(hostile.value().message.find(std::to_string(api::kMaxK)),
            std::string::npos)
      << hostile.value().message;
  EXPECT_LT(waited, std::chrono::seconds(1));
  EXPECT_EQ(server.MetricsSnapshot().queries_served, 0u);

  Result<api::ResponseEnvelope> health =
      client.RoundTrip(api::RequestType::kHealth, api::JsonValue::Null());
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status, api::StatusCode::kOk);
}

TEST(KpjServerTest, HealthAndMetricsReportServerState) {
  const std::string path = GraphPath(2500, 21);
  KpjServer server(SmallServerOptions(path));
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  Result<api::ResponseEnvelope> health =
      client.RoundTrip(api::RequestType::kHealth, api::JsonValue::Null());
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, api::StatusCode::kOk);
  Result<api::HealthInfo> info =
      api::HealthInfoFromJson(health.value().payload);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().serving);
  EXPECT_EQ(info.value().epoch, 1u);
  EXPECT_EQ(info.value().graph, path);

  ASSERT_TRUE(
      client.Query(MakeRequest({5}, {100}, 2)).status().ok());

  // The schema itself is pinned by observability_test against the
  // registry; here the server's own entries must count this traffic.
  EngineMetricsSnapshot metrics = server.MetricsSnapshot();
  EXPECT_EQ(metrics.server_accepted, 1u);
  EXPECT_EQ(metrics.server_rejected, 0u);
  EXPECT_EQ(metrics.server_queue_time_ms.count, 1u);
  EXPECT_EQ(metrics.server_epoch, 1.0);
  EXPECT_EQ(metrics.queries_served, 1u);
  std::string prom = server.MetricsPrometheus();
  EXPECT_NE(prom.find("kpj_server_accepted_total 1\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("kpj_server_queue_time_ms_count 1\n"),
            std::string::npos)
      << prom;

  // The metrics request type serves the same expositions over the wire.
  api::MetricsRequest prom_request;
  prom_request.format = "prom";
  Result<api::ResponseEnvelope> wire_metrics = client.RoundTrip(
      api::RequestType::kMetrics, api::ToJson(prom_request));
  ASSERT_TRUE(wire_metrics.ok());
  const api::JsonValue* body = wire_metrics.value().payload.Find("body");
  ASSERT_NE(body, nullptr);
  EXPECT_NE(body->string_value().find("kpj_server_accepted_total"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Overload shedding and queue-time budgets.
//
// workers=1 and a heavy query pin the single engine slot; what happens to
// concurrent arrivals is then deterministic: queue-bound sheds at arrival,
// budget sheds while waiting.

std::string HeavyGraphPath() {
  static const std::string* path = new std::string(GraphPath(60000, 5));
  return *path;
}

api::QueryRequest HeavyRequest(uint32_t num_nodes) {
  // Far-apart endpoints, many targets, large k: hundreds of milliseconds
  // of work pinning the single engine slot.
  std::vector<NodeId> targets;
  for (uint32_t i = 1; i <= 16; ++i) targets.push_back(num_nodes - i);
  return MakeRequest({0}, std::move(targets), 2048);
}

uint32_t HeavyGraphNodes() {
  Result<GraphFile> file = LoadGraphAuto(HeavyGraphPath());
  EXPECT_TRUE(file.ok());
  return file.value().graph.NumNodes();
}

TEST(KpjServerTest, OverloadShedsWithBoundedQueueNeverUnbounded) {
  KpjServerOptions options;
  options.graph_path = HeavyGraphPath();
  options.engine.workers = 1;
  options.max_queue = 0;  // No waiting: the second query sheds at arrival.
  KpjServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());
  const uint32_t n = HeavyGraphNodes();

  Client heavy(server.port());
  ASSERT_TRUE(
      heavy.Send(api::RequestType::kQuery, api::ToJson(HeavyRequest(n)))
          .ok());
  // Give the heavy query time to be admitted and start executing.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  Client shed_client(server.port());
  Result<api::QueryResponse> shed =
      shed_client.Query(MakeRequest({1}, {2}, 1));
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed.value().status, api::StatusCode::kOverloaded);
  EXPECT_TRUE(shed.value().paths.empty());

  Result<api::ResponseEnvelope> heavy_envelope = heavy.Receive();
  ASSERT_TRUE(heavy_envelope.ok());
  Result<api::QueryResponse> heavy_response =
      api::QueryResponseFromJson(heavy_envelope.value().payload);
  ASSERT_TRUE(heavy_response.ok());
  EXPECT_EQ(heavy_response.value().status, api::StatusCode::kOk);
  EXPECT_FALSE(heavy_response.value().paths.empty());

  std::string json = server.MetricsJson();
  EXPECT_NE(json.find("\"server_shed\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"server_accepted\": 1"), std::string::npos) << json;
}

TEST(KpjServerTest, QueueTimeIsDeductedFromTheDeadline) {
  KpjServerOptions options;
  options.graph_path = HeavyGraphPath();
  options.engine.workers = 1;
  options.max_queue = 4;  // Waiting allowed: the budget decides.
  KpjServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());
  const uint32_t n = HeavyGraphNodes();

  Client heavy(server.port());
  ASSERT_TRUE(
      heavy.Send(api::RequestType::kQuery, api::ToJson(HeavyRequest(n)))
          .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // 20 ms budget, but the single slot is busy for much longer: the queue
  // wait consumes the whole deadline and the query is shed, never run.
  api::QueryRequest bounded = MakeRequest({1}, {2}, 1);
  bounded.deadline_ms = 20.0;
  Client waiter(server.port());
  Result<api::QueryResponse> shed = waiter.Query(bounded);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed.value().status, api::StatusCode::kOverloaded);
  EXPECT_GE(shed.value().queue_ms, 15.0);

  Result<api::ResponseEnvelope> heavy_envelope = heavy.Receive();
  ASSERT_TRUE(heavy_envelope.ok());
  EXPECT_EQ(heavy_envelope.value().status, api::StatusCode::kOk);
}

// ---------------------------------------------------------------------------
// Hot swap: epochs never mix.

TEST(KpjServerTest, HotSwapMidTrafficNeverMixesEpochs) {
  const std::string path_a = GraphPath(2500, 21);
  const std::string path_b = GraphPath(2500, 22);
  const api::QueryRequest request = MakeRequest({3}, {50, 60}, 4);

  api::EngineConfig config = SmallServerOptions(path_a).engine;
  KpjResult ref_a =
      InProcess(path_a, config, {request.ToQuery()}).front();
  KpjResult ref_b =
      InProcess(path_b, config, {request.ToQuery()}).front();

  KpjServer server(SmallServerOptions(path_a));
  ASSERT_TRUE(server.Start().ok());

  // Traffic thread: issue the same query continuously across the swap.
  // Every response must be internally consistent: epoch 1 answers match
  // graph A exactly, epoch 2 answers match graph B exactly.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> epochs_seen{0};  // Bitmask of observed epochs.
  std::thread traffic([&] {
    Client client(server.port());
    while (!stop.load()) {
      Result<api::QueryResponse> response = client.Query(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response.value().status, api::StatusCode::kOk);
      ASSERT_TRUE(response.value().epoch == 1 ||
                  response.value().epoch == 2);
      epochs_seen.fetch_or(uint64_t{1} << response.value().epoch);
      const KpjResult& ref =
          response.value().epoch == 1 ? ref_a : ref_b;
      ExpectSamePaths(response.value(), ref,
                      "epoch " + std::to_string(response.value().epoch));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  api::SwapRequest swap;
  swap.graph = path_b;
  Result<api::SwapInfo> info = server.Swap(swap);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().old_epoch, 1u);
  EXPECT_EQ(info.value().new_epoch, 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  traffic.join();

  // Both generations actually served traffic.
  EXPECT_EQ(epochs_seen.load(), (1u << 1) | (1u << 2));

  // After the swap, answers come from graph B.
  Client client(server.port());
  Result<api::QueryResponse> response = client.Query(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().epoch, 2u);
  ExpectSamePaths(response.value(), ref_b, "post-swap");
}

TEST(KpjServerTest, SwapOverTheWireAndFailedSwapKeepsServing) {
  const std::string path_a = GraphPath(2500, 21);
  const std::string path_b = GraphPath(2500, 22);
  KpjServer server(SmallServerOptions(path_a));
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  // A swap to a missing file fails and the old epoch keeps serving.
  api::SwapRequest bad;
  bad.graph = "/nonexistent/graph.bin";
  Result<api::ResponseEnvelope> bad_envelope =
      client.RoundTrip(api::RequestType::kSwap, api::ToJson(bad));
  ASSERT_TRUE(bad_envelope.ok());
  EXPECT_NE(bad_envelope.value().status, api::StatusCode::kOk);
  Result<api::QueryResponse> still =
      client.Query(MakeRequest({5}, {100}, 1));
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still.value().status, api::StatusCode::kOk);
  EXPECT_EQ(still.value().epoch, 1u);

  // A good swap over the wire flips the epoch.
  api::SwapRequest good;
  good.graph = path_b;
  Result<api::ResponseEnvelope> good_envelope =
      client.RoundTrip(api::RequestType::kSwap, api::ToJson(good));
  ASSERT_TRUE(good_envelope.ok());
  ASSERT_EQ(good_envelope.value().status, api::StatusCode::kOk)
      << good_envelope.value().message;
  Result<api::SwapInfo> info =
      api::SwapInfoFromJson(good_envelope.value().payload);
  ASSERT_TRUE(info.ok());
  // The failed swap consumed an epoch number; what matters is monotonic
  // progression from the old epoch.
  EXPECT_EQ(info.value().old_epoch, 1u);
  EXPECT_GT(info.value().new_epoch, 1u);
  Result<api::QueryResponse> swapped =
      client.Query(MakeRequest({5}, {100}, 1));
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(swapped.value().epoch, info.value().new_epoch);
}

TEST(KpjServerTest, CorruptV4SwapIsRejectedWhileOldEpochServes) {
  const std::string path_a = GraphPath(2500, 21);

  // Write graph B as a v4 (mmap) file, plus a copy with one byte flipped
  // in the middle of the adjacency section.
  RoadGenOptions gen;
  gen.target_nodes = 2500;
  gen.seed = 22;
  Graph graph_b = GenerateRoadNetwork(gen).graph;
  const std::string v4_path =
      ::testing::TempDir() + "kpj_server_swap_v4.bin";
  const std::string corrupt_path =
      ::testing::TempDir() + "kpj_server_swap_v4_corrupt.bin";
  GraphFileSections sections;
  sections.graph = &graph_b;
  ASSERT_TRUE(SaveGraphFileV4(sections, v4_path).ok());
  {
    std::ifstream in(v4_path, std::ios::binary);
    std::ofstream out(corrupt_path, std::ios::binary);
    out << in.rdbuf();
  }
  uint64_t flip_at = 0;
  {
    Result<MappedGraphBundle> mapped = MapGraphFile(v4_path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    for (const SectionEntry& e : mapped.value().file->directory()) {
      if (GraphSectionKindName(e.kind) == "graph.adjacency") {
        flip_at = e.offset + e.bytes / 2;
      }
    }
  }
  ASSERT_GT(flip_at, 0u);
  {
    std::fstream f(corrupt_path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(flip_at));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(flip_at));
    f.write(&byte, 1);
  }

  KpjServer server(SmallServerOptions(path_a));
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  // The corrupt file is rejected with the damaged section named, and the
  // old epoch keeps serving.
  api::SwapRequest bad;
  bad.graph = corrupt_path;
  Result<api::ResponseEnvelope> bad_envelope =
      client.RoundTrip(api::RequestType::kSwap, api::ToJson(bad));
  ASSERT_TRUE(bad_envelope.ok());
  EXPECT_NE(bad_envelope.value().status, api::StatusCode::kOk);
  EXPECT_NE(bad_envelope.value().message.find("graph.adjacency"),
            std::string::npos)
      << bad_envelope.value().message;
  Result<api::QueryResponse> still =
      client.Query(MakeRequest({5}, {100}, 1));
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still.value().status, api::StatusCode::kOk);
  EXPECT_EQ(still.value().epoch, 1u);

  // The intact v4 file swaps in (mapped, zero-copy) and its answers match
  // the in-process reference for graph B exactly.
  api::SwapRequest good;
  good.graph = v4_path;
  Result<api::ResponseEnvelope> good_envelope =
      client.RoundTrip(api::RequestType::kSwap, api::ToJson(good));
  ASSERT_TRUE(good_envelope.ok());
  ASSERT_EQ(good_envelope.value().status, api::StatusCode::kOk)
      << good_envelope.value().message;
  Result<api::SwapInfo> info =
      api::SwapInfoFromJson(good_envelope.value().payload);
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info.value().new_epoch, 1u);

  const api::QueryRequest request = MakeRequest({5}, {100}, 3);
  KpjResult ref_b = InProcess(v4_path, SmallServerOptions(path_a).engine,
                              {request.ToQuery()})
                        .front();
  Result<api::QueryResponse> swapped = client.Query(request);
  ASSERT_TRUE(swapped.ok());
  ASSERT_EQ(swapped.value().status, api::StatusCode::kOk);
  EXPECT_EQ(swapped.value().epoch, info.value().new_epoch);
  ExpectSamePaths(swapped.value(), ref_b, "mapped epoch");

  // Exactly one swap succeeded, and the serving state reports its mapping.
  EngineMetricsSnapshot metrics = server.MetricsSnapshot();
  EXPECT_EQ(metrics.server_swap_ms.count, 1u);
  EXPECT_GT(metrics.server_mapped_bytes, 0.0);
}

// ---------------------------------------------------------------------------
// Graceful drain.

TEST(KpjServerTest, DrainAnswersInFlightAndRefusesNewWork) {
  KpjServerOptions options;
  options.graph_path = HeavyGraphPath();
  options.engine.workers = 1;
  KpjServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());
  const uint32_t n = HeavyGraphNodes();

  // Pipeline two requests on one connection: the heavy one is executing
  // when drain hits; the second is already buffered behind it, so the
  // server must answer it (with kUnavailable) before closing.
  Client client(server.port());
  ASSERT_TRUE(
      client.Send(api::RequestType::kQuery, api::ToJson(HeavyRequest(n)), 1)
          .ok());
  ASSERT_TRUE(client
                  .Send(api::RequestType::kQuery,
                        api::ToJson(MakeRequest({1}, {2}, 1)), 2)
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  server.RequestDrain();
  EXPECT_TRUE(server.draining());

  Result<api::ResponseEnvelope> first = client.Receive();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().id, 1u);
  EXPECT_EQ(first.value().status, api::StatusCode::kOk);
  Result<api::QueryResponse> heavy_response =
      api::QueryResponseFromJson(first.value().payload);
  ASSERT_TRUE(heavy_response.ok());
  EXPECT_FALSE(heavy_response.value().paths.empty());

  Result<api::ResponseEnvelope> second = client.Receive();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().id, 2u);
  EXPECT_EQ(second.value().status, api::StatusCode::kUnavailable);

  // Wait() returns: accept loop exited, connections closed, no leaks.
  server.Wait();
  std::string json = server.MetricsJson();
  EXPECT_NE(json.find("\"server_drained\": 1"), std::string::npos) << json;
}

TEST(KpjServerTest, DrainRequestOverTheWireIsAcknowledged) {
  const std::string path = GraphPath(2500, 21);
  KpjServer server(SmallServerOptions(path));
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  Result<api::ResponseEnvelope> ack = client.RoundTrip(
      api::RequestType::kDrain, api::JsonValue::Null(), /*id=*/77);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value().status, api::StatusCode::kOk);
  EXPECT_EQ(ack.value().id, 77u);
  EXPECT_TRUE(server.draining());
  server.Wait();
}

TEST(KpjServerTest, DestructorDrainsCleanlyWithOpenConnections) {
  const std::string path = GraphPath(2500, 21);
  auto server = std::make_unique<KpjServer>(SmallServerOptions(path));
  ASSERT_TRUE(server->Start().ok());
  Client client(server->port());
  ASSERT_TRUE(client.Query(MakeRequest({5}, {100}, 1)).ok());
  // Destroying the server with a live idle connection must not hang.
  server.reset();
}

/// Sends raw bytes, bypassing WriteFrame, so a test can stop mid-frame.
void SendRaw(const Socket& socket, std::string_view bytes) {
  ASSERT_EQ(::send(socket.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

/// The first bytes of a request frame: a length prefix announcing
/// `payload` and a part of it.
std::string FramePrefix(const std::string& payload, size_t keep) {
  const uint32_t size = static_cast<uint32_t>(payload.size());
  std::string bytes = {static_cast<char>(size >> 24),
                       static_cast<char>(size >> 16),
                       static_cast<char>(size >> 8), static_cast<char>(size)};
  return bytes + payload.substr(0, keep);
}

TEST(KpjServerTest, DrainClosesAConnectionStalledMidFrame) {
  // A peer that sends part of a frame and stalls must not hold the drain
  // open: after kDrainMidFrameGrace the server closes the connection and
  // Wait() returns.
  const std::string path = GraphPath(2500, 21);
  KpjServer server(SmallServerOptions(path));
  ASSERT_TRUE(server.Start().ok());
  Result<Socket> stalled = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(stalled.ok()) << stalled.status().ToString();
  const std::string payload = api::SerializeRequest(api::RequestEnvelope{});
  SendRaw(stalled.value(), FramePrefix(payload, 3));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server.RequestDrain();
  const auto drained_at = std::chrono::steady_clock::now();
  std::future<void> waited =
      std::async(std::launch::async, [&server] { server.Wait(); });
  if (waited.wait_for(kDrainMidFrameGrace + std::chrono::seconds(3)) !=
      std::future_status::ready) {
    stalled.value().Close();  // Unblock the server so the test fails
    waited.wait();            // instead of hanging.
    FAIL() << "Wait() did not return within the drain grace";
  }
  // The peer got the whole grace, not an immediate hang-up.
  EXPECT_GE(std::chrono::steady_clock::now() - drained_at,
            kDrainMidFrameGrace - std::chrono::milliseconds(50));
  // The server closed its end without answering the partial frame.
  Result<Frame> after = ReadFrame(stalled.value(), 1 << 20);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after.value().eof);
}

/// Resident set size of this process, from /proc/self/statm.
size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t total_pages = 0;
  size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(KpjServerTest, AnnouncedFrameSizeIsNotAllocatedUpFront) {
  // 32 peers each announce a maximal (16 MiB) frame and send one byte of
  // it: the server must hold what arrived, not 512 MiB of announcements.
  const std::string path = GraphPath(2500, 21);
  KpjServerOptions options = SmallServerOptions(path);
  ASSERT_EQ(options.max_frame_bytes, size_t{16} << 20);
  KpjServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const uint32_t size = static_cast<uint32_t>(options.max_frame_bytes);
  const std::string announce = {
      static_cast<char>(size >> 24), static_cast<char>(size >> 16),
      static_cast<char>(size >> 8), static_cast<char>(size), '{'};
  const size_t before = ResidentBytes();
  std::vector<Socket> peers;
  for (int i = 0; i < 32; ++i) {
    Result<Socket> peer = ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(peer.ok()) << peer.status().ToString();
    SendRaw(peer.value(), announce);
    peers.push_back(std::move(peer).value());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const size_t after = ResidentBytes();
  EXPECT_LT(after - std::min(after, before), size_t{64} << 20)
      << "RSS " << before << " -> " << after << " bytes";
  // The peers hang up mid-frame; the server keeps serving.
  peers.clear();
  Client client(server.port());
  EXPECT_TRUE(client.Query(MakeRequest({5}, {100}, 1)).ok());
}

TEST(KpjServerTest, FrameFinishedWithinTheDrainGraceIsAnswered) {
  // The rest of a frame that arrives within the grace is read and answered
  // like any pipelined request (with kUnavailable, since the server is
  // draining) before the connection closes.
  const std::string path = GraphPath(2500, 21);
  KpjServer server(SmallServerOptions(path));
  ASSERT_TRUE(server.Start().ok());
  Result<Socket> slow = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  api::RequestEnvelope request;
  request.id = 9;
  request.type = api::RequestType::kQuery;
  request.payload = api::ToJson(MakeRequest({5}, {100}, 1));
  const std::string payload = api::SerializeRequest(request);
  SendRaw(slow.value(), FramePrefix(payload, 5));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server.RequestDrain();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  SendRaw(slow.value(), payload.substr(5));
  Result<Frame> frame = ReadFrame(slow.value(), 1 << 20);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_FALSE(frame.value().eof);
  Result<api::ResponseEnvelope> response =
      api::ParseResponse(frame.value().payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().id, 9u);
  EXPECT_EQ(response.value().status, api::StatusCode::kUnavailable);
  server.Wait();
}

// ---------------------------------------------------------------------------
// Wire-to-solver request tracing, the stats window, and the access log.

size_t CountSpans(const std::vector<api::TraceSpanWire>& spans,
                  std::string_view name) {
  size_t count = 0;
  for (const api::TraceSpanWire& span : spans) {
    if (span.name == name) ++count;
  }
  return count;
}

TEST(KpjServerTest, ClientTraceIdStitchesServerAndEngineSpans) {
  const std::string path = GraphPath(1500, 33);
  KpjServer server(SmallServerOptions(path));
  ASSERT_TRUE(server.Start().ok());
  api::QueryRequest query = MakeRequest({1}, {40, 90}, 3);

  // Reference answer without any trace context.
  Client plain_client(server.port());
  Result<api::QueryResponse> plain = plain_client.Query(query);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  // Fresh connection, so the traced request is the connection's first and
  // earns the retroactive server.accept span.
  Client traced_client(server.port());
  const uint64_t trace_id = 0x00c0ffee12345678ULL;
  Result<api::ResponseEnvelope> envelope =
      traced_client.RoundTrip(api::RequestType::kQuery, api::ToJson(query),
                              /*id=*/2, trace_id, /*collect=*/true);
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  EXPECT_EQ(envelope.value().trace_id, trace_id);

  const std::vector<api::TraceSpanWire>& spans = envelope.value().trace_spans;
  for (const char* name :
       {"server.accept", "server.parse", "server.queue", "server.execute",
        "server.serialize", "engine.query", "instance.prepare"}) {
    EXPECT_EQ(CountSpans(spans, name), 1u) << name;
  }
  EXPECT_EQ(CountSpans(spans, "solver.run"), 1u);
  // The last collector out turns the recorder back off — tracing one
  // request must not leave the process recording forever.
  EXPECT_FALSE(TraceRecorder::Global().enabled());

  // Tracing must not change the answer: byte-identical to the plain run.
  Result<api::QueryResponse> traced =
      api::QueryResponseFromJson(envelope.value().payload);
  ASSERT_TRUE(traced.ok());
  ASSERT_EQ(traced.value().paths.size(), plain.value().paths.size());
  for (size_t i = 0; i < traced.value().paths.size(); ++i) {
    EXPECT_EQ(traced.value().paths[i].length, plain.value().paths[i].length);
    EXPECT_EQ(traced.value().paths[i].nodes, plain.value().paths[i].nodes);
  }
}

TEST(KpjServerTest, TracedAnswerCacheHitKeepsOneSolverSpan) {
  // An exact repeat is served from the engine's answer cache inside the
  // solver.run span, so per-layer splits still find exactly one solver
  // span per traced response.
  const std::string path = GraphPath(1500, 33);
  KpjServer server(SmallServerOptions(path));
  ASSERT_TRUE(server.Start().ok());
  api::QueryRequest query = MakeRequest({2}, {40, 90, 130}, 4);

  Client client(server.port());
  std::vector<api::QueryResponse> answers;
  for (uint64_t i = 1; i <= 2; ++i) {
    Result<api::ResponseEnvelope> envelope =
        client.RoundTrip(api::RequestType::kQuery, api::ToJson(query), i,
                         /*trace_id=*/0x7000u + i, /*collect=*/true);
    ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
    const std::vector<api::TraceSpanWire>& spans =
        envelope.value().trace_spans;
    EXPECT_EQ(CountSpans(spans, "solver.run"), 1u) << "request " << i;
    EXPECT_EQ(CountSpans(spans, "engine.query"), 1u) << "request " << i;
    Result<api::QueryResponse> response =
        api::QueryResponseFromJson(envelope.value().payload);
    ASSERT_TRUE(response.ok());
    answers.push_back(std::move(response).value());
  }
  EXPECT_GT(answers[0].nodes_settled, 0u);
  // The repeat was served whole: no solver work, the same paths.
  EXPECT_EQ(answers[1].nodes_settled, 0u);
  EXPECT_EQ(answers[1].sp_computations, 0u);
  ASSERT_EQ(answers[1].paths.size(), answers[0].paths.size());
  for (size_t i = 0; i < answers[0].paths.size(); ++i) {
    EXPECT_EQ(answers[1].paths[i].length, answers[0].paths[i].length);
    EXPECT_EQ(answers[1].paths[i].nodes, answers[0].paths[i].nodes);
  }
  EXPECT_EQ(server.MetricsSnapshot().algo.answer_cache_hits, 1u);
}

TEST(KpjServerTest, PipelinedAndConcurrentTracesNeverInterleaveSpans) {
  const std::string path = GraphPath(1500, 33);
  KpjServer server(SmallServerOptions(path));
  ASSERT_TRUE(server.Start().ok());

  // Two traced requests pipelined on one connection: both frames are on
  // the wire before either response is read. Each response's span set must
  // describe exactly one execution.
  {
    Client client(server.port());
    ASSERT_TRUE(client
                    .Send(api::RequestType::kQuery,
                          api::ToJson(MakeRequest({1}, {50}, 2)), /*id=*/1,
                          /*trace_id=*/0xaaaa1111u, /*collect=*/true)
                    .ok());
    ASSERT_TRUE(client
                    .Send(api::RequestType::kQuery,
                          api::ToJson(MakeRequest({2}, {60}, 2)), /*id=*/2,
                          /*trace_id=*/0xbbbb2222u, /*collect=*/true)
                    .ok());
    Result<api::ResponseEnvelope> first = client.Receive();
    Result<api::ResponseEnvelope> second = client.Receive();
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(first.value().id, 1u);
    EXPECT_EQ(first.value().trace_id, 0xaaaa1111u);
    EXPECT_EQ(second.value().id, 2u);
    EXPECT_EQ(second.value().trace_id, 0xbbbb2222u);
    for (const auto* envelope : {&first.value(), &second.value()}) {
      EXPECT_EQ(CountSpans(envelope->trace_spans, "engine.query"), 1u);
      EXPECT_EQ(CountSpans(envelope->trace_spans, "server.execute"), 1u);
    }
  }

  // Concurrent traced requests on separate connections share the global
  // recorder; per-id filtering must still hand each response only its own
  // spans.
  constexpr int kPerThread = 4;
  std::atomic<int> wrong_span_counts{0};
  auto hammer = [&](uint64_t base_id, NodeId source) {
    Client client(server.port());
    for (int i = 0; i < kPerThread; ++i) {
      Result<api::ResponseEnvelope> envelope = client.RoundTrip(
          api::RequestType::kQuery,
          api::ToJson(MakeRequest({source}, {70, 80}, 2)),
          /*id=*/static_cast<uint64_t>(i), base_id + static_cast<uint64_t>(i),
          /*collect=*/true);
      if (!envelope.ok() ||
          CountSpans(envelope.value().trace_spans, "engine.query") != 1 ||
          CountSpans(envelope.value().trace_spans, "server.execute") != 1) {
        wrong_span_counts.fetch_add(1);
      }
    }
  };
  std::thread t1(hammer, 0x1000u, 3);
  std::thread t2(hammer, 0x2000u, 4);
  t1.join();
  t2.join();
  EXPECT_EQ(wrong_span_counts.load(), 0);
  EXPECT_FALSE(TraceRecorder::Global().enabled());
}

TEST(KpjServerTest, StatsServesRollingWindowGauges) {
  const std::string path = GraphPath(1500, 33);
  KpjServer server(SmallServerOptions(path));
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Query(MakeRequest({1}, {40}, 2)).ok());
  }
  Result<api::ResponseEnvelope> envelope =
      client.RoundTrip(api::RequestType::kStats, api::JsonValue::Null());
  ASSERT_TRUE(envelope.ok());
  Result<api::StatsInfo> stats =
      api::StatsInfoFromJson(envelope.value().payload);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const api::StatsInfo& info = stats.value();
  EXPECT_EQ(info.window_s, 60u);
  EXPECT_EQ(info.requests, 3u);
  EXPECT_EQ(info.shed, 0u);
  EXPECT_EQ(info.errors, 0u);
  EXPECT_EQ(info.epoch, 1u);
  EXPECT_GT(info.qps, 0.0);
  EXPECT_GE(info.latency_p90_ms, info.latency_p50_ms);
  EXPECT_GE(info.latency_max_ms, 0.0);
  uint64_t per_second_total = 0;
  for (uint64_t c : info.per_second) per_second_total += c;
  EXPECT_EQ(per_second_total, info.requests);
}

TEST(KpjServerTest, DrainFlushesBufferedAccessLogLines) {
  const std::string graph = GraphPath(1500, 34);
  KpjServerOptions options = SmallServerOptions(graph);
  options.access_log_path =
      ::testing::TempDir() + "kpj_server_access_log_test.jsonl";
  std::remove(options.access_log_path.c_str());
  const std::string log_path = options.access_log_path;
  KpjServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());

  constexpr int kQueries = 5;
  {
    Client client(server.port());
    for (int i = 0; i < kQueries; ++i) {
      Result<api::ResponseEnvelope> envelope = client.RoundTrip(
          api::RequestType::kQuery,
          api::ToJson(MakeRequest({1}, {40}, 2)),
          /*id=*/static_cast<uint64_t>(i),
          /*trace_id=*/0x9000u + static_cast<uint64_t>(i));
      ASSERT_TRUE(envelope.ok());
      ASSERT_EQ(envelope.value().status, api::StatusCode::kOk);
    }
    ASSERT_NE(server.access_log(), nullptr);
    EXPECT_EQ(server.access_log()->lines_written(), 5u);
    Result<api::ResponseEnvelope> ack = client.RoundTrip(
        api::RequestType::kDrain, api::JsonValue::Null(), /*id=*/99);
    ASSERT_TRUE(ack.ok());
  }
  // Wait() completes the drain and must flush every buffered line (the
  // 64 KiB buffer threshold was never reached, so without the flush the
  // file would be empty).
  server.Wait();

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), static_cast<size_t>(kQueries));
  bool first_line = true;
  for (const std::string& text : lines) {
    Result<api::JsonValue> parsed = api::JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    const api::JsonValue& entry = parsed.value();
    Result<std::string> type = api::GetString(entry, "type");
    ASSERT_TRUE(type.ok());
    EXPECT_EQ(type.value(), "query");
    Result<std::string> status = api::GetString(entry, "status");
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status.value(), "ok");
    EXPECT_TRUE(api::GetDouble(entry, "queue_ms", -1.0).value() >= 0.0);
    EXPECT_TRUE(api::GetDouble(entry, "exec_ms", -1.0).value() >= 0.0);
    EXPECT_EQ(api::GetInt(entry, "epoch", 0).value(), 1);
    EXPECT_EQ(api::GetInt(entry, "k", 0).value(), 2);
    // The same query five times: the first ran the solver, the repeats
    // were served from the answer cache.
    Result<bool> cached = api::GetBool(entry, "answer_cached", first_line);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(cached.value(), !first_line);
    first_line = false;
  }
  // Lines keep arrival order, and the trace ids join against the wire.
  Result<std::string> first_id =
      api::GetString(api::JsonValue::Parse(lines[0]).value(), "trace_id");
  ASSERT_TRUE(first_id.ok());
  EXPECT_EQ(first_id.value(), "0000000000009000");
}

}  // namespace
}  // namespace kpj::server
