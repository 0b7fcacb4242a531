#include "server/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <optional>
#include <poll.h>
#include <utility>

#include "core/kpj_query.h"
#include "graph/serialize.h"
#include "index/landmark_index.h"
#include "util/logging.h"
#include "util/trace.h"

namespace kpj::server {
namespace {

/// A connection keeps its response buffer between requests unless one
/// response grew it past this (a large batch or metrics body), so an idle
/// connection holds at most this much.
constexpr size_t kRetainedReplyBytes = size_t{1} << 20;

double FiniteOrZero(double value) {
  return std::isfinite(value) ? value : 0.0;
}

/// Blocks until `primary` or the drain fd is readable. Returns true when
/// the primary fd has data (served before drain, so pipelined requests
/// are answered); false when only the drain broadcast fired.
bool PollReadable(int primary, int drain_fd) {
  for (;;) {
    pollfd fds[2] = {{primary, POLLIN, 0}, {drain_fd, POLLIN, 0}};
    int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (fds[0].revents != 0) return true;
    if (fds[1].revents != 0) return false;
  }
}

/// The ReadWaiter of a connection that is inside a frame: blocks until
/// `fd` is readable. Once the drain broadcast fires, the peer has
/// kDrainMidFrameGrace from then (`grace_end`, set on first sight of the
/// drain) to make progress; returns false when that runs out.
bool WaitMidFrame(int fd, int drain_fd,
                  std::optional<std::chrono::steady_clock::time_point>&
                      grace_end) {
  using Clock = std::chrono::steady_clock;
  for (;;) {
    pollfd fds[2] = {{fd, POLLIN, 0}, {drain_fd, POLLIN, 0}};
    int timeout_ms = -1;
    if (grace_end.has_value()) {
      timeout_ms = static_cast<int>(std::max<int64_t>(
          0, std::chrono::ceil<std::chrono::milliseconds>(*grace_end -
                                                          Clock::now())
                 .count()));
    }
    int n = ::poll(fds, grace_end.has_value() ? 1 : 2, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (fds[0].revents != 0) return true;
    if (grace_end.has_value()) return false;  // grace ran out
    if (fds[1].revents != 0) grace_end = Clock::now() + kDrainMidFrameGrace;
  }
}

}  // namespace

// --- ServingState ---------------------------------------------------------

Result<std::shared_ptr<ServingState>> ServingState::Load(
    const std::string& graph_path, const std::string& landmarks_path,
    const api::EngineConfig& config, uint64_t epoch, bool trusted) {
  KPJ_RETURN_IF_ERROR(config.Validate());
  std::optional<KpjInstance> loaded;
  // Version-4 files are mapped, not copied: the peek decides the path, and
  // a failed peek (DIMACS text, missing file, ...) falls through so
  // LoadGraphAuto produces the authoritative error.
  Result<uint32_t> version = PeekGraphFileVersion(graph_path);
  if (version.ok() && version.value() == 4) {
    MappedLoadOptions map_options;
    map_options.verify_checksums = !trusted;
    Result<KpjInstance> mapped =
        KpjInstance::LoadMapped(graph_path, map_options);
    if (!mapped.ok()) return mapped.status();
    loaded = std::move(mapped).value();
  } else {
    Result<GraphFile> file = LoadGraphAuto(graph_path);
    if (!file.ok()) return file.status();
    Result<KpjInstance> instance = KpjInstance::Wrap(
        std::move(file.value().graph), std::move(file.value().permutation));
    if (!instance.ok()) return instance.status();
    loaded = std::move(instance).value();
  }
  auto state = std::make_shared<ServingState>(std::move(*loaded));
  state->epoch = epoch;
  state->graph_path = graph_path;
  if (!landmarks_path.empty()) {
    Result<LandmarkIndex> landmarks = LandmarkIndex::Load(landmarks_path);
    if (!landmarks.ok()) return landmarks.status();
    if (landmarks.value().num_nodes() != state->instance.NumNodes()) {
      return Status::InvalidArgument(
          "landmark index was built for a different graph");
    }
    KPJ_RETURN_IF_ERROR(
        state->instance.AttachLandmarks(std::move(landmarks).value()));
  }
  // The instance is at its final heap address now; the engine may keep
  // references into it.
  state->engine = std::make_unique<KpjEngine>(state->instance,
                                              config.ToEngineOptions());
  return state;
}

// --- AdmissionController --------------------------------------------------

AdmissionController::Outcome AdmissionController::Admit(double deadline_ms,
                                                        double* queue_ms) {
  *queue_ms = 0.0;
  std::unique_lock<std::mutex> lock(mutex_);
  if (active_ < slots_) {
    ++active_;
    in_flight_.store(active_, std::memory_order_relaxed);
    return Outcome::kAdmitted;
  }
  if (waiting_ >= max_queue_) return Outcome::kQueueFull;
  ++waiting_;
  Timer wait_timer;
  bool slot_available;
  if (deadline_ms > 0.0) {
    slot_available = slot_free_.wait_for(
        lock, std::chrono::duration<double, std::milli>(deadline_ms),
        [this] { return active_ < slots_; });
  } else {
    slot_free_.wait(lock, [this] { return active_ < slots_; });
    slot_available = true;
  }
  --waiting_;
  *queue_ms = wait_timer.ElapsedMillis();
  if (!slot_available) return Outcome::kDeadlineExhausted;
  ++active_;
  in_flight_.store(active_, std::memory_order_relaxed);
  return Outcome::kAdmitted;
}

void AdmissionController::Release() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    KPJ_CHECK(active_ > 0) << "Release without a matching Admit";
    --active_;
    in_flight_.store(active_, std::memory_order_relaxed);
  }
  slot_free_.notify_one();
}

// --- KpjServer ------------------------------------------------------------

KpjServer::KpjServer(KpjServerOptions options)
    : options_(std::move(options)) {}

KpjServer::~KpjServer() {
  RequestDrain();
  Wait();
}

Status KpjServer::Start() {
  Result<std::shared_ptr<ServingState>> state =
      ServingState::Load(options_.graph_path, options_.landmarks_path,
                         options_.engine, /*epoch=*/1,
                         options_.trusted_graphs);
  if (!state.ok()) return state.status();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    state_ = std::move(state).value();
  }
  admission_ = std::make_unique<AdmissionController>(
      this->state()->engine->num_workers(), options_.max_queue);

  if (!options_.access_log_path.empty()) {
    AccessLogOptions log_options;
    log_options.path = options_.access_log_path;
    log_options.rotate_bytes = options_.access_log_rotate_bytes;
    Result<std::unique_ptr<AccessLog>> log =
        AccessLog::Open(std::move(log_options));
    if (!log.ok()) return log.status();
    access_log_ = std::move(log).value();
  }

  Result<Socket> listener =
      ListenTcp(options_.host, options_.port, options_.backlog);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  Result<uint16_t> port = LocalPort(listener_);
  if (!port.ok()) return port.status();
  port_ = port.value();
  uptime_.Restart();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void KpjServer::RequestDrain() { drain_.Notify(); }

void KpjServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    connections.swap(connections_);
  }
  for (Connection& connection : connections) {
    if (connection.thread.joinable()) connection.thread.join();
  }
  // Every connection is closed and answered; nothing can append another
  // line, so this flush is the complete log for the drain test / operator.
  if (access_log_ != nullptr) {
    Status flushed = access_log_->Flush();
    if (!flushed.ok()) {
      KPJ_LOG(Warning) << "access log flush failed: " << flushed.message();
    }
  }
}

std::shared_ptr<ServingState> KpjServer::state() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return state_;
}

void KpjServer::AcceptLoop() {
  while (!drain_.triggered()) {
    if (!PollReadable(listener_.fd(), drain_.fd())) break;
    Result<Socket> accepted = AcceptConnection(listener_);
    if (!accepted.ok()) {
      if (drain_.triggered()) break;
      continue;
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    Connection connection;
    connection.done = done;
    connection.thread = std::thread(
        [this, done](Socket socket) {
          ConnectionLoop(std::move(socket));
          done->store(true, std::memory_order_release);
        },
        std::move(accepted).value());
    std::lock_guard<std::mutex> lock(threads_mutex_);
    // Reclaim finished connections so a long-lived server does not
    // accumulate joinable threads.
    for (Connection& old : connections_) {
      if (old.done->load(std::memory_order_acquire) &&
          old.thread.joinable()) {
        old.thread.join();
      }
    }
    std::erase_if(connections_, [](const Connection& c) {
      return !c.thread.joinable();
    });
    connections_.push_back(std::move(connection));
  }
}

void KpjServer::ConnectionLoop(Socket socket) {
  TraceRecorder& rec = TraceRecorder::Global();
  ConnContext conn;
  Result<std::string> peer = PeerAddress(socket);
  conn.peer = peer.ok() ? peer.value() : "unknown";
  conn.accept_us = rec.NowUs();
  std::optional<std::chrono::steady_clock::time_point> grace_end;
  const ReadWaiter wait_mid_frame = [this, &grace_end](int fd) {
    return WaitMidFrame(fd, drain_.fd(), grace_end);
  };
  // The connection's one response buffer: each response is written into it
  // behind the frame's length slot and sent as it stands, and its capacity
  // carries over to the next response (up to kRetainedReplyBytes).
  std::string reply;
  for (;;) {
    // Drain: pipelined requests already on the wire are still answered
    // (the socket wins the poll); the connection closes once idle.
    if (!PollReadable(socket.fd(), drain_.fd())) break;
    int64_t read_start_us = rec.NowUs();
    Result<Frame> frame =
        ReadFrame(socket, options_.max_frame_bytes, wait_mid_frame);
    if (!frame.ok() &&
        frame.status().code() == StatusCode::kDeadlineExceeded) {
      KPJ_LOG(Warning) << "closing connection from " << conn.peer
                       << ": stalled mid-frame past the "
                       << kDrainMidFrameGrace.count() << " ms drain grace";
      break;
    }
    reply.assign(kFramePrefixBytes, '\0');
    api::ResponseWriter out(&reply);
    if (!frame.ok()) {
      metrics_.server_rejected.Increment();
      out.Open(0, api::StatusCode::kInvalidArgument, frame.status().message());
      out.Close(0, {});
      (void)SendFrame(socket, &reply);
      break;
    }
    if (frame.value().eof) break;
    int64_t parse_start_us = rec.NowUs();
    uint64_t trace_id = 0;
    std::vector<api::TraceSpanWire> spans;
    Result<api::RequestEnvelope> request =
        api::ParseRequest(frame.value().payload);
    if (!request.ok()) {
      metrics_.server_rejected.Increment();
      out.Open(0, api::StatusCode::kInvalidArgument,
               request.status().message());
      AccessLogEntry entry;
      entry.peer = conn.peer;
      entry.type = "invalid";
      entry.status = api::StatusCode::kInvalidArgument;
      LogAccess(std::move(entry));
    } else {
      const api::RequestEnvelope& req = request.value();
      int64_t parse_end_us = rec.NowUs();
      // Collection turns the recorder on, so it must precede the
      // retroactive accept/parse events below (their timestamps were
      // captured before the trace id was known).
      bool collect = req.collect_spans && req.trace_id != 0;
      if (collect) BeginSpanCollection();
      {
        // Everything this thread records while handling the request —
        // server.* spans here, nothing when trace_id is 0 — carries the
        // request's id; the engine worker gets it via QueryContext.
        TraceContext trace_ctx(req.trace_id);
        if (req.trace_id != 0 && rec.enabled()) {
          if (conn.first_request) {
            rec.AddCompleteEvent("server.accept", conn.accept_us,
                                 read_start_us - conn.accept_us);
          }
          rec.AddCompleteEvent("server.parse", parse_start_us,
                               parse_end_us - parse_start_us);
        }
        conn.first_request = false;
        Handle(req, conn, &out);
      }
      // The trace block goes last, after every span it carries has ended.
      if (collect) spans = EndSpanCollection(req.trace_id);
      trace_id = req.trace_id;
    }
    out.Close(trace_id, spans);
    if (!SendFrame(socket, &reply).ok()) break;
    if (reply.capacity() > kRetainedReplyBytes) std::string().swap(reply);
  }
}

void KpjServer::Handle(const api::RequestEnvelope& request, ConnContext& conn,
                       api::ResponseWriter* out) {
  switch (request.type) {
    case api::RequestType::kQuery:
      return HandleQuery(request, conn, out);
    case api::RequestType::kBatch:
      return HandleBatch(request, conn, out);
    case api::RequestType::kMetrics:
      return HandleMetrics(request, out);
    case api::RequestType::kHealth:
      return HandleHealth(request, out);
    case api::RequestType::kStats:
      return HandleStats(request, out);
    case api::RequestType::kDrain:
      KPJ_TRACE_INSTANT("server.drain");
      RequestDrain();
      return out->Open(request.id, api::StatusCode::kOk, "");
    case api::RequestType::kSwap:
      return HandleSwap(request, out);
  }
  out->Open(request.id, api::StatusCode::kInternal, "unhandled request type");
}

api::QueryResponse KpjServer::RunAdmitted(
    const std::shared_ptr<ServingState>& state, api::QueryRequest request,
    double batch_deadline_ms, uint64_t trace_id) {
  double deadline_ms = request.deadline_ms >= 0.0 ? request.deadline_ms
                       : batch_deadline_ms >= 0.0 ? batch_deadline_ms
                                                  : options_.engine.deadline_ms;
  api::QueryResponse response;
  response.epoch = state->epoch;

  // Resolve the per-request algorithm override before admission: a bad
  // spelling should not consume a slot.
  std::optional<Algorithm> algorithm_override;
  if (!request.algorithm.empty()) {
    Result<Algorithm> parsed = api::ParseAlgorithm(request.algorithm);
    if (!parsed.ok()) {
      metrics_.server_rejected.Increment();
      response.status = api::StatusCode::kInvalidArgument;
      response.message = parsed.status().message();
      return response;
    }
    algorithm_override = parsed.value();
  }

  double queue_ms = 0.0;
  AdmissionController::Outcome outcome;
  {
    TraceSpan queue_span("server.queue");
    outcome = admission_->Admit(deadline_ms, &queue_ms);
  }
  metrics_.server_queue_time_ms.Record(queue_ms);
  response.queue_ms = queue_ms;
  if (outcome != AdmissionController::Outcome::kAdmitted) {
    metrics_.server_shed.Increment();
    response.status = api::StatusCode::kOverloaded;
    response.message = outcome == AdmissionController::Outcome::kQueueFull
                           ? "admission queue full"
                           : "queue time exhausted the deadline";
    return response;
  }
  // Queue time is part of the request's budget: the solver only gets what
  // is left. A budget the queue already consumed is a shed, not a run.
  double remaining_ms = deadline_ms;
  if (deadline_ms > 0.0) {
    remaining_ms = deadline_ms - queue_ms;
    if (remaining_ms <= 0.0) {
      admission_->Release();
      metrics_.server_shed.Increment();
      response.status = api::StatusCode::kOverloaded;
      response.message = "queue time exhausted the deadline";
      return response;
    }
  }
  metrics_.server_accepted.Increment();
  Timer run_timer;
  Result<KpjResult> result = [&] {
    TraceSpan execute_span("server.execute");
    return state->engine
        ->Submit(std::move(request).ToQuery(), remaining_ms,
                 QueryContext{trace_id, queue_ms, algorithm_override})
        .get();
  }();
  double elapsed_ms = run_timer.ElapsedMillis();
  admission_->Release();
  if (drain_.triggered()) metrics_.server_drained.Increment();
  return api::BuildQueryResponse(result, state->epoch, elapsed_ms, queue_ms);
}

void KpjServer::HandleQuery(const api::RequestEnvelope& request,
                            ConnContext& conn, api::ResponseWriter* out) {
  AccessLogEntry entry;
  entry.trace_id = request.trace_id;
  entry.peer = conn.peer;
  entry.type = "query";
  Result<api::QueryRequest> query =
      api::QueryRequestFromJson(request.payload);
  if (!query.ok()) {
    metrics_.server_rejected.Increment();
    entry.status = api::StatusCode::kInvalidArgument;
    LogAccess(std::move(entry));
    return out->Open(request.id, api::StatusCode::kInvalidArgument,
                     query.status().message());
  }
  entry.k = query.value().k;
  std::shared_ptr<ServingState> serving = state();
  if (drain_.triggered() || serving == nullptr) {
    metrics_.server_rejected.Increment();
    entry.status = api::StatusCode::kUnavailable;
    LogAccess(std::move(entry));
    return out->Open(request.id, api::StatusCode::kUnavailable,
                     "server is draining");
  }
  api::QueryResponse response =
      RunAdmitted(serving, std::move(query).value(),
                  /*batch_deadline_ms=*/-1.0, request.trace_id);

  bool shed = response.status == api::StatusCode::kOverloaded;
  window_.Record(response.queue_ms + response.elapsed_ms, shed,
                 !shed && response.status != api::StatusCode::kOk);
  // Log the algorithm that actually served the query (the planner's pick
  // under auto); fall back to the configured one when it never ran.
  entry.algorithm = !response.algorithm_chosen.empty()
                        ? response.algorithm_chosen
                        : AlgorithmName(options_.engine.algorithm);
  entry.planner_reason = response.planner_reason;
  entry.queue_ms = response.queue_ms;
  entry.exec_ms = response.elapsed_ms;
  entry.status = response.status;
  entry.epoch = response.epoch;
  entry.answer_cached = response.answer_cached;
  if (shed) entry.shed_reason = response.message;
  LogAccess(std::move(entry));

  // The serialize span covers the whole frame but its trace block, which
  // carries this span and is written once the spans are collected.
  TraceSpan serialize_span("server.serialize");
  out->Open(request.id, response.status, response.message);
  out->Payload(response);
}

void KpjServer::HandleBatch(const api::RequestEnvelope& request,
                            ConnContext& conn, api::ResponseWriter* out) {
  AccessLogEntry entry;
  entry.trace_id = request.trace_id;
  entry.peer = conn.peer;
  entry.type = "batch";
  Result<api::BatchRequest> batch =
      api::BatchRequestFromJson(request.payload);
  if (!batch.ok()) {
    metrics_.server_rejected.Increment();
    entry.status = api::StatusCode::kInvalidArgument;
    LogAccess(std::move(entry));
    return out->Open(request.id, api::StatusCode::kInvalidArgument,
                     batch.status().message());
  }
  // Batch lines carry the query count in `k` (there is no single per-line
  // k) and the batch wall time in exec_ms.
  entry.k = static_cast<uint32_t>(batch.value().queries.size());
  std::shared_ptr<ServingState> serving = state();
  if (drain_.triggered() || serving == nullptr) {
    metrics_.server_rejected.Increment();
    entry.status = api::StatusCode::kUnavailable;
    LogAccess(std::move(entry));
    return out->Open(request.id, api::StatusCode::kUnavailable,
                     "server is draining");
  }
  std::vector<api::QueryRequest>& queries = batch.value().queries;
  double deadline_ms = batch.value().deadline_ms >= 0.0
                           ? batch.value().deadline_ms
                           : options_.engine.deadline_ms;
  // A batch runs under one engine context, so it supports one algorithm
  // override: every query that sets one must agree (unset ones inherit).
  std::optional<Algorithm> algorithm_override;
  for (const api::QueryRequest& query : queries) {
    if (query.algorithm.empty()) continue;
    Result<Algorithm> parsed = api::ParseAlgorithm(query.algorithm);
    Status invalid = !parsed.ok()
                         ? parsed.status()
                         : algorithm_override.has_value() &&
                               *algorithm_override != parsed.value()
                         ? Status::InvalidArgument(
                               "a batch supports a single algorithm override")
                         : Status::Ok();
    if (!invalid.ok()) {
      metrics_.server_rejected.Increment();
      entry.status = api::StatusCode::kInvalidArgument;
      LogAccess(std::move(entry));
      return out->Open(request.id, api::StatusCode::kInvalidArgument,
                       invalid.message());
    }
    algorithm_override = parsed.value();
  }
  entry.algorithm = AlgorithmName(
      algorithm_override.value_or(options_.engine.algorithm));
  entry.epoch = serving->epoch;

  // One admission slot per batch: the engine spreads the queries across
  // its own pool (this is exactly RunBatch, so answers are byte-identical
  // to the in-process engine), while admission keeps the number of
  // concurrently executing *requests* bounded.
  api::BatchResponse response;
  double queue_ms = 0.0;
  AdmissionController::Outcome outcome;
  {
    TraceSpan queue_span("server.queue");
    outcome = admission_->Admit(deadline_ms, &queue_ms);
  }
  metrics_.server_queue_time_ms.Record(queue_ms);
  entry.queue_ms = queue_ms;
  double remaining_ms = deadline_ms > 0.0 ? deadline_ms - queue_ms
                                          : deadline_ms;
  if (outcome != AdmissionController::Outcome::kAdmitted ||
      (deadline_ms > 0.0 && remaining_ms <= 0.0)) {
    if (outcome == AdmissionController::Outcome::kAdmitted) {
      admission_->Release();
    }
    metrics_.server_shed.Add(queries.size());
    window_.Record(queue_ms, /*shed=*/true, /*error=*/false);
    const char* reason = outcome == AdmissionController::Outcome::kQueueFull
                             ? "admission queue full"
                             : "queue time exhausted the deadline";
    entry.status = api::StatusCode::kOverloaded;
    entry.shed_reason = reason;
    LogAccess(std::move(entry));
    return out->Open(request.id, api::StatusCode::kOverloaded, reason);
  }
  metrics_.server_accepted.Add(queries.size());
  std::vector<KpjQuery> engine_queries;
  engine_queries.reserve(queries.size());
  for (api::QueryRequest& query : queries) {
    engine_queries.push_back(std::move(query).ToQuery());
  }
  Timer run_timer;
  std::vector<Result<KpjResult>> results;
  {
    TraceSpan execute_span("server.execute");
    results = serving->engine->RunBatch(
        engine_queries, remaining_ms,
        QueryContext{request.trace_id, queue_ms, algorithm_override});
  }
  double exec_ms = run_timer.ElapsedMillis();
  admission_->Release();
  if (drain_.triggered()) metrics_.server_drained.Add(queries.size());

  response.results.reserve(results.size());
  entry.answer_cached = !results.empty();
  for (const Result<KpjResult>& result : results) {
    // Batch entries carry no per-query wall time (they ran concurrently);
    // queue_ms is the shared admission wait.
    response.results.push_back(api::BuildQueryResponse(
        result, serving->epoch, /*elapsed_ms=*/0.0, queue_ms));
    entry.answer_cached &= response.results.back().answer_cached;
  }
  // One request event in the rolling window: stats count requests, and a
  // batch is one request (matching StatsInfo's documented semantics).
  window_.Record(queue_ms + exec_ms, /*shed=*/false, /*error=*/false);
  entry.exec_ms = exec_ms;
  LogAccess(std::move(entry));
  TraceSpan serialize_span("server.serialize");
  out->Open(request.id, api::StatusCode::kOk, "");
  out->Payload(response);
}

void KpjServer::HandleMetrics(const api::RequestEnvelope& request,
                              api::ResponseWriter* out) {
  Result<api::MetricsRequest> metrics =
      api::MetricsRequestFromJson(request.payload);
  if (!metrics.ok()) {
    metrics_.server_rejected.Increment();
    return out->Open(request.id, api::StatusCode::kInvalidArgument,
                     metrics.status().message());
  }
  std::string body = metrics.value().format == "prom" ? MetricsPrometheus()
                                                      : MetricsJson();
  api::JsonValue payload = api::JsonValue::Object();
  payload.Set("format", api::JsonValue::Str(metrics.value().format));
  payload.Set("body", api::JsonValue::Str(std::move(body)));
  out->Open(request.id, api::StatusCode::kOk, "");
  out->Payload(payload);
}

void KpjServer::HandleHealth(const api::RequestEnvelope& request,
                             api::ResponseWriter* out) {
  std::shared_ptr<ServingState> serving = state();
  api::HealthInfo info;
  info.serving = !drain_.triggered() && serving != nullptr;
  if (serving != nullptr) {
    info.epoch = serving->epoch;
    info.graph = serving->graph_path;
    info.nodes = serving->instance.NumNodes();
  }
  info.uptime_ms = static_cast<uint64_t>(uptime_.ElapsedMillis());
  info.in_flight = admission_ != nullptr ? admission_->in_flight() : 0;
  out->Open(request.id, api::StatusCode::kOk, "");
  out->Payload(api::ToJson(info));
}

void KpjServer::HandleStats(const api::RequestEnvelope& request,
                            api::ResponseWriter* out) {
  out->Open(request.id, api::StatusCode::kOk, "");
  out->Payload(api::ToJson(Stats()));
}

api::StatsInfo KpjServer::Stats() const {
  RollingSnapshot snap = window_.Snapshot();
  api::StatsInfo info;
  info.window_s = snap.window_s;
  info.requests = snap.requests;
  info.shed = snap.shed;
  info.errors = snap.errors;
  info.qps = snap.qps;
  info.latency_mean_ms = FiniteOrZero(snap.latency_mean_ms);
  info.latency_p50_ms = FiniteOrZero(snap.latency_p50_ms);
  info.latency_p90_ms = FiniteOrZero(snap.latency_p90_ms);
  info.latency_p99_ms = FiniteOrZero(snap.latency_p99_ms);
  info.latency_max_ms = FiniteOrZero(snap.latency_max_ms);
  info.in_flight = admission_ != nullptr ? admission_->in_flight() : 0;
  std::shared_ptr<ServingState> serving = state();
  info.epoch = serving != nullptr ? serving->epoch : 0;
  info.per_second = std::move(snap.per_second);
  return info;
}

void KpjServer::HandleSwap(const api::RequestEnvelope& request,
                           api::ResponseWriter* out) {
  Result<api::SwapRequest> swap = api::SwapRequestFromJson(request.payload);
  if (!swap.ok()) {
    metrics_.server_rejected.Increment();
    return out->Open(request.id, api::StatusCode::kInvalidArgument,
                     swap.status().message());
  }
  if (drain_.triggered()) {
    metrics_.server_rejected.Increment();
    return out->Open(request.id, api::StatusCode::kUnavailable,
                     "server is draining");
  }
  Result<api::SwapInfo> info = Swap(swap.value());
  if (!info.ok()) {
    metrics_.server_rejected.Increment();
    return out->Open(request.id, api::FromCoreStatus(info.status()),
                     info.status().message());
  }
  out->Open(request.id, api::StatusCode::kOk, "");
  out->Payload(api::ToJson(info.value()));
}

Result<api::SwapInfo> KpjServer::Swap(const api::SwapRequest& request) {
  // Swaps serialize; queries keep flowing on the current state while the
  // new one loads (the only shared lock, state_mutex_, is held just for
  // the pointer flip).
  std::lock_guard<std::mutex> swap_lock(swap_mutex_);
  std::shared_ptr<ServingState> old_state = state();
  Timer load_timer;
  uint64_t epoch = next_epoch_.fetch_add(1, std::memory_order_relaxed);
  Result<std::shared_ptr<ServingState>> loaded = ServingState::Load(
      request.graph, request.landmarks, options_.engine, epoch,
      options_.trusted_graphs);
  if (!loaded.ok()) return loaded.status();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    state_ = std::move(loaded).value();
  }
  api::SwapInfo info;
  info.old_epoch = old_state != nullptr ? old_state->epoch : 0;
  info.new_epoch = epoch;
  info.load_ms = load_timer.ElapsedMillis();
  metrics_.server_swap_ms.Record(info.load_ms);
  // old_state's engine (and caches) die with the last in-flight reference.
  return info;
}

// --- Request observability ------------------------------------------------

void KpjServer::LogAccess(AccessLogEntry entry) {
  if (access_log_ == nullptr) return;
  access_log_->Write(entry);
}

void KpjServer::BeginSpanCollection() {
  TraceRecorder& rec = TraceRecorder::Global();
  std::lock_guard<std::mutex> lock(trace_mu_);
  if (collecting_++ == 0) {
    trace_was_enabled_ = rec.enabled();
    if (!trace_was_enabled_) rec.Enable();
  }
}

std::vector<api::TraceSpanWire> KpjServer::EndSpanCollection(
    uint64_t trace_id) {
  TraceRecorder& rec = TraceRecorder::Global();
  // Harvest before the refcount drops: concurrent collectors share the
  // recorder, and each one filters the snapshot down to its own id — the
  // trace-id tag is what keeps pipelined requests from mixing.
  std::vector<api::TraceSpanWire> spans;
  for (const TraceRecorder::Event& event : rec.Snapshot()) {
    if (event.trace_id != trace_id) continue;
    api::TraceSpanWire span;
    span.name = event.name;
    span.ts_us = event.ts_us;
    span.dur_us = event.dur_us;
    span.tid = event.tid;
    spans.push_back(std::move(span));
  }
  std::lock_guard<std::mutex> lock(trace_mu_);
  if (--collecting_ == 0 && !trace_was_enabled_) {
    // Last collector out: stop recording and drop the events, unless
    // something outside the server (a test, a --trace flag) owned the
    // recorder before we touched it.
    rec.Disable();
    rec.Clear();
  }
  return spans;
}

// --- Metrics exposition ---------------------------------------------------

EngineMetricsSnapshot KpjServer::MetricsSnapshot() const {
  std::shared_ptr<ServingState> serving = state();
  EngineMetricsSnapshot snap = serving != nullptr
                                   ? serving->engine->MetricsSnapshot()
                                   : EngineMetricsSnapshot{};
  metrics_.ReadInto(&snap);
  snap.server_in_flight =
      admission_ != nullptr ? admission_->in_flight() : 0;
  if (serving != nullptr) {
    snap.server_epoch = serving->epoch;
    snap.server_mapped_bytes = serving->instance.mapped_bytes();
  }
  return snap;
}

std::string KpjServer::MetricsJson() const {
  return WriteMetricsJson(MetricsSnapshot(), /*with_server=*/true);
}

std::string KpjServer::MetricsPrometheus() const {
  return WriteMetricsPrometheus(MetricsSnapshot(), /*with_server=*/true);
}

}  // namespace kpj::server
