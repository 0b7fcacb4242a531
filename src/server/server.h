#ifndef KPJ_SERVER_SERVER_H_
#define KPJ_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "api/wire.h"
#include "core/engine.h"
#include "core/kpj_instance.h"
#include "core/metrics.h"
#include "server/access_log.h"
#include "server/rolling_window.h"
#include "util/shutdown_signal.h"
#include "util/socket.h"
#include "util/status.h"
#include "util/timer.h"

namespace kpj::server {

/// One immutable serving generation: the instance, its engine, and the
/// metadata responses report. Hot swap builds a new ServingState in the
/// background and flips the server's shared_ptr; requests snapshot the
/// pointer once, so an in-flight query finishes entirely on the state it
/// started with — answers never mix epochs, and the old engine (plus its
/// caches) dies with its last reference.
struct ServingState {
  KpjInstance instance;
  /// Built after `instance` is at its final address (the engine keeps
  /// references into it; ServingState is always heap-allocated and never
  /// moved).
  std::unique_ptr<KpjEngine> engine;
  /// Server-level swap generation (1 = initial load, +1 per swap). This is
  /// the `epoch` every QueryResponse carries.
  uint64_t epoch = 1;
  std::string graph_path;

  explicit ServingState(KpjInstance inst) : instance(std::move(inst)) {}
  ServingState(const ServingState&) = delete;
  ServingState& operator=(const ServingState&) = delete;

  /// Loads a graph file (.gr = DIMACS text, else binary; indexes stored in
  /// a v4 file are attached automatically), optionally attaches a landmark
  /// index, and builds the engine. Version-4 files are mmap'd instead of copied:
  /// the state serves borrowed arrays out of the page cache, so startup
  /// and swap cost is independent of graph size (one checksum pass when
  /// `trusted` is false, O(1) when true) and concurrent server processes
  /// share the mapped pages.
  static Result<std::shared_ptr<ServingState>> Load(
      const std::string& graph_path, const std::string& landmarks_path,
      const api::EngineConfig& config, uint64_t epoch, bool trusted = false);
};

/// Admission control in front of the engine pool: `slots` concurrent
/// executions (one per engine worker, so the engine's internal queue stays
/// empty and queue time is measured *here*, where it can be deducted from
/// the deadline) plus a bounded wait queue. Arrivals past the queue bound
/// are shed immediately; waiters whose deadline expires before a slot
/// frees are shed with their queue-time budget exhausted. Both outcomes
/// surface as kOverloaded — queueing is never unbounded.
class AdmissionController {
 public:
  AdmissionController(unsigned slots, size_t max_queue)
      : slots_(slots), max_queue_(max_queue) {}

  enum class Outcome {
    kAdmitted,
    kQueueFull,          ///< Shed at arrival: wait queue at its bound.
    kDeadlineExhausted,  ///< Shed while waiting: queue time ate the deadline.
  };

  /// Blocks until a slot frees (at most `deadline_ms` when positive;
  /// indefinitely at 0 = unbounded deadline). On admission `*queue_ms` is
  /// the time spent waiting. Pair every kAdmitted with one Release().
  Outcome Admit(double deadline_ms, double* queue_ms);

  void Release();

  uint64_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

 private:
  const unsigned slots_;
  const size_t max_queue_;
  std::mutex mutex_;
  std::condition_variable slot_free_;
  unsigned active_ = 0;
  size_t waiting_ = 0;
  std::atomic<uint64_t> in_flight_{0};
};

/// Once drain fires, a connection blocked inside a partly received frame
/// gets this long to finish sending it; then it is closed and logged, so
/// Wait() returns even when a peer stalls mid-frame. Frames whose bytes are
/// already on the socket are read (and answered) without waiting.
inline constexpr std::chrono::milliseconds kDrainMidFrameGrace{2000};

struct KpjServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = kernel-assigned; read back with port().
  /// listen(2) backlog for not-yet-accepted connections.
  int backlog = 64;
  /// Bound on queries waiting for an engine slot; arrivals past it are
  /// shed with kOverloaded.
  size_t max_queue = 16;
  /// Largest request frame accepted (protects against hostile prefixes).
  size_t max_frame_bytes = 16 << 20;
  /// Engine configuration for the initial state and every swap.
  api::EngineConfig engine;
  /// Initial graph (required) and optional landmark index.
  std::string graph_path;
  std::string landmarks_path;
  /// Structured JSONL access log (one line per query/batch request);
  /// empty = disabled. Rotates to `<path>.1` past the byte bound.
  std::string access_log_path;
  size_t access_log_rotate_bytes = 64u << 20;
  /// Skip section-checksum verification when mapping v4 graph files (both
  /// at startup and on swap), making those loads O(1). Only for files the
  /// operator generated; corrupt trusted files are NOT detected.
  bool trusted_graphs = false;
};

/// The kpjd service core: a length-prefixed JSON request server over
/// KpjEngine with admission control, graceful drain, and hot instance
/// swap. The daemon binary (tools/kpjd.cc) is a thin flag wrapper; tests
/// drive this class directly on a loopback port.
class KpjServer {
 public:
  explicit KpjServer(KpjServerOptions options);
  ~KpjServer();

  KpjServer(const KpjServer&) = delete;
  KpjServer& operator=(const KpjServer&) = delete;

  /// Loads the initial serving state, binds the listener, and starts the
  /// accept loop. Returns only after the server is reachable.
  Status Start();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  /// Begins graceful drain: stop accepting connections and new queries,
  /// let admitted queries finish and be answered. Idempotent; safe from
  /// signal handlers via ShutdownSignal::Notify on drain_signal().
  void RequestDrain();

  /// The drain broadcast; kpjd points its SIGTERM/SIGINT handlers here.
  ShutdownSignal& drain_signal() { return drain_; }

  bool draining() const { return drain_.triggered(); }

  /// Blocks until drain completes: accept loop exited, every connection
  /// closed, all in-flight queries answered.
  void Wait();

  /// Loads `request.graph` (+ optional landmarks) into a fresh
  /// ServingState and flips the serving pointer. In-flight queries finish
  /// on the old state; the flip itself drops no queries. Swaps serialize.
  Result<api::SwapInfo> Swap(const api::SwapRequest& request);

  /// Current serving state (snapshot; safe to hold across a swap).
  std::shared_ptr<ServingState> state() const;

  /// The engine's metrics plus the server's own entries of the registry
  /// (core/metrics.def), as a snapshot or exposed as JSON / Prometheus.
  EngineMetricsSnapshot MetricsSnapshot() const;
  std::string MetricsJson() const;
  std::string MetricsPrometheus() const;

  /// Rolling-window (last 60 s) gauges served by the `stats` request.
  api::StatsInfo Stats() const;

  /// The access log, or null when disabled. Exposed for tests and the
  /// daemon's shutdown path; Wait() already flushes it on drain.
  AccessLog* access_log() const { return access_log_.get(); }

 private:
  /// Per-connection context threaded through request handling: the peer
  /// label for access-log lines, and the accept timestamp so the first
  /// traced request on the connection can emit a server.accept span
  /// retroactively (the trace id is only known after parsing).
  struct ConnContext {
    std::string peer;
    int64_t accept_us = 0;  ///< Trace-clock time the connection landed.
    bool first_request = true;
  };

  /// Accept loop: poll {listener, drain}; one thread per connection.
  void AcceptLoop();
  /// Connection loop: poll {socket, drain}; length-prefixed frames in,
  /// one response frame per request.
  void ConnectionLoop(Socket socket);

  /// Each handler writes exactly one response envelope head and at most
  /// one payload into `out`; the connection loop closes it with the trace
  /// block and sends the frame.
  void Handle(const api::RequestEnvelope& request, ConnContext& conn,
              api::ResponseWriter* out);
  void HandleQuery(const api::RequestEnvelope& request, ConnContext& conn,
                   api::ResponseWriter* out);
  void HandleBatch(const api::RequestEnvelope& request, ConnContext& conn,
                   api::ResponseWriter* out);
  void HandleMetrics(const api::RequestEnvelope& request,
                     api::ResponseWriter* out);
  void HandleHealth(const api::RequestEnvelope& request,
                    api::ResponseWriter* out);
  void HandleSwap(const api::RequestEnvelope& request,
                  api::ResponseWriter* out);
  void HandleStats(const api::RequestEnvelope& request,
                   api::ResponseWriter* out);

  /// Runs one query through admission + the engine on a state snapshot.
  /// `trace_id` tags the server.queue / server.execute spans and rides
  /// into the engine (see core QueryContext).
  api::QueryResponse RunAdmitted(const std::shared_ptr<ServingState>& state,
                                 api::QueryRequest request,
                                 double batch_deadline_ms, uint64_t trace_id);

  /// Span collection for requests that asked for their spans back
  /// (`trace.collect`). The global recorder is enabled while at least one
  /// collecting request is in flight (and left alone if something else —
  /// a test, a future --trace flag — had already enabled it); End harvests
  /// the spans carrying `trace_id` and clears the recorder once the last
  /// collector leaves.
  void BeginSpanCollection();
  std::vector<api::TraceSpanWire> EndSpanCollection(uint64_t trace_id);

  /// Writes one access-log line (no-op when the log is disabled).
  void LogAccess(AccessLogEntry entry);

  const KpjServerOptions options_;
  Socket listener_;
  uint16_t port_ = 0;
  Timer uptime_;

  mutable std::mutex state_mutex_;
  std::shared_ptr<ServingState> state_;
  /// Serializes Swap() calls (the flip itself is under state_mutex_).
  std::mutex swap_mutex_;
  std::atomic<uint64_t> next_epoch_{2};

  std::unique_ptr<AdmissionController> admission_;
  ShutdownSignal drain_;

  std::thread accept_thread_;
  std::mutex threads_mutex_;
  struct Connection {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Connection> connections_;

  LiveMetrics<MetricOwner::kServer> metrics_;

  std::unique_ptr<AccessLog> access_log_;  ///< Null when disabled.
  RollingWindow window_;

  /// Span-collection refcount (see BeginSpanCollection). trace_was_enabled_
  /// remembers whether something outside the server had the recorder on, so
  /// the last collector out does not stomp an external trace session.
  mutable std::mutex trace_mu_;
  int collecting_ = 0;
  bool trace_was_enabled_ = false;
};

}  // namespace kpj::server

#endif  // KPJ_SERVER_SERVER_H_
