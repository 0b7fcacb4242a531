#ifndef KPJ_SERVER_ACCESS_LOG_H_
#define KPJ_SERVER_ACCESS_LOG_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "api/api.h"
#include "util/status.h"

namespace kpj::server {

/// One structured access-log line (JSONL), written per query/batch request
/// the server handles. Every field joins against some other telemetry
/// stream: `trace_id` against the wire trace and the slow-query log,
/// `queue_ms`/`exec_ms` against the server histograms, `epoch` against
/// swap events.
struct AccessLogEntry {
  uint64_t trace_id = 0;       ///< 0 = request carried no trace context.
  std::string peer;            ///< "ip:port" of the requesting client.
  std::string type;            ///< Request kind ("query", "batch").
  std::string algorithm;       ///< Algorithm that served it (planner's pick
                               ///< when the query ran under --algorithm=auto).
  std::string planner_reason;  ///< Planner rule that fired; empty when the
                               ///< algorithm was fixed by config or request.
  uint32_t k = 0;              ///< Paths requested (batch: query count).
  double queue_ms = 0.0;       ///< Admission-queue wait.
  double exec_ms = 0.0;        ///< Engine execution wall time.
  api::StatusCode status = api::StatusCode::kOk;
  uint64_t epoch = 0;          ///< Serving-state epoch that answered.
  std::string shed_reason;     ///< Non-empty when admission shed the request.
  bool answer_cached = false;  ///< Served from the engine's answer cache
                               ///< (batch: every answer was).
};

struct AccessLogOptions {
  std::string path;                       ///< JSONL output file (required).
  size_t rotate_bytes = 64u << 20;        ///< Rotate to `path.1` past this.
  size_t buffer_bytes = 64u << 10;        ///< Flush threshold.
};

/// Buffered JSONL access log with size-based rotation.
///
/// Lines are formatted under a mutex into an in-memory buffer and flushed
/// when the buffer passes `buffer_bytes` — a request never waits on disk in
/// the common case. `Flush()` forces the buffer out (the server calls it on
/// drain so no line is lost on a clean exit). When the file would grow past
/// `rotate_bytes` the current file is renamed to `path.1` (replacing any
/// previous rotation) and a fresh file is started.
class AccessLog {
 public:
  /// Opens (appends to) the log file; fails if it cannot be created.
  static Result<std::unique_ptr<AccessLog>> Open(AccessLogOptions options);

  ~AccessLog();
  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  /// Appends one line; thread-safe. Write errors are sticky and reported
  /// by the next Flush().
  void Write(const AccessLogEntry& entry);

  /// Flushes buffered lines to disk. Returns the first sticky error, if
  /// any.
  Status Flush();

  /// Lines accepted since open (telemetry; includes buffered ones).
  uint64_t lines_written() const;

 private:
  explicit AccessLog(AccessLogOptions options, std::FILE* file,
                     size_t existing_bytes);

  void FlushLocked();
  void RotateLocked();

  const AccessLogOptions options_;
  mutable std::mutex mu_;
  std::FILE* file_;          // Owned; null after a failed rotation.
  std::string buffer_;
  size_t file_bytes_;        // Bytes already in the current file.
  uint64_t lines_ = 0;
  Status error_ = Status::Ok();
};

}  // namespace kpj::server

#endif  // KPJ_SERVER_ACCESS_LOG_H_
