#include "server/access_log.h"

#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/string_util.h"
#include "util/trace.h"

namespace kpj::server {
namespace {

/// Wall-clock milliseconds since the Unix epoch; access-log lines are
/// joined against external systems, so unlike the trace clock this one is
/// absolute.
int64_t WallMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void AppendDouble(std::string* out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  out->append(buf);
}

}  // namespace

Result<std::unique_ptr<AccessLog>> AccessLog::Open(AccessLogOptions options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("access log path must not be empty");
  }
  std::FILE* file = std::fopen(options.path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IoError("cannot open access log: " + options.path + ": " +
                           std::strerror(errno));
  }
  struct stat st{};
  size_t existing = 0;
  if (::fstat(::fileno(file), &st) == 0 && st.st_size > 0) {
    existing = static_cast<size_t>(st.st_size);
  }
  return std::unique_ptr<AccessLog>(
      new AccessLog(std::move(options), file, existing));
}

AccessLog::AccessLog(AccessLogOptions options, std::FILE* file,
                     size_t existing_bytes)
    : options_(std::move(options)), file_(file), file_bytes_(existing_bytes) {
  buffer_.reserve(options_.buffer_bytes + 512);
}

AccessLog::~AccessLog() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
  if (file_ != nullptr) std::fclose(file_);
}

void AccessLog::Write(const AccessLogEntry& entry) {
  std::string line;
  line.reserve(256);
  line += "{\"ts_ms\":";
  line += std::to_string(WallMillis());
  line += ",\"trace_id\":\"";
  line += FormatTraceId(entry.trace_id);
  line += "\",\"peer\":";
  line += JsonEscape(entry.peer);
  line += ",\"type\":";
  line += JsonEscape(entry.type);
  line += ",\"algorithm\":";
  line += JsonEscape(entry.algorithm);
  if (!entry.planner_reason.empty()) {
    line += ",\"planner_reason\":";
    line += JsonEscape(entry.planner_reason);
  }
  line += ",\"k\":";
  line += std::to_string(entry.k);
  line += ",\"queue_ms\":";
  AppendDouble(&line, entry.queue_ms);
  line += ",\"exec_ms\":";
  AppendDouble(&line, entry.exec_ms);
  line += ",\"status\":";
  line += JsonEscape(api::StatusCodeName(entry.status));
  line += ",\"epoch\":";
  line += std::to_string(entry.epoch);
  line += ",\"shed_reason\":";
  line += JsonEscape(entry.shed_reason);
  line += ",\"answer_cached\":";
  line += entry.answer_cached ? "true" : "false";
  line += "}\n";

  std::lock_guard<std::mutex> lock(mu_);
  ++lines_;
  buffer_ += line;
  if (buffer_.size() >= options_.buffer_bytes) FlushLocked();
}

Status AccessLog::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
  return error_;
}

uint64_t AccessLog::lines_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

void AccessLog::FlushLocked() {
  if (buffer_.empty() || file_ == nullptr) {
    buffer_.clear();
    return;
  }
  if (file_bytes_ + buffer_.size() > options_.rotate_bytes &&
      file_bytes_ > 0) {
    RotateLocked();
    if (file_ == nullptr) {
      buffer_.clear();
      return;
    }
  }
  size_t written = std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  if (written != buffer_.size() && error_.ok()) {
    error_ = Status::IoError("short write to access log: " + options_.path);
  }
  std::fflush(file_);
  file_bytes_ += written;
  buffer_.clear();
}

void AccessLog::RotateLocked() {
  std::fclose(file_);
  file_ = nullptr;
  std::string rotated = options_.path + ".1";
  // A failed rename (e.g. EXDEV on a weird mount) falls through to
  // reopening in append mode — the file keeps growing past the limit,
  // which beats losing lines.
  std::rename(options_.path.c_str(), rotated.c_str());
  file_ = std::fopen(options_.path.c_str(), "ab");
  if (file_ == nullptr) {
    if (error_.ok()) {
      error_ = Status::IoError("cannot reopen access log after rotation: " +
                               options_.path);
    }
    return;
  }
  struct stat st{};
  file_bytes_ = 0;
  if (::fstat(::fileno(file_), &st) == 0 && st.st_size > 0) {
    file_bytes_ = static_cast<size_t>(st.st_size);
  }
}

}  // namespace kpj::server
