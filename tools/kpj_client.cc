// kpj_client — thin client for the kpjd service (docs/PROTOCOL.md).
//
//   kpj_client query   --port P --source S --targets A,B,C [--k 10]
//                      [--deadline-ms MS] [--algorithm NAME|auto]
//                      [--trace-out FILE]
//   kpj_client batch   --port P --queries FILE [--deadline-ms MS]
//   kpj_client metrics --port P [--format json|prom]
//   kpj_client stats   --port P [--json]
//   kpj_client health  --port P
//   kpj_client drain   --port P
//   kpj_client swap    --port P --graph FILE [--landmarks FILE]
//
// --port-file FILE (written by kpjd --port-file) substitutes for --port.
// Exit code: 0 on success, 1 on any error status (including 'overloaded').
//
// --trace-out sends the query with a fresh trace id and `trace.collect`,
// then merges the client-side spans with the server-echoed spans (rebased
// onto the client clock) into one Chrome trace JSON file — a single
// end-to-end timeline from connect to solver and back.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.h"
#include "api/options_parse.h"
#include "api/wire.h"
#include "util/socket.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace {

using kpj::Result;
using kpj::Socket;
using kpj::Status;
namespace api = kpj::api;

constexpr size_t kMaxFrameBytes = 64 << 20;

void PrintHelp(std::ostream& out) {
  out << "kpj_client — client for the kpjd service\n"
         "\n"
         "  kpj_client query   --port P --source S --targets A,B,C"
         " [--k 10]\n"
         "                     [--deadline-ms MS] [--algorithm NAME|auto]\n"
         "                     [--trace-out FILE]\n"
         "  kpj_client batch   --port P --queries FILE [--deadline-ms MS]\n"
         "  kpj_client metrics --port P [--format json|prom]\n"
         "  kpj_client stats   --port P [--json]\n"
         "  kpj_client health  --port P\n"
         "  kpj_client drain   --port P\n"
         "  kpj_client swap    --port P --graph FILE [--landmarks FILE]\n"
         "\n"
         "--host defaults to 127.0.0.1; --port-file FILE reads the port\n"
         "kpjd wrote with its own --port-file flag. Query files use the\n"
         "kpj_cli batch format: one 'source k target...' line per query.\n"
         "query --trace-out FILE writes a merged client+server Chrome\n"
         "trace (open in chrome://tracing or Perfetto); stats prints the\n"
         "daemon's rolling 60 s throughput/latency window.\n";
}

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

Result<uint16_t> ResolvePort(const api::ParsedArgs& args) {
  if (auto port_file = args.Get("port-file"); port_file.has_value()) {
    std::ifstream in(*port_file);
    if (!in) return Status::IoError("cannot open " + *port_file);
    int64_t port = -1;
    in >> port;
    if (port < 1 || port > 65535) {
      return Status::InvalidArgument(*port_file +
                                     " does not contain a port number");
    }
    return static_cast<uint16_t>(port);
  }
  Result<int64_t> port = args.GetInt("port", -1);
  if (!port.ok()) return port.status();
  if (port.value() < 1 || port.value() > 65535) {
    return Status::InvalidArgument("need --port P or --port-file FILE");
  }
  return static_cast<uint16_t>(port.value());
}

/// One request/response round trip on a fresh connection. A nonzero
/// `trace_id` rides in the envelope with `trace.collect` set, and the
/// client-side phases (connect/send/wait/parse) are recorded as spans when
/// the global recorder is enabled (query --trace-out turns it on).
Result<api::ResponseEnvelope> RoundTrip(const api::ParsedArgs& args,
                                        api::RequestType type,
                                        api::JsonValue payload,
                                        uint64_t trace_id = 0) {
  Result<uint16_t> port = ResolvePort(args);
  if (!port.ok()) return port.status();
  std::string host = args.Get("host").value_or("127.0.0.1");
  kpj::TraceContext trace_ctx(trace_id);
  Result<Socket> socket = [&] {
    kpj::TraceSpan span("client.connect");
    return kpj::ConnectTcp(host, port.value());
  }();
  if (!socket.ok()) return socket.status();

  api::RequestEnvelope request;
  request.id = 1;
  request.type = type;
  request.payload = std::move(payload);
  request.trace_id = trace_id;
  request.collect_spans = trace_id != 0;
  {
    kpj::TraceSpan span("client.send");
    KPJ_RETURN_IF_ERROR(
        kpj::WriteFrame(socket.value(), api::SerializeRequest(request)));
  }
  Result<kpj::Frame> frame = [&] {
    kpj::TraceSpan span("client.wait");
    return kpj::ReadFrame(socket.value(), kMaxFrameBytes);
  }();
  if (!frame.ok()) return frame.status();
  if (frame.value().eof) {
    return Status::IoError("server closed the connection without a response");
  }
  kpj::TraceSpan span("client.parse");
  return api::ParseResponse(frame.value().payload);
}

/// Merges the client's recorded spans with the server-echoed ones into one
/// Chrome trace file. Server timestamps are on the server's trace clock;
/// they are rebased so the server activity window is centered inside the
/// client's wait span (the classic midpoint alignment — exact offsets need
/// clock sync, but for a single request this keeps causality visually
/// consistent).
Status WriteMergedTrace(const std::string& path, uint64_t trace_id,
                        const std::vector<api::TraceSpanWire>& server_spans) {
  kpj::TraceRecorder& rec = kpj::TraceRecorder::Global();
  std::vector<kpj::TraceRecorder::Event> client_events = rec.Snapshot();

  int64_t wait_start = 0, wait_end = 0;
  for (const auto& event : client_events) {
    if (event.name == "client.wait") {
      wait_start = event.ts_us;
      wait_end = event.ts_us + event.dur_us;
    }
  }
  int64_t offset_us = 0;
  if (!server_spans.empty()) {
    int64_t server_min = server_spans.front().ts_us;
    int64_t server_max = server_min;
    for (const auto& span : server_spans) {
      server_min = std::min(server_min, span.ts_us);
      server_max = std::max(server_max, span.ts_us + span.dur_us);
    }
    if (wait_end > wait_start) {
      offset_us = (wait_start + wait_end) / 2 - (server_min + server_max) / 2;
    }
    // server.accept starts before client.send (it opens at connection
    // accept), so the rebased window can poke past the wait span; keep
    // every timestamp non-negative for trace viewers.
    if (server_min + offset_us < 0) offset_us = -server_min;
  }

  std::string id_text = kpj::FormatTraceId(trace_id);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto append = [&](const std::string& name, char phase, int64_t ts,
                    int64_t dur, int pid, uint32_t tid) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":" + kpj::JsonEscape(name) + ",\"ph\":\"";
    out += phase;
    out += "\",\"ts\":" + std::to_string(ts);
    if (phase == 'X') out += ",\"dur\":" + std::to_string(dur);
    if (phase == 'i') out += ",\"s\":\"t\"";
    out += ",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(tid) +
           ",\"args\":{\"trace_id\":\"" + id_text + "\"}}";
  };
  for (const auto& event : client_events) {
    if (event.trace_id != trace_id) continue;
    append(event.name, event.phase, event.ts_us, event.dur_us, /*pid=*/1,
           event.tid);
  }
  for (const auto& span : server_spans) {
    append(span.name, 'X', span.ts_us + offset_us, span.dur_us, /*pid=*/2,
           span.tid);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";

  std::ofstream file(path, std::ios::trunc);
  if (!file) return Status::IoError("cannot open " + path);
  file << out << "\n";
  if (!file.good()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

/// Prints one query response in kpj_cli style; returns the exit code.
int PrintQueryResponse(const api::QueryResponse& response) {
  for (const api::PathPayload& path : response.paths) {
    std::ostringstream line;
    for (size_t i = 0; i < path.nodes.size(); ++i) {
      if (i > 0) line << " -> ";
      line << path.nodes[i];
    }
    line << " (len " << path.length << ")";
    std::cout << line.str() << "\n";
  }
  std::cout << "# " << response.paths.size() << " paths in "
            << response.elapsed_ms << " ms (queue " << response.queue_ms
            << " ms, epoch " << response.epoch << ")\n";
  if (!response.algorithm_chosen.empty()) {
    std::cout << "# algorithm: " << response.algorithm_chosen;
    if (!response.planner_reason.empty()) {
      std::cout << " (" << response.planner_reason << ")";
    }
    std::cout << "\n";
  }
  if (response.status != api::StatusCode::kOk) {
    std::cout << "# status: " << api::StatusCodeName(response.status);
    if (!response.message.empty()) std::cout << " (" << response.message
                                             << ")";
    std::cout << "\n";
    // Deadline-bounded partial answers are still usable output, but any
    // non-ok status is a non-zero exit so scripts can branch on it.
    return 1;
  }
  return 0;
}

int CmdQuery(const api::ParsedArgs& args) {
  api::QueryRequest request;
  Result<std::string> source = args.Require("source");
  if (!source.ok()) return Fail(source.status());
  Result<std::vector<kpj::NodeId>> sources =
      api::ParseNodeList(source.value());
  if (!sources.ok()) return Fail(sources.status());
  request.sources = std::move(sources).value();
  Result<std::string> targets_text = args.Require("targets");
  if (!targets_text.ok()) return Fail(targets_text.status());
  Result<std::vector<kpj::NodeId>> targets =
      api::ParseNodeList(targets_text.value());
  if (!targets.ok()) return Fail(targets.status());
  request.targets = std::move(targets).value();
  Result<int64_t> k = args.GetInt("k", 10);
  if (!k.ok() || k.value() <= 0) {
    return Fail(Status::InvalidArgument("--k must be positive"));
  }
  request.k = static_cast<uint32_t>(k.value());
  if (auto deadline = args.Get("deadline-ms"); deadline.has_value()) {
    auto parsed = kpj::ParseDouble(*deadline);
    if (!parsed || *parsed < 0.0) {
      return Fail(Status::InvalidArgument("--deadline-ms must be >= 0"));
    }
    request.deadline_ms = *parsed;
  }
  if (auto algorithm = args.Get("algorithm"); algorithm.has_value()) {
    // Validate the spelling client-side for a friendly error; the server
    // re-validates before admission.
    Result<kpj::Algorithm> parsed = api::ParseAlgorithm(*algorithm);
    if (!parsed.ok()) return Fail(parsed.status());
    request.algorithm = AlgorithmName(parsed.value());
  }

  std::string trace_out = args.Get("trace-out").value_or("");
  uint64_t trace_id = 0;
  if (!trace_out.empty()) {
    std::random_device rd;
    std::mt19937_64 rng((static_cast<uint64_t>(rd()) << 32) ^ rd());
    while (trace_id == 0) trace_id = rng();  // 0 means "no trace" on the wire.
    kpj::TraceRecorder::Global().Enable();
  }

  Result<api::ResponseEnvelope> response = [&] {
    kpj::TraceContext trace_ctx(trace_id);
    kpj::TraceSpan root("client.request");
    return RoundTrip(args, api::RequestType::kQuery, api::ToJson(request),
                     trace_id);
  }();
  if (!response.ok()) return Fail(response.status());
  if (!trace_out.empty()) {
    Status written = WriteMergedTrace(trace_out, trace_id,
                                      response.value().trace_spans);
    if (!written.ok()) return Fail(written);
    std::cout << "# trace " << kpj::FormatTraceId(trace_id) << ": "
              << response.value().trace_spans.size()
              << " server spans merged into " << trace_out << "\n";
  }
  if (response.value().payload.is_null()) {
    std::cerr << "error: "
              << api::StatusCodeName(response.value().status) << ": "
              << response.value().message << "\n";
    return 1;
  }
  Result<api::QueryResponse> result =
      api::QueryResponseFromJson(response.value().payload);
  if (!result.ok()) return Fail(result.status());
  return PrintQueryResponse(result.value());
}

int CmdBatch(const api::ParsedArgs& args) {
  Result<std::string> queries_path = args.Require("queries");
  if (!queries_path.ok()) return Fail(queries_path.status());
  std::ifstream in(queries_path.value());
  if (!in) {
    return Fail(Status::IoError("cannot open " + queries_path.value()));
  }
  api::BatchRequest batch;
  std::vector<size_t> line_numbers;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view trimmed = kpj::Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    auto fields = kpj::SplitWhitespace(trimmed);
    if (fields.size() < 3) {
      return Fail(Status::InvalidArgument(
          "query line " + std::to_string(line_no) +
          ": want 'source k target...'"));
    }
    api::QueryRequest query;
    auto src = kpj::ParseInt(fields[0]);
    auto kval = kpj::ParseInt(fields[1]);
    if (!src || !kval || *src < 0 || *kval <= 0) {
      return Fail(Status::InvalidArgument(
          "query line " + std::to_string(line_no) + ": bad source/k"));
    }
    query.sources = {static_cast<kpj::NodeId>(*src)};
    query.k = static_cast<uint32_t>(*kval);
    for (size_t i = 2; i < fields.size(); ++i) {
      auto t = kpj::ParseInt(fields[i]);
      if (!t || *t < 0) {
        return Fail(Status::InvalidArgument(
            "query line " + std::to_string(line_no) + ": bad target"));
      }
      query.targets.push_back(static_cast<kpj::NodeId>(*t));
    }
    batch.queries.push_back(std::move(query));
    line_numbers.push_back(line_no);
  }
  if (auto deadline = args.Get("deadline-ms"); deadline.has_value()) {
    auto parsed = kpj::ParseDouble(*deadline);
    if (!parsed || *parsed < 0.0) {
      return Fail(Status::InvalidArgument("--deadline-ms must be >= 0"));
    }
    batch.deadline_ms = *parsed;
  }

  Result<api::ResponseEnvelope> response =
      RoundTrip(args, api::RequestType::kBatch, api::ToJson(batch));
  if (!response.ok()) return Fail(response.status());
  if (response.value().status != api::StatusCode::kOk) {
    std::cerr << "error: "
              << api::StatusCodeName(response.value().status) << ": "
              << response.value().message << "\n";
    return 1;
  }
  Result<api::BatchResponse> result =
      api::BatchResponseFromJson(response.value().payload);
  if (!result.ok()) return Fail(result.status());
  int exit_code = 0;
  const std::vector<api::QueryResponse>& results = result.value().results;
  for (size_t i = 0; i < results.size(); ++i) {
    size_t label = i < line_numbers.size() ? line_numbers[i] : i + 1;
    std::cout << "query " << label << ":";
    for (const api::PathPayload& path : results[i].paths) {
      std::cout << " " << path.length;
    }
    if (results[i].status != api::StatusCode::kOk) {
      std::cout << " # " << api::StatusCodeName(results[i].status);
      exit_code = 1;
    }
    std::cout << "\n";
  }
  std::cout << "# " << results.size() << " queries (epoch "
            << (results.empty() ? 0 : results.front().epoch) << ")\n";
  return exit_code;
}

int CmdMetrics(const api::ParsedArgs& args) {
  api::MetricsRequest request;
  request.format = args.Get("format").value_or("json");
  if (request.format != "json" && request.format != "prom") {
    return Fail(Status::InvalidArgument("--format must be 'json' or 'prom'"));
  }
  Result<api::ResponseEnvelope> response =
      RoundTrip(args, api::RequestType::kMetrics, api::ToJson(request));
  if (!response.ok()) return Fail(response.status());
  if (response.value().status != api::StatusCode::kOk) {
    std::cerr << "error: "
              << api::StatusCodeName(response.value().status) << ": "
              << response.value().message << "\n";
    return 1;
  }
  Result<std::string> body =
      api::GetString(response.value().payload, "body");
  if (!body.ok()) return Fail(body.status());
  std::cout << body.value() << "\n";
  return 0;
}

int CmdStats(const api::ParsedArgs& args) {
  Result<api::ResponseEnvelope> response =
      RoundTrip(args, api::RequestType::kStats, api::JsonValue::Null());
  if (!response.ok()) return Fail(response.status());
  if (response.value().status != api::StatusCode::kOk) {
    std::cerr << "error: "
              << api::StatusCodeName(response.value().status) << ": "
              << response.value().message << "\n";
    return 1;
  }
  if (args.Get("json").has_value()) {
    std::cout << response.value().payload.Dump() << "\n";
    return 0;
  }
  Result<api::StatsInfo> info =
      api::StatsInfoFromJson(response.value().payload);
  if (!info.ok()) return Fail(info.status());
  const api::StatsInfo& s = info.value();
  std::cout << "window:     " << s.window_s << " s\n"
            << "requests:   " << s.requests << " (" << s.qps << " rps)\n"
            << "shed:       " << s.shed << "\n"
            << "errors:     " << s.errors << "\n"
            << "latency:    mean " << s.latency_mean_ms << " ms, p50 "
            << s.latency_p50_ms << " ms, p90 " << s.latency_p90_ms
            << " ms, p99 " << s.latency_p99_ms << " ms, max "
            << s.latency_max_ms << " ms\n"
            << "in flight:  " << s.in_flight << "\n"
            << "epoch:      " << s.epoch << "\n";
  if (!s.per_second.empty()) {
    std::cout << "per second:";
    for (uint64_t count : s.per_second) std::cout << " " << count;
    std::cout << "\n";
  }
  return 0;
}

int CmdHealth(const api::ParsedArgs& args) {
  Result<api::ResponseEnvelope> response =
      RoundTrip(args, api::RequestType::kHealth, api::JsonValue::Null());
  if (!response.ok()) return Fail(response.status());
  Result<api::HealthInfo> info =
      api::HealthInfoFromJson(response.value().payload);
  if (!info.ok()) return Fail(info.status());
  std::cout << "serving:   " << (info.value().serving ? "yes" : "no") << "\n"
            << "epoch:     " << info.value().epoch << "\n"
            << "graph:     " << info.value().graph << "\n"
            << "uptime:    " << info.value().uptime_ms << " ms\n"
            << "in flight: " << info.value().in_flight << "\n";
  return info.value().serving ? 0 : 1;
}

int CmdDrain(const api::ParsedArgs& args) {
  Result<api::ResponseEnvelope> response =
      RoundTrip(args, api::RequestType::kDrain, api::JsonValue::Null());
  if (!response.ok()) return Fail(response.status());
  if (response.value().status != api::StatusCode::kOk) {
    std::cerr << "error: "
              << api::StatusCodeName(response.value().status) << ": "
              << response.value().message << "\n";
    return 1;
  }
  std::cout << "drain requested\n";
  return 0;
}

int CmdSwap(const api::ParsedArgs& args) {
  api::SwapRequest request;
  Result<std::string> graph = args.Require("graph");
  if (!graph.ok()) return Fail(graph.status());
  request.graph = graph.value();
  request.landmarks = args.Get("landmarks").value_or("");
  Result<api::ResponseEnvelope> response =
      RoundTrip(args, api::RequestType::kSwap, api::ToJson(request));
  if (!response.ok()) return Fail(response.status());
  if (response.value().status != api::StatusCode::kOk) {
    std::cerr << "error: "
              << api::StatusCodeName(response.value().status) << ": "
              << response.value().message << "\n";
    return 1;
  }
  Result<api::SwapInfo> info =
      api::SwapInfoFromJson(response.value().payload);
  if (!info.ok()) return Fail(info.status());
  std::cout << "swapped epoch " << info.value().old_epoch << " -> "
            << info.value().new_epoch << " in " << info.value().load_ms
            << " ms\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  Result<api::ParsedArgs> parsed = api::ParseArgs(args);
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.status().ToString() << "\n";
    PrintHelp(std::cerr);
    return 2;
  }
  const api::ParsedArgs& a = parsed.value();
  if (a.command == "help" || a.command == "--help") {
    PrintHelp(std::cout);
    return 0;
  }
  if (a.command == "query") return CmdQuery(a);
  if (a.command == "batch") return CmdBatch(a);
  if (a.command == "metrics") return CmdMetrics(a);
  if (a.command == "stats") return CmdStats(a);
  if (a.command == "health") return CmdHealth(a);
  if (a.command == "drain") return CmdDrain(a);
  if (a.command == "swap") return CmdSwap(a);
  std::cerr << "error: unknown command '" << a.command << "'\n";
  PrintHelp(std::cerr);
  return 2;
}
