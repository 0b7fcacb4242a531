// kpjd — the long-running KPJ service daemon.
//
// Serves the versioned kpj::api protocol (docs/PROTOCOL.md) over TCP:
// length-prefixed JSON frames carrying query/batch/metrics/health/drain/
// swap requests. Admission control bounds queueing (shed with
// `overloaded`, never unbounded), SIGTERM/SIGINT drain gracefully
// (in-flight queries are answered, metrics flushed), and `swap` hot-loads
// a new graph epoch without dropping traffic.
//
//   kpjd --graph FILE [--landmarks FILE] [--host 127.0.0.1] [--port 0]
//        [--port-file FILE] [--workers N] [--intra-threads N]
//        [--cache-mb MB | --no-cache]
//        [--deadline-ms MS] [--slow-query-ms MS] [--algorithm NAME|auto]
//        [--alpha A] [--max-queue N] [--backlog N]
//        [--metrics-out FILE|-] [--metrics-format json|prom]
//        [--access-log FILE] [--access-log-rotate-mb MB]
//        [--trusted-graphs]

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "api/options_parse.h"
#include "server/server.h"

namespace {

using kpj::Result;
using kpj::Status;

void PrintHelp(std::ostream& out) {
  out << "kpjd — long-running KPJ query service\n"
         "\n"
         "  kpjd --graph FILE [--landmarks FILE]\n"
         "       [--host 127.0.0.1] [--port 0] [--port-file FILE]\n"
         "       [--workers N] [--intra-threads N]\n"
         "       [--cache-mb MB | --no-cache]\n"
         "       [--deadline-ms MS] [--slow-query-ms MS]\n"
         "       [--algorithm NAME|auto] [--alpha A]\n"
         "       [--max-queue N] [--backlog N]\n"
         "       [--metrics-out FILE|-] [--metrics-format json|prom]\n"
         "       [--access-log FILE] [--access-log-rotate-mb MB]\n"
         "       [--trusted-graphs]\n"
         "\n"
         "Version-4 graph files (kpj_cli convert --format v4) are mmap'd:\n"
         "startup and hot swap serve straight out of the page cache with no\n"
         "array copies, and concurrent daemons share the mapped pages.\n"
         "Section checksums are verified on every mapped load (a corrupt\n"
         "swap file is rejected while the old epoch keeps serving);\n"
         "--trusted-graphs skips that pass for operator-generated files,\n"
         "making mapped loads O(1) in the graph size.\n"
         "--access-log appends one JSON line per query/batch request\n"
         "(trace_id, peer, queue_ms, exec_ms, status, epoch, ...), rotating\n"
         "to FILE.1 past --access-log-rotate-mb (default 64). Lines are\n"
         "buffered; drain flushes them before exit.\n"
         "--port 0 binds an ephemeral port; --port-file writes the bound\n"
         "port for clients/scripts to pick up. Queries past the admission\n"
         "queue bound (--max-queue) are shed with status 'overloaded'.\n"
         "SIGTERM/SIGINT drain gracefully: accepting stops, in-flight\n"
         "queries are answered, metrics are flushed to --metrics-out.\n"
         "Engine flags share the kpj_cli vocabulary (--threads is accepted\n"
         "as an alias for --workers).\n";
}

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "help") {
      PrintHelp(std::cout);
      return 0;
    }
  }
  Result<kpj::api::ParsedArgs> parsed = kpj::api::ParseFlagsOnly(args);
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.status().ToString() << "\n";
    PrintHelp(std::cerr);
    return 2;
  }
  const kpj::api::ParsedArgs& flags = parsed.value();

  kpj::server::KpjServerOptions options;
  Result<std::string> graph = flags.Require("graph");
  if (!graph.ok()) return Fail(graph.status());
  options.graph_path = graph.value();
  options.landmarks_path = flags.Get("landmarks").value_or("");
  options.host = flags.Get("host").value_or("127.0.0.1");

  Result<int64_t> port = flags.GetInt("port", 0);
  if (!port.ok()) return Fail(port.status());
  if (port.value() < 0 || port.value() > 65535) {
    return Fail(Status::InvalidArgument("--port must be in [0, 65535]"));
  }
  options.port = static_cast<uint16_t>(port.value());

  Result<int64_t> max_queue = flags.GetInt("max-queue", 16);
  if (!max_queue.ok()) return Fail(max_queue.status());
  if (max_queue.value() < 0) {
    return Fail(Status::InvalidArgument("--max-queue must be >= 0"));
  }
  options.max_queue = static_cast<size_t>(max_queue.value());

  Result<int64_t> backlog = flags.GetInt("backlog", 64);
  if (!backlog.ok()) return Fail(backlog.status());
  if (backlog.value() < 1) {
    return Fail(Status::InvalidArgument("--backlog must be >= 1"));
  }
  options.backlog = static_cast<int>(backlog.value());

  options.access_log_path = flags.Get("access-log").value_or("");
  Result<int64_t> rotate_mb = flags.GetInt("access-log-rotate-mb", 64);
  if (!rotate_mb.ok()) return Fail(rotate_mb.status());
  if (rotate_mb.value() < 1) {
    return Fail(
        Status::InvalidArgument("--access-log-rotate-mb must be >= 1"));
  }
  options.access_log_rotate_bytes =
      static_cast<size_t>(rotate_mb.value()) << 20;
  options.trusted_graphs = flags.Has("trusted-graphs");

  Result<kpj::api::EngineConfig> engine =
      kpj::api::ParseEngineConfig(flags);
  if (!engine.ok()) return Fail(engine.status());
  options.engine = engine.value();

  std::string metrics_format = flags.Get("metrics-format").value_or("json");
  if (metrics_format != "json" && metrics_format != "prom") {
    return Fail(
        Status::InvalidArgument("--metrics-format must be 'json' or 'prom'"));
  }

  kpj::server::KpjServer server(std::move(options));
  Status started = server.Start();
  if (!started.ok()) return Fail(started);

  if (auto port_file = flags.Get("port-file"); port_file.has_value()) {
    std::ofstream out(*port_file);
    if (!out) {
      return Fail(Status::IoError("cannot open " + *port_file));
    }
    out << server.port() << "\n";
  }
  std::cout << "kpjd listening on " << flags.Get("host").value_or("127.0.0.1")
            << ":" << server.port() << " (graph " << graph.value() << ")"
            << std::endl;

  server.drain_signal().InstallHandlers();
  server.Wait();

  // Drained: flush metrics before exit so the final counters (including
  // kpj_server_drained_total) are observable.
  if (auto path = flags.Get("metrics-out"); path.has_value()) {
    std::string payload = metrics_format == "prom"
                              ? server.MetricsPrometheus()
                              : server.MetricsJson();
    if (*path == "-" || path->empty()) {
      std::cout << payload << "\n";
    } else {
      std::ofstream out(*path);
      if (!out) return Fail(Status::IoError("cannot open " + *path));
      out << payload << "\n";
    }
  }
  std::cout << "kpjd drained cleanly" << std::endl;
  return 0;
}
