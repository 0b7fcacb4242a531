#include "api/options_parse.h"

#include "util/concurrency.h"
#include "util/string_util.h"

namespace kpj::api {

std::optional<std::string> ParsedArgs::Get(const std::string& name) const {
  auto it = flags.find(name);
  if (it == flags.end()) return std::nullopt;
  return it->second;
}

Result<int64_t> ParsedArgs::GetInt(const std::string& name,
                                   int64_t def) const {
  auto it = flags.find(name);
  if (it == flags.end()) return def;
  auto parsed = ParseInt(it->second);
  if (!parsed) {
    return Status::InvalidArgument("--" + name + " expects an integer, got '" +
                                   it->second + "'");
  }
  return *parsed;
}

Result<std::string> ParsedArgs::Require(const std::string& name) const {
  auto it = flags.find(name);
  if (it == flags.end()) {
    return Status::InvalidArgument("missing required flag --" + name);
  }
  return it->second;
}

namespace {

Status ParseFlagTokens(std::span<const std::string> args, size_t first,
                       ParsedArgs* out) {
  for (size_t i = first; i < args.size(); ++i) {
    const std::string& token = args[i];
    if (token.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument '" + token + "'");
    }
    std::string body = token.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("empty flag '--'");
    }
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      out->flags[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      out->flags[body] = args[i + 1];
      ++i;
    } else {
      out->flags[body] = "";
    }
  }
  return Status::Ok();
}

}  // namespace

Result<ParsedArgs> ParseArgs(std::span<const std::string> args) {
  if (args.empty()) {
    return Status::InvalidArgument("missing command (try 'help')");
  }
  ParsedArgs out;
  out.command = args[0];
  KPJ_RETURN_IF_ERROR(ParseFlagTokens(args, 1, &out));
  return out;
}

Result<ParsedArgs> ParseFlagsOnly(std::span<const std::string> args) {
  ParsedArgs out;
  KPJ_RETURN_IF_ERROR(ParseFlagTokens(args, 0, &out));
  return out;
}

Result<std::vector<NodeId>> ParseNodeList(const std::string& text) {
  std::vector<NodeId> out;
  for (std::string_view part : SplitChar(text, ',')) {
    auto v = ParseInt(part);
    if (!v || *v < 0) {
      return Status::InvalidArgument("bad node id '" + std::string(part) +
                                     "'");
    }
    out.push_back(static_cast<NodeId>(*v));
  }
  if (out.empty()) return Status::InvalidArgument("empty node list");
  return out;
}

Result<unsigned> ParseThreadsFlag(const ParsedArgs& args, int64_t def) {
  Result<int64_t> threads = args.GetInt("threads", def);
  if (!threads.ok()) return threads.status();
  if (threads.value() < 1) {
    return Status::InvalidArgument("--threads must be >= 1");
  }
  return static_cast<unsigned>(threads.value());
}

namespace {

/// --workers with --threads kept as the historical alias; the error names
/// whichever spelling the user wrote.
Result<unsigned> ParseWorkersFlag(const ParsedArgs& args, unsigned def) {
  const char* flag = args.Has("workers") ? "workers" : "threads";
  Result<int64_t> workers =
      args.GetInt(flag, static_cast<int64_t>(def));
  if (!workers.ok()) return workers.status();
  if (workers.value() < 1) {
    return Status::InvalidArgument(std::string("--") + flag +
                                   " must be >= 1");
  }
  return static_cast<unsigned>(workers.value());
}

Result<unsigned> ParseIntraThreadsFlag(const ParsedArgs& args) {
  Result<int64_t> intra = args.GetInt("intra-threads", 1);
  if (!intra.ok()) return intra.status();
  if (intra.value() < 0) {
    return Status::InvalidArgument("--intra-threads must be >= 0");
  }
  unsigned lanes = static_cast<unsigned>(intra.value());
  // Explicit lane counts share the advisory hardware clamp with --workers.
  if (lanes > 1) lanes = EffectiveWorkers(lanes);
  return lanes;
}

Result<size_t> ParseCacheFlag(const ParsedArgs& args, size_t def) {
  if (args.Has("no-cache")) {
    if (args.Get("cache-mb").has_value()) {
      return Status::InvalidArgument(
          "--no-cache and --cache-mb are mutually exclusive");
    }
    return size_t{0};
  }
  Result<int64_t> mb = args.GetInt("cache-mb", static_cast<int64_t>(def));
  if (!mb.ok()) return mb.status();
  if (mb.value() < 0) {
    return Status::InvalidArgument("--cache-mb must be >= 0");
  }
  return static_cast<size_t>(mb.value());
}

Result<double> ParseNonNegativeMs(const ParsedArgs& args,
                                  const std::string& name) {
  auto text = args.Get(name);
  if (!text.has_value()) return 0.0;
  auto parsed = ParseDouble(*text);
  if (!parsed || *parsed < 0.0) {
    return Status::InvalidArgument("--" + name + " must be >= 0");
  }
  return *parsed;
}

}  // namespace

Result<EngineConfig> ParseEngineConfig(const ParsedArgs& args,
                                       EngineConfigDefaults defaults) {
  EngineConfig config;

  Result<unsigned> workers = ParseWorkersFlag(args, defaults.workers);
  if (!workers.ok()) return workers.status();
  config.workers = workers.value();

  Result<unsigned> intra = ParseIntraThreadsFlag(args);
  if (!intra.ok()) return intra.status();
  config.intra_threads = intra.value();

  Result<size_t> cache_mb = ParseCacheFlag(args, defaults.cache_mb);
  if (!cache_mb.ok()) return cache_mb.status();
  config.cache_mb = cache_mb.value();

  Result<double> deadline = ParseNonNegativeMs(args, "deadline-ms");
  if (!deadline.ok()) return deadline.status();
  config.deadline_ms = deadline.value();

  Result<double> slow_query = ParseNonNegativeMs(args, "slow-query-ms");
  if (!slow_query.ok()) return slow_query.status();
  config.slow_query_ms = slow_query.value();

  if (auto name = args.Get("algorithm"); name.has_value()) {
    Result<Algorithm> algorithm = ParseAlgorithm(*name);
    if (!algorithm.ok()) return algorithm.status();
    config.algorithm = algorithm.value();
  }

  if (auto alpha = args.Get("alpha"); alpha.has_value()) {
    auto parsed = ParseDouble(*alpha);
    if (!parsed || *parsed <= 1.0) {
      return Status::InvalidArgument("--alpha must be > 1");
    }
    config.alpha = *parsed;
  }

  KPJ_RETURN_IF_ERROR(config.Validate());
  return config;
}

}  // namespace kpj::api
