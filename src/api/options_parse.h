#ifndef KPJ_API_OPTIONS_PARSE_H_
#define KPJ_API_OPTIONS_PARSE_H_

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/api.h"
#include "util/status.h"
#include "util/types.h"

namespace kpj::api {

/// Parsed command line: `<command> [--flag value | --flag=value]...`
/// Shared by kpj_cli (subcommand grammar) and kpjd/kpj_client; hoisted
/// here from src/cli so every tool validates flags through one path.
struct ParsedArgs {
  std::string command;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& name) const { return flags.count(name) != 0; }
  std::optional<std::string> Get(const std::string& name) const;
  /// Integer flag with default; Status on malformed value.
  Result<int64_t> GetInt(const std::string& name, int64_t def) const;
  /// Flag required to be present.
  Result<std::string> Require(const std::string& name) const;
};

/// Parses argv-style tokens (excluding the program name). Flags may be
/// written `--name value` or `--name=value`; bare `--name` stores "".
Result<ParsedArgs> ParseArgs(std::span<const std::string> args);

/// ParseArgs for flag-only tools (kpjd): no leading subcommand token;
/// `command` is left empty.
Result<ParsedArgs> ParseFlagsOnly(std::span<const std::string> args);

/// Parses "1,2,3" into node ids.
Result<std::vector<NodeId>> ParseNodeList(const std::string& text);

/// Defaults the shared engine-flag vocabulary starts from. kpj_cli and
/// kpjd both use {workers=1, cache_mb=64}; tests construct EngineConfig
/// directly (cache off) instead.
struct EngineConfigDefaults {
  unsigned workers = 1;
  size_t cache_mb = 64;
};

/// Reads the shared engine-option vocabulary — one validation path and one
/// error format for every tool:
///   --workers N        worker pool size (>= 1; --threads is an alias)
///   --intra-threads N  per-query lanes (>= 0; 0 = auto-split)
///   --cache-mb MB | --no-cache   (mutually exclusive)
///   --deadline-ms MS   default per-query deadline (>= 0; 0 = unbounded)
///   --slow-query-ms MS slow-query log threshold (>= 0; 0 = off)
///   --algorithm NAME   solver selection ("auto" = adaptive planner)
///   --alpha A          iter-bound growth factor (> 1)
/// Unlisted flags are untouched, so commands can mix in their own.
Result<EngineConfig> ParseEngineConfig(const ParsedArgs& args,
                                       EngineConfigDefaults defaults = {});

/// Reads just the --threads flag (default `def`, must be >= 1) for the
/// index-building commands that take a thread count without the rest of
/// the engine vocabulary.
Result<unsigned> ParseThreadsFlag(const ParsedArgs& args, int64_t def = 1);

}  // namespace kpj::api

#endif  // KPJ_API_OPTIONS_PARSE_H_
