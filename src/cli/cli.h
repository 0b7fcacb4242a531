#ifndef KPJ_CLI_CLI_H_
#define KPJ_CLI_CLI_H_

#include <ostream>
#include <span>
#include <string>

#include "api/options_parse.h"
#include "core/kpj_query.h"
#include "util/status.h"

namespace kpj::cli {

/// The flag grammar and shared parsers live in the versioned API layer
/// (api/options_parse.h) so kpj_cli, kpjd and kpj_client accept the same
/// vocabulary with one validation path; these aliases keep the historical
/// kpj::cli spellings working.
using api::ParsedArgs;
using api::ParseArgs;
using api::ParseAlgorithm;
using api::ParseNodeList;

/// Entry point used by the kpj_cli binary and by tests. Returns the
/// process exit code; human output goes to `out`, errors to `err`.
///
/// Commands:
///   generate  --nodes N [--seed S] --out FILE [--coords FILE]
///             [--reorder none|bfs|degree|hybrid]
///   convert   --in FILE --out FILE          (.gr <-> .bin by extension)
///             [--reorder STRAT]             (composes with a stored layout)
///   info      --graph FILE
///   landmarks --graph FILE --out FILE [--count 16] [--seed S]
///             [--threads N]
///   pois      --graph FILE --out FILE [--seed S] [--cal]
///   query     --graph FILE --source S
///             (--targets A,B,C | --categories FILE --category NAME)
///             [--k 10]
///             [--algorithm NAME] [--landmarks FILE] [--alpha 1.1] [--stats]
///             [--reorder STRAT]             (in-memory, at load time)
///             [--threads N] [--deadline-ms MS] [--metrics-json FILE|-]
///   batch     --graph FILE --queries FILE [--algorithm NAME]
///             [--landmarks FILE] [--threads N]
///             [--reorder STRAT]
///             [--deadline-ms MS] [--metrics-json FILE|-]
///             (query file: one `source k target...` line per query)
///   help
///
/// query and batch run on the concurrent KpjEngine over a KpjInstance:
/// --threads sets the worker pool size, --deadline-ms bounds each query
/// (an expired deadline yields a flagged partial result, not an error),
/// and --metrics-json dumps the engine's execution metrics as JSON to a
/// file ('-' = stdout).
///
/// Node ids on the command line and in output always refer to the graph's
/// original ids, even when the file stores (or --reorder applies) a
/// cache-locality relabeling; translation happens inside the instance
/// facade (core/kpj_instance.h).
int RunCli(std::span<const std::string> args, std::ostream& out,
           std::ostream& err);

}  // namespace kpj::cli

#endif  // KPJ_CLI_CLI_H_
