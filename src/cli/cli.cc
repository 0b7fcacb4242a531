#include "cli/cli.h"

#include <algorithm>
#include <fstream>

#include "core/engine.h"
#include "core/kpj.h"
#include "core/kpj_instance.h"
#include "gen/poi_gen.h"
#include "gen/road_gen.h"
#include "graph/connectivity.h"
#include "graph/dimacs_io.h"
#include "graph/serialize.h"
#include "index/landmark_index.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace kpj::cli {
namespace {

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

/// Loads a graph by extension: .gr = DIMACS text, anything else = binary.
/// Binary files may carry a stored permutation (reordered layout); DIMACS
/// text never does.
Result<GraphFile> LoadGraph(const std::string& path) {
  return LoadGraphAuto(path);
}

Status SaveGraph(const Graph& graph, const Permutation& permutation,
                 const std::string& path) {
  if (EndsWith(path, ".gr")) {
    if (!permutation.empty() && !permutation.IsIdentity()) {
      return Status::InvalidArgument(
          "DIMACS text cannot store a reordering permutation; write a "
          "binary file instead");
    }
    return WriteDimacsGraph(graph, path);
  }
  return SaveGraphBinary(graph, permutation, path);
}

/// Reads the --reorder flag (default kNone).
Result<ReorderStrategy> GetReorderFlag(const ParsedArgs& args) {
  auto name = args.Get("reorder");
  if (!name.has_value()) return ReorderStrategy::kNone;
  return ParseReorderStrategy(*name);
}

/// Dumps the engine's execution metrics after the queries ran. The output
/// path comes from --metrics-out FILE ('-' = stdout), with --metrics-json
/// kept as a legacy alias; --metrics-format picks json (default) or prom
/// (Prometheus text exposition).
Status MaybeDumpMetrics(const ParsedArgs& args, const KpjEngine& engine,
                        std::ostream& out) {
  std::string format = args.Get("metrics-format").value_or("json");
  if (format != "json" && format != "prom") {
    return Status::InvalidArgument(
        "--metrics-format must be 'json' or 'prom'");
  }
  auto path = args.Get("metrics-out");
  if (!path.has_value()) path = args.Get("metrics-json");
  if (!path.has_value()) return Status::Ok();
  std::string payload =
      format == "prom" ? engine.MetricsPrometheus() : engine.MetricsJson();
  if (*path == "-" || path->empty()) {
    out << payload << "\n";
    return Status::Ok();
  }
  std::ofstream file(*path);
  if (!file) return Status::IoError("cannot open " + *path);
  file << payload << "\n";
  return Status::Ok();
}

/// Turns the global trace recorder on when --trace-out is present. Call
/// before the traced work; pair with FinishTrace after it.
void MaybeStartTrace(const ParsedArgs& args) {
  if (!args.Get("trace-out").has_value()) return;
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable();
}

/// Stops recording and writes the Chrome trace JSON named by --trace-out.
Status MaybeFinishTrace(const ParsedArgs& args) {
  auto path = args.Get("trace-out");
  if (!path.has_value()) return Status::Ok();
  TraceRecorder::Global().Disable();
  if (*path == "-" || path->empty()) {
    return Status::InvalidArgument("--trace-out needs a file path");
  }
  return TraceRecorder::Global().WriteJson(*path);
}

void PrintHelp(std::ostream& out) {
  out << "kpj_cli — top-k shortest path join queries\n"
         "\n"
         "  kpj_cli generate  --nodes N [--seed S] --out FILE"
         " [--coords FILE] [--reorder STRAT]\n"
         "  kpj_cli convert   --in FILE --out FILE [--reorder STRAT]\n"
         "                    [--format bin|v4] [--landmarks FILE]"
         " [--categories FILE]\n"
         "  kpj_cli info      --graph FILE\n"
         "  kpj_cli landmarks --graph FILE --out FILE [--count 16]"
         " [--seed S] [--threads N]\n"
         "  kpj_cli pois      --graph FILE --out FILE [--seed S] [--cal]\n"
         "  kpj_cli query     --graph FILE --source S\n"
         "                    (--targets A,B,C | --categories FILE"
         " --category NAME)\n"
         "                    [--k 10] [--algorithm NAME|auto]"
         " [--landmarks FILE] [--alpha 1.1]\n"
         "                    [--mmap [--trusted]] [--reorder STRAT]"
         " [--stats] [--threads N]\n"
         "                    [--intra-threads N]\n"
         "                    [--deadline-ms MS] [--slow-query-ms MS]\n"
         "                    [--cache-mb MB | --no-cache]\n"
         "                    [--metrics-out FILE|-]"
         " [--metrics-format json|prom]\n"
         "                    [--trace-out FILE]\n"
         "  kpj_cli batch     --graph FILE --queries FILE"
         " [--algorithm NAME|auto] [--landmarks FILE]\n"
         "                    [--mmap [--trusted]] [--threads N]"
         " [--intra-threads N]\n"
         "                    [--reorder STRAT]\n"
         "                    [--deadline-ms MS] [--slow-query-ms MS]\n"
         "                    [--cache-mb MB | --no-cache]\n"
         "                    [--metrics-out FILE|-]"
         " [--metrics-format json|prom]\n"
         "                    [--trace-out FILE]\n"
         "\n"
         "Graph files: .gr = DIMACS text, otherwise compact binary.\n"
         "Queries run on the concurrent engine: --threads sets the worker\n"
         "pool, --deadline-ms bounds each query (partial results are\n"
         "flagged, not errors). --intra-threads fans each query's\n"
         "deviation searches across the pool (1 = sequential, 0 = auto-\n"
         "split workers between in-flight queries); answers are\n"
         "byte-identical at any setting.\n"
         "Observability: --metrics-out dumps execution metrics as JSON\n"
         "(default) or Prometheus text (--metrics-format=prom);\n"
         "--metrics-json FILE is a legacy alias for --metrics-out with the\n"
         "json format. --trace-out writes a Chrome trace_event JSON file\n"
         "(load in chrome://tracing or Perfetto). --slow-query-ms logs\n"
         "queries at/over the threshold to stderr with their query id.\n"
         "Cross-query reuse: the engine keeps one cache of search trees,\n"
         "answers and set bounds sized by --cache-mb (default 64 MiB);\n"
         "--no-cache turns it off. Answers are byte-identical either\n"
         "way — caching only changes latency.\n"
         "Lower bounds: 'landmarks' precomputes the landmark (ALT) tables\n"
         "the solvers bound their searches with (--landmarks, or embedded\n"
         "in a v4 file); without them every bound is 0.\n"
         "Binary graphs may store a cache-locality reordering; node ids on\n"
         "the command line and in output always refer to original ids.\n"
         "Reorder strategies: none (default), bfs, degree, hybrid.\n"
         "Zero-copy storage: 'convert --format v4' writes the page-aligned\n"
         "mappable format (optionally embedding --landmarks/--categories\n"
         "index files); query/batch --mmap then serve straight out of the\n"
         "page cache with no load-time array copies, and concurrent\n"
         "processes share the mapped pages. --mmap\n"
         "verifies every section checksum at open; --trusted skips that for\n"
         "files you generated yourself, making the open O(1).\n"
         "Algorithms: DA, DA-SPT, BestFirst, IterBound, IterBoundP,\n"
         "            IterBoundI (default), IterBoundI-NL\n";
}

int Fail(std::ostream& err, const Status& status) {
  err << "error: " << status.ToString() << "\n";
  return 1;
}

int CmdGenerate(const ParsedArgs& args, std::ostream& out,
                std::ostream& err) {
  Result<std::string> out_path = args.Require("out");
  if (!out_path.ok()) return Fail(err, out_path.status());
  Result<int64_t> nodes = args.GetInt("nodes", 10000);
  Result<int64_t> seed = args.GetInt("seed", 1);
  if (!nodes.ok()) return Fail(err, nodes.status());
  if (!seed.ok()) return Fail(err, seed.status());
  if (nodes.value() < 4) {
    return Fail(err, Status::InvalidArgument("--nodes must be >= 4"));
  }

  Result<ReorderStrategy> reorder = GetReorderFlag(args);
  if (!reorder.ok()) return Fail(err, reorder.status());

  RoadGenOptions opt;
  opt.target_nodes = static_cast<uint32_t>(nodes.value());
  opt.seed = static_cast<uint64_t>(seed.value());
  RoadNetwork net = GenerateRoadNetwork(opt);
  // With --reorder, the file stores the cache-optimized layout plus the
  // permutation, so queries keep addressing the generated ids.
  Permutation perm;
  Graph graph = std::move(net.graph);
  if (reorder.value() != ReorderStrategy::kNone) {
    perm = ComputeReordering(graph, reorder.value());
    graph = ApplyPermutation(graph, perm);
  }
  Status saved = SaveGraph(graph, perm, out_path.value());
  if (!saved.ok()) return Fail(err, saved);
  if (auto coords = args.Get("coords"); coords.has_value()) {
    Status cs = WriteDimacsCoordinates(net.coords, *coords);
    if (!cs.ok()) return Fail(err, cs);
  }
  out << "generated " << graph.NumNodes() << " nodes, " << graph.NumEdges()
      << " arcs -> " << out_path.value();
  if (reorder.value() != ReorderStrategy::kNone) {
    out << " (reordered: " << ReorderStrategyName(reorder.value()) << ")";
  }
  out << "\n";
  return 0;
}

int CmdConvert(const ParsedArgs& args, std::ostream& out,
               std::ostream& err) {
  Result<std::string> in_path = args.Require("in");
  Result<std::string> out_path = args.Require("out");
  if (!in_path.ok()) return Fail(err, in_path.status());
  if (!out_path.ok()) return Fail(err, out_path.status());
  Result<ReorderStrategy> reorder = GetReorderFlag(args);
  if (!reorder.ok()) return Fail(err, reorder.status());
  std::string format = args.Get("format").value_or("bin");
  if (format != "bin" && format != "v4") {
    return Fail(err,
                Status::InvalidArgument("--format must be 'bin' or 'v4'"));
  }
  Result<GraphFile> file = LoadGraph(in_path.value());
  if (!file.ok()) return Fail(err, file.status());
  Graph& graph = file.value().graph;
  Permutation& perm = file.value().permutation;

  // Indexes to embed (v4 only): anything the input file already carries,
  // overridable / extendable with --landmarks and --categories files.
  std::optional<LandmarkIndex> landmarks = std::move(file.value().landmarks);
  std::optional<CategoryIndex> categories =
      std::move(file.value().categories);
  if (auto lm = args.Get("landmarks"); lm.has_value()) {
    if (format != "v4") {
      return Fail(err, Status::InvalidArgument(
                           "embedding --landmarks needs --format v4"));
    }
    Result<LandmarkIndex> index = LandmarkIndex::Load(*lm);
    if (!index.ok()) return Fail(err, index.status());
    landmarks = std::move(index).value();
  }
  if (auto ct = args.Get("categories"); ct.has_value()) {
    if (format != "v4") {
      return Fail(err, Status::InvalidArgument(
                           "embedding --categories needs --format v4"));
    }
    Result<CategoryIndex> index = CategoryIndex::Load(*ct);
    if (!index.ok()) return Fail(err, index.status());
    categories = std::move(index).value();
  }

  if (reorder.value() != ReorderStrategy::kNone) {
    // Compose on top of any permutation already stored in the input so the
    // output stays addressable by the input's original ids. Stored-layout
    // landmarks follow the relabeling; categories hold original ids and are
    // unaffected.
    Permutation extra = ComputeReordering(graph, reorder.value());
    graph = ApplyPermutation(graph, extra);
    if (landmarks.has_value()) landmarks = landmarks->Remap(extra);
    perm = perm.empty() ? std::move(extra)
                        : perm.ComposeWith(extra);
  }
  Status saved = Status::Ok();
  if (format == "v4") {
    if (EndsWith(out_path.value(), ".gr")) {
      return Fail(err, Status::InvalidArgument(
                           "--format v4 needs a binary output path"));
    }
    GraphFileSections sections;
    sections.graph = &graph;
    sections.permutation = &perm;
    if (landmarks.has_value()) sections.landmarks = &*landmarks;
    if (categories.has_value()) sections.categories = &*categories;
    saved = SaveGraphFileV4(sections, out_path.value());
  } else {
    saved = SaveGraph(graph, perm, out_path.value());
  }
  if (!saved.ok()) return Fail(err, saved);
  out << "converted " << in_path.value() << " -> " << out_path.value()
      << " (" << graph.NumNodes() << " nodes";
  if (format == "v4") {
    out << ", format: v4 (mappable)";
    if (landmarks.has_value()) out << " +landmarks";
    if (categories.has_value()) out << " +categories";
  }
  if (reorder.value() != ReorderStrategy::kNone) {
    out << ", reordered: " << ReorderStrategyName(reorder.value());
  }
  out << ")\n";
  return 0;
}

int CmdInfo(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  Result<std::string> path = args.Require("graph");
  if (!path.ok()) return Fail(err, path.status());
  Result<GraphFile> file = LoadGraph(path.value());
  if (!file.ok()) return Fail(err, file.status());
  const Graph& g = file.value().graph;

  uint32_t max_degree = 0;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    max_degree = std::max(max_degree, g.OutDegree(u));
  }
  ComponentLabeling scc = StronglyConnectedComponents(g);
  out << "nodes:        " << FormatWithCommas(g.NumNodes()) << "\n"
      << "arcs:         " << FormatWithCommas(g.NumEdges()) << "\n"
      << "avg degree:   "
      << (g.NumNodes() ? static_cast<double>(g.NumEdges()) / g.NumNodes()
                       : 0.0)
      << "\n"
      << "max degree:   " << max_degree << "\n"
      << "SCCs:         " << FormatWithCommas(scc.num_components) << "\n"
      << "total weight: " << FormatWithCommas(g.TotalWeight()) << "\n"
      << "reordered:    "
      << (file.value().permutation.empty() ? "no"
                                           : "yes (original ids preserved)")
      << "\n";
  return 0;
}

int CmdLandmarks(const ParsedArgs& args, std::ostream& out,
                 std::ostream& err) {
  Result<std::string> path = args.Require("graph");
  Result<std::string> out_path = args.Require("out");
  if (!path.ok()) return Fail(err, path.status());
  if (!out_path.ok()) return Fail(err, out_path.status());
  Result<int64_t> count = args.GetInt("count", 16);
  Result<int64_t> seed = args.GetInt("seed", 42);
  Result<unsigned> threads = api::ParseThreadsFlag(args);
  if (!count.ok()) return Fail(err, count.status());
  if (!seed.ok()) return Fail(err, seed.status());
  if (!threads.ok()) return Fail(err, threads.status());

  // The index is built in (and aligned with) the file's stored layout, so
  // it plugs into query/batch runs over the same graph file directly.
  Result<GraphFile> file = LoadGraph(path.value());
  if (!file.ok()) return Fail(err, file.status());
  const Graph& graph = file.value().graph;
  Timer timer;
  LandmarkIndexOptions opt;
  opt.num_landmarks = static_cast<uint32_t>(count.value());
  opt.seed = static_cast<uint64_t>(seed.value());
  opt.threads = threads.value();
  LandmarkIndex index = LandmarkIndex::Build(graph, graph.Reverse(), opt);
  Status saved = index.Save(out_path.value());
  if (!saved.ok()) return Fail(err, saved);
  out << "built " << index.num_landmarks() << " landmarks in "
      << timer.ElapsedSeconds() << " s -> " << out_path.value() << "\n";
  return 0;
}

int CmdPois(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  Result<std::string> path = args.Require("graph");
  Result<std::string> out_path = args.Require("out");
  if (!path.ok()) return Fail(err, path.status());
  if (!out_path.ok()) return Fail(err, out_path.status());
  Result<int64_t> seed = args.GetInt("seed", 7);
  if (!seed.ok()) return Fail(err, seed.status());
  Result<GraphFile> file = LoadGraph(path.value());
  if (!file.ok()) return Fail(err, file.status());
  const Graph& graph = file.value().graph;

  // POI assignment samples bare node ids (no graph structure), so the ids
  // it stores are read as *original* ids at query time regardless of any
  // reordering stored in the graph file.
  CategoryIndex index(graph.NumNodes());
  AssignNestedPoiSets(index, static_cast<uint64_t>(seed.value()));
  if (args.Has("cal")) {
    if (graph.NumNodes() < 94) {
      return Fail(err, Status::InvalidArgument(
                           "--cal needs a graph with >= 94 nodes"));
    }
    AssignCaliforniaLikePois(index, static_cast<uint64_t>(seed.value()) + 1);
  }
  Status saved = index.Save(out_path.value());
  if (!saved.ok()) return Fail(err, saved);
  out << "assigned " << index.NumCategories() << " categories -> "
      << out_path.value() << "\n";
  for (CategoryId c = 0; c < index.NumCategories(); ++c) {
    if (index.Name(c).rfind("Filler", 0) == 0) continue;
    out << "  " << index.Name(c) << ": " << index.Size(c) << " nodes\n";
  }
  return 0;
}

struct QuerySetup {
  /// The unified handle serving the command: graph in its internal
  /// (possibly reordered) layout, the permutation back to user-visible
  /// ids, and any attached indexes. Node-id translation happens inside the
  /// instance-based facade / engine.
  KpjInstance instance;
  /// The shared engine vocabulary (api/options_parse.h), parsed once;
  /// kpjd reads the same flags through the same code path.
  api::EngineConfig config;

  explicit QuerySetup(KpjInstance inst) : instance(std::move(inst)) {}
};

/// The --mmap setup path: zero-copy map of a v4 file. The instance serves
/// straight out of the page cache — no CSR copy, no Reverse() compute.
Result<QuerySetup> LoadMappedQuerySetup(const ParsedArgs& args,
                                        const std::string& path,
                                        const api::EngineConfig& config) {
  if (args.Get("reorder").has_value()) {
    return Status::InvalidArgument(
        "--mmap serves the file's stored layout; bake a reordering in with "
        "'kpj_cli convert --format v4 --reorder STRAT' instead");
  }
  Result<uint32_t> version = PeekGraphFileVersion(path);
  if (!version.ok()) return version.status();
  if (version.value() != 4) {
    return Status::InvalidArgument(
        path + " is a v" + std::to_string(version.value()) +
        " file; --mmap needs v4 (make one with 'kpj_cli convert --format "
        "v4')");
  }
  MappedLoadOptions options;
  options.verify_checksums = !args.Has("trusted");
  Result<KpjInstance> instance = KpjInstance::LoadMapped(path, options);
  if (!instance.ok()) return instance.status();
  QuerySetup setup(std::move(instance).value());
  setup.config = config;
  if (auto lm = args.Get("landmarks"); lm.has_value()) {
    Result<LandmarkIndex> index = LandmarkIndex::Load(*lm);
    if (!index.ok()) return index.status();
    Status attached =
        setup.instance.AttachLandmarks(std::move(index).value());
    if (!attached.ok()) return attached;
  }
  return setup;
}

Result<QuerySetup> LoadQuerySetup(const ParsedArgs& args) {
  Result<std::string> path = args.Require("graph");
  if (!path.ok()) return path.status();
  Result<api::EngineConfig> config = api::ParseEngineConfig(args);
  if (!config.ok()) return config.status();
  if (args.Has("mmap")) {
    return LoadMappedQuerySetup(args, path.value(), config.value());
  }
  Result<GraphFile> file = LoadGraph(path.value());
  if (!file.ok()) return file.status();
  Result<ReorderStrategy> reorder = GetReorderFlag(args);
  if (!reorder.ok()) return reorder.status();

  LandmarkIndex landmarks;  // Empty unless --landmarks / embedded in v4.
  if (auto lm = args.Get("landmarks"); lm.has_value()) {
    Result<LandmarkIndex> index = LandmarkIndex::Load(*lm);
    if (!index.ok()) return index.status();
    if (index.value().num_nodes() != file.value().graph.NumNodes()) {
      return Status::InvalidArgument(
          "landmark index was built for a different graph");
    }
    landmarks = std::move(index).value();
  } else if (file.value().landmarks.has_value()) {
    landmarks = std::move(*file.value().landmarks);
  }

  // --reorder relabels in memory on top of whatever layout the file stores.
  // The landmark file is aligned with the file's layout, so it is remapped
  // by the same extra permutation to stay consistent.
  if (reorder.value() != ReorderStrategy::kNone) {
    Permutation extra =
        ComputeReordering(file.value().graph, reorder.value());
    file.value().graph = ApplyPermutation(file.value().graph, extra);
    if (landmarks.num_landmarks() > 0) {
      landmarks = landmarks.Remap(extra);
    }
    file.value().permutation =
        file.value().permutation.empty()
            ? extra
            : file.value().permutation.ComposeWith(extra);
  }
  Result<KpjInstance> instance = KpjInstance::Wrap(
      std::move(file.value().graph), std::move(file.value().permutation));
  if (!instance.ok()) return instance.status();
  QuerySetup setup(std::move(instance).value());
  setup.config = config.value();
  if (landmarks.num_landmarks() > 0) {
    Status attached = setup.instance.AttachLandmarks(std::move(landmarks));
    if (!attached.ok()) return attached;
  }
  if (file.value().categories.has_value()) {
    Status attached = setup.instance.AttachCategories(
        std::move(*file.value().categories));
    if (!attached.ok()) return attached;
  }
  return setup;
}

int CmdQuery(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  Result<QuerySetup> setup = LoadQuerySetup(args);
  if (!setup.ok()) return Fail(err, setup.status());
  QuerySetup& s = setup.value();

  Result<std::string> source_text = args.Require("source");
  if (!source_text.ok()) return Fail(err, source_text.status());
  Result<std::vector<NodeId>> sources = ParseNodeList(source_text.value());
  if (!sources.ok()) return Fail(err, sources.status());

  // Targets come either from an explicit list or from a named category.
  std::vector<NodeId> target_nodes;
  if (auto cat_name = args.Get("category"); cat_name.has_value()) {
    if (auto cats_path = args.Get("categories"); cats_path.has_value()) {
      Result<CategoryIndex> index = CategoryIndex::Load(*cats_path);
      if (!index.ok()) return Fail(err, index.status());
      // AttachCategories rejects an index built for a different graph.
      Status attached =
          s.instance.AttachCategories(std::move(index).value());
      if (!attached.ok()) return Fail(err, attached);
    } else if (s.instance.categories() == nullptr) {
      // v4 graph files can embed the category index; otherwise it must be
      // supplied explicitly.
      return Fail(err, Status::InvalidArgument(
                           "--category needs --categories FILE (or a v4 "
                           "graph file with embedded categories)"));
    }
    const CategoryIndex& cats = *s.instance.categories();
    std::optional<CategoryId> cat = cats.Find(*cat_name);
    if (!cat.has_value()) {
      return Fail(err,
                  Status::NotFound("category '" + *cat_name + "'"));
    }
    auto cat_nodes = cats.Nodes(*cat);
    target_nodes.assign(cat_nodes.begin(), cat_nodes.end());
    if (target_nodes.empty()) {
      return Fail(err, Status::InvalidArgument("category is empty"));
    }
  } else {
    Result<std::string> targets_text = args.Require("targets");
    if (!targets_text.ok()) return Fail(err, targets_text.status());
    Result<std::vector<NodeId>> targets =
        ParseNodeList(targets_text.value());
    if (!targets.ok()) return Fail(err, targets.status());
    target_nodes = std::move(targets).value();
  }
  Result<int64_t> k = args.GetInt("k", 10);
  if (!k.ok() || k.value() <= 0) {
    return Fail(err, Status::InvalidArgument("--k must be positive"));
  }

  KpjQuery query;
  query.sources = std::move(sources).value();
  query.targets = std::move(target_nodes);
  query.k = static_cast<uint32_t>(k.value());

  KpjEngine engine(s.instance, s.config.ToEngineOptions());

  MaybeStartTrace(args);
  Timer timer;
  Result<KpjResult> result = engine.Submit(std::move(query)).get();
  double ms = timer.ElapsedMillis();
  Status traced = MaybeFinishTrace(args);
  if (!result.ok()) return Fail(err, result.status());
  if (!traced.ok()) return Fail(err, traced);

  for (const Path& p : result.value().paths) {
    out << PathToString(p) << "\n";
  }
  // Report the algorithm that actually ran: under --algorithm=auto that is
  // the planner's pick, not the configured sentinel.
  out << "# " << result.value().paths.size() << " paths in " << ms
      << " ms using " << AlgorithmName(result.value().algorithm_used);
  if (s.config.algorithm == Algorithm::kAuto &&
      result.value().planner_reason[0] != '\0') {
    out << " (auto: " << result.value().planner_reason << ")";
  }
  out << "\n";
  if (!result.value().status.ok()) {
    // Deadline/cancellation: the paths above are a valid prefix of the
    // answer, flagged rather than treated as a hard failure.
    out << "# partial result: " << result.value().status.ToString() << "\n";
  }
  if (args.Has("stats")) {
    const QueryStats& st = result.value().stats;
    const AlgoStats& a = st.algo;
    out << "# shortest-path computations: "
        << st.shortest_path_computations << "\n"
        << "# bound tests:                " << st.lower_bound_tests << "\n"
        << "# nodes settled:              " << st.nodes_settled << "\n"
        << "# SPT nodes:                  " << st.spt_nodes << "\n"
        << "# heap pushes:                " << a.heap_pushes << "\n"
        << "# heap decrease-keys:         " << a.heap_decrease_keys << "\n"
        << "# node expansions:            " << a.node_expansions << "\n"
        << "# SPT resume hits/misses:     " << a.spt_resume_hits << "/"
        << a.spt_resume_misses << "\n"
        << "# iter-bound rounds:          " << a.iter_bound_rounds << "\n"
        << "# candidates gen/pruned:      " << a.candidates_generated << "/"
        << a.candidates_pruned << "\n"
        << "# lower-bound tightness:      " << a.LowerBoundTightness()
        << "\n";
  }
  Status dumped = MaybeDumpMetrics(args, engine, out);
  if (!dumped.ok()) return Fail(err, dumped);
  return 0;
}

int CmdBatch(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  Result<QuerySetup> setup = LoadQuerySetup(args);
  if (!setup.ok()) return Fail(err, setup.status());
  QuerySetup& s = setup.value();

  Result<std::string> queries_path = args.Require("queries");
  if (!queries_path.ok()) return Fail(err, queries_path.status());
  std::ifstream in(queries_path.value());
  if (!in) {
    return Fail(err,
                Status::IoError("cannot open " + queries_path.value()));
  }

  // Parse all queries up front so they can be executed in parallel.
  struct BatchQuery {
    size_t line_no;
    KpjQuery query;
  };
  std::vector<BatchQuery> queries;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    auto fields = SplitWhitespace(trimmed);
    if (fields.size() < 3) {
      return Fail(err, Status::InvalidArgument(
                           "query line " + std::to_string(line_no) +
                           ": want 'source k target...'"));
    }
    BatchQuery bq;
    bq.line_no = line_no;
    auto src = ParseInt(fields[0]);
    auto kval = ParseInt(fields[1]);
    if (!src || !kval || *src < 0 || *kval <= 0) {
      return Fail(err, Status::InvalidArgument(
                           "query line " + std::to_string(line_no) +
                           ": bad source/k"));
    }
    bq.query.sources = {static_cast<NodeId>(*src)};
    bq.query.k = static_cast<uint32_t>(*kval);
    for (size_t i = 2; i < fields.size(); ++i) {
      auto t = ParseInt(fields[i]);
      if (!t || *t < 0) {
        return Fail(err, Status::InvalidArgument(
                             "query line " + std::to_string(line_no) +
                             ": bad target"));
      }
      bq.query.targets.push_back(static_cast<NodeId>(*t));
    }
    queries.push_back(std::move(bq));
  }

  // Execute on the engine: the pool runs one warm solver per worker over
  // the shared read-only instance. Results come back in input order.
  std::vector<KpjQuery> engine_queries;
  engine_queries.reserve(queries.size());
  for (const BatchQuery& bq : queries) engine_queries.push_back(bq.query);

  KpjEngine engine(s.instance, s.config.ToEngineOptions());

  MaybeStartTrace(args);
  Timer batch_timer;
  std::vector<Result<KpjResult>> results = engine.RunBatch(engine_queries);
  double total_ms = batch_timer.ElapsedMillis();
  Status traced = MaybeFinishTrace(args);
  if (!traced.ok()) return Fail(err, traced);

  for (size_t i = 0; i < queries.size(); ++i) {
    if (!results[i].ok()) return Fail(err, results[i].status());
    out << "query " << queries[i].line_no << ":";
    for (const Path& p : results[i].value().paths) out << " " << p.length;
    if (!results[i].value().status.ok()) {
      out << " # partial: " << results[i].value().status.ToString();
    }
    out << "\n";
  }
  out << "# " << queries.size() << " queries, " << total_ms
      << " ms wall (" << (queries.empty() ? 0.0 : total_ms / queries.size())
      << " ms/query, " << AlgorithmName(s.config.algorithm) << ", "
      << engine.num_workers() << " workers)\n";
  Status dumped = MaybeDumpMetrics(args, engine, out);
  if (!dumped.ok()) return Fail(err, dumped);
  return 0;
}

}  // namespace

int RunCli(std::span<const std::string> args, std::ostream& out,
           std::ostream& err) {
  Result<ParsedArgs> parsed = ParseArgs(args);
  if (!parsed.ok()) {
    err << "error: " << parsed.status().ToString() << "\n";
    PrintHelp(err);
    return 2;
  }
  const ParsedArgs& a = parsed.value();
  if (a.command == "help" || a.command == "--help") {
    PrintHelp(out);
    return 0;
  }
  if (a.command == "generate") return CmdGenerate(a, out, err);
  if (a.command == "convert") return CmdConvert(a, out, err);
  if (a.command == "info") return CmdInfo(a, out, err);
  if (a.command == "landmarks") return CmdLandmarks(a, out, err);
  if (a.command == "pois") return CmdPois(a, out, err);
  if (a.command == "query") return CmdQuery(a, out, err);
  if (a.command == "batch") return CmdBatch(a, out, err);
  err << "error: unknown command '" << a.command << "'\n";
  PrintHelp(err);
  return 2;
}

}  // namespace kpj::cli
