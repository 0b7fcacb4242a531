// Zero-copy (v4) storage head-to-head on the road_240k dataset: the same
// reordered graph, landmark tables and POI categories are written once as
// heap-format files (a version-2 graph file plus the landmark and category
// index files beside it) and once as a single version-4 section-directory
// file, then loaded back to a query-ready KpjInstance three ways:
//
//   * heap        — LoadGraphAuto on the v2 file: deserialize every array
//                   onto the heap and recompute the reverse CSR, then load
//                   and attach the landmark and category files.
//   * v4 verified — KpjInstance::LoadMapped with checksums: one sequential
//                   pass over the mapping, zero allocation of large arrays.
//   * v4 trusted  — LoadMapped without checksums: O(1) in the graph size;
//                   pages fault in lazily as queries touch them.
//
// Reported per mode: best-of-rounds load wall time and the VmRSS delta
// while the loaded instance is held (v4 residency is file-backed and
// reclaimable; the heap path's is anonymous heap). A swap-style figure
// times what a kpjd hot swap pays — load plus engine construction — for
// the daemon's default (checksum-verified) path and for --trusted-graphs,
// which is the gated one. Finally every algorithm in kAllAlgorithms
// answers the same batch on the heap instance and the mapped instance,
// both bounded by the same landmark tables; the paths must be
// byte-identical (node sequences and lengths), which is the acceptance
// gate for serving straight out of a mapping.
//
// At full scale this binary enforces the v4 acceptance floors: trusted
// cold load >= 10x faster than the heap load, trusted RSS delta below the
// heap load's, and a swap speedup >= 2x.
//
// The files are written immediately before loading, so "cold" means a
// cold process (page cache warm for every contender alike), the same
// footing ServingState::Load sees on a hot swap. KPJ_BENCH_NODES
// overrides the dataset size for quick pilots; the gated baseline is the
// 240k default. Output: a table plus a JSON summary written to
// KPJ_BENCH_JSON, or stdout when unset.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "api/api.h"
#include "core/engine.h"
#include "core/kpj_instance.h"
#include "gen/poi_gen.h"
#include "gen/road_gen.h"
#include "graph/reorder.h"
#include "graph/serialize.h"
#include "index/category_index.h"
#include "index/landmark_index.h"
#include "util/rng.h"
#include "util/timer.h"

namespace kpj::bench {
namespace {

constexpr double kInfMs = 1e300;

/// A /proc/self/status field in kB (VmRSS, VmHWM); 0 when unavailable.
uint64_t ProcStatusKb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      uint64_t kb = 0;
      std::sscanf(line.c_str() + std::strlen(key), ": %lu", &kb);
      return kb;
    }
  }
  return 0;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  std::string base = (dir != nullptr && *dir != '\0') ? dir : "/tmp";
  return base + "/" + name;
}

int Main() {
  const HarnessOptions harness = HarnessFromEnv();
  const size_t num_queries = std::max<size_t>(harness.queries_per_set, 4);
  const uint32_t kTargets = 16;
  const uint32_t kK = 8;
  const int kLoadRounds = 5;
  const int kSwapRounds = 3;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());

  RoadGenOptions road;
  road.seed = 12;
  road.target_nodes = 240000;
  if (const char* env = std::getenv("KPJ_BENCH_NODES");
      env != nullptr && *env != '\0') {
    road.target_nodes = static_cast<uint32_t>(std::atoi(env));
  }
  const bool full_scale = road.target_nodes >= 240000;

  // The same content in both formats. The heap files cannot carry the
  // reverse CSR — that asymmetry is the point: heap loaders recompute
  // Reverse() on every load, v4 maps the stored one. KPJ_BENCH_REUSE
  // skips the build when every file already exists from a previous run,
  // and keeps them afterwards; the operator owns matching KPJ_BENCH_NODES
  // to the stored files.
  const std::string v2_path = TempPath("bench_mmap_v2.bin");
  const std::string lm_path = TempPath("bench_mmap_v2.lm");
  const std::string cat_path = TempPath("bench_mmap_v2.cat");
  const std::string v4_path = TempPath("bench_mmap_v4.bin");
  const std::vector<std::string> files = {v2_path, lm_path, cat_path,
                                          v4_path};
  const char* reuse_env = std::getenv("KPJ_BENCH_REUSE");
  const bool keep_files = reuse_env != nullptr && *reuse_env != '\0';
  const bool reuse =
      keep_files && std::all_of(files.begin(), files.end(),
                                [](const std::string& f) {
                                  return FileBytes(f) > 0;
                                });
  if (reuse) {
    std::fprintf(stderr, "[bench_mmap] reusing %s and %s\n", v2_path.c_str(),
                 v4_path.c_str());
  } else {
    Result<KpjInstance> made = KpjInstance::Make(
        GenerateRoadNetwork(road).graph, ReorderStrategy::kHybrid);
    KPJ_CHECK(made.ok()) << made.status().ToString();
    KpjInstance built = std::move(made).value();
    std::fprintf(stderr, "[bench_mmap] road_%uk: %u nodes, %u arcs\n",
                 road.target_nodes / 1000, built.NumNodes(),
                 built.graph().NumEdges());

    LandmarkIndexOptions lm_opt;
    lm_opt.num_landmarks = 8;
    lm_opt.threads = threads;
    Timer build_timer;
    const LandmarkIndex landmarks =
        LandmarkIndex::Build(built.graph(), built.reverse(), lm_opt);
    std::fprintf(stderr, "[bench_mmap] landmarks: %.1f s build (%u threads)\n",
                 build_timer.ElapsedSeconds(), threads);
    // Categories hold original ids, like `kpj_cli pois --cal` output.
    CategoryIndex categories(built.NumNodes());
    AssignNestedPoiSets(categories, /*seed=*/7);
    AssignCaliforniaLikePois(categories, /*seed=*/8);

    Status saved =
        SaveGraphBinary(built.graph(), built.permutation(), v2_path);
    KPJ_CHECK(saved.ok()) << saved.ToString();
    saved = landmarks.Save(lm_path);
    KPJ_CHECK(saved.ok()) << saved.ToString();
    saved = categories.Save(cat_path);
    KPJ_CHECK(saved.ok()) << saved.ToString();
    GraphFileSections sections;
    sections.graph = &built.graph();
    sections.reverse = &built.reverse();
    sections.permutation = &built.permutation();
    sections.landmarks = &landmarks;
    sections.categories = &categories;
    saved = SaveGraphFileV4(sections, v4_path);
    KPJ_CHECK(saved.ok()) << saved.ToString();
  }
  const uint64_t heap_bytes =
      FileBytes(v2_path) + FileBytes(lm_path) + FileBytes(cat_path);
  const uint64_t v4_bytes = FileBytes(v4_path);

  // --- Loaders producing a query-ready instance -------------------------
  auto load_heap = [&]() -> KpjInstance {
    Result<GraphFile> file = LoadGraphAuto(v2_path);
    KPJ_CHECK(file.ok()) << file.status().ToString();
    Result<KpjInstance> wrapped =
        KpjInstance::Wrap(std::move(file.value().graph),
                          std::move(file.value().permutation));
    KPJ_CHECK(wrapped.ok()) << wrapped.status().ToString();
    KpjInstance instance = std::move(wrapped).value();
    Result<LandmarkIndex> landmarks = LandmarkIndex::Load(lm_path);
    KPJ_CHECK(landmarks.ok()) << landmarks.status().ToString();
    Status attached = instance.AttachLandmarks(std::move(landmarks).value());
    KPJ_CHECK(attached.ok()) << attached.ToString();
    Result<CategoryIndex> categories = CategoryIndex::Load(cat_path);
    KPJ_CHECK(categories.ok()) << categories.status().ToString();
    attached = instance.AttachCategories(std::move(categories).value());
    KPJ_CHECK(attached.ok()) << attached.ToString();
    return instance;
  };
  auto load_v4 = [&](bool verify) -> KpjInstance {
    MappedLoadOptions options;
    options.verify_checksums = verify;
    Result<KpjInstance> mapped = KpjInstance::LoadMapped(v4_path, options);
    KPJ_CHECK(mapped.ok()) << mapped.status().ToString();
    return std::move(mapped).value();
  };

  NodeId num_nodes = 0;
  uint32_t num_arcs = 0;
  {
    KpjInstance peek = load_v4(false);
    num_nodes = peek.NumNodes();
    num_arcs = peek.graph().NumEdges();
  }

  // VmRSS delta while the loaded instance is held, one mode at a time.
  // Freed heap pages stay resident in the allocator's arena, so any
  // earlier allocation (the in-process index build above is huge) would
  // let a later load recycle pages invisibly to VmRSS; malloc_trim
  // returns the freed arena to the OS so each delta sees real growth.
  // The heap load still goes FIRST as belt and braces. What residency the v4
  // verified pass adds is file-backed page cache, reclaimable and
  // shared across processes, not anonymous heap.
  auto rss_delta_kb = [](auto&& loader) {
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
    const uint64_t before = ProcStatusKb("VmRSS");
    auto instance = loader();
    const uint64_t after = ProcStatusKb("VmRSS");
    return after > before ? after - before : 0;
  };
  const uint64_t heap_rss_kb = rss_delta_kb(load_heap);
  const uint64_t v4_trusted_rss_kb =
      rss_delta_kb([&] { return load_v4(false); });
  const uint64_t v4_verified_rss_kb =
      rss_delta_kb([&] { return load_v4(true); });

  // Best-of-rounds load wall time (page cache warm for all contenders).
  auto best_ms = [](int rounds, auto&& loader) {
    double best = kInfMs;
    for (int r = 0; r < rounds; ++r) {
      Timer timer;
      auto instance = loader();
      best = std::min(best, timer.ElapsedMillis());
    }
    return best;
  };
  const double v4_trusted_ms =
      best_ms(kLoadRounds, [&] { return load_v4(false); });
  const double v4_verified_ms =
      best_ms(kLoadRounds, [&] { return load_v4(true); });
  const double heap_ms = best_ms(kSwapRounds, load_heap);

  // Swap-style figure: what ServingState::Load pays on a kpjd hot swap —
  // file to serving engine — for the heap path, the v4 daemon default
  // (checksums verified) and the v4 --trusted-graphs configuration. The
  // gated speedup is the trusted one: a hot swap is an operator pushing a
  // file they just wrote, which is the case --trusted-graphs exists for;
  // the verified figure (a full checksum pass, still allocation-free) is
  // reported alongside.
  auto swap_ms = [&](auto&& loader) {
    double best = kInfMs;
    for (int r = 0; r < kSwapRounds; ++r) {
      Timer timer;
      KpjInstance instance = loader();
      api::EngineConfig config;
      config.workers = 2;
      KpjEngine engine(instance, config.ToEngineOptions());
      best = std::min(best, timer.ElapsedMillis());
    }
    return best;
  };
  const double heap_swap_ms = swap_ms(load_heap);
  const double v4_swap_verified_ms = swap_ms([&] { return load_v4(true); });
  const double v4_swap_trusted_ms = swap_ms([&] { return load_v4(false); });

  // A trusted open is tens of microseconds — pure syscall noise. Clamp
  // the denominator so the gated ratio tracks the stable heap numerator
  // instead of microsecond jitter ("at least 10 * heap_ms" in speedup).
  const double cold_load_speedup = heap_ms / std::max(v4_trusted_ms, 0.1);
  const double verified_load_speedup =
      heap_ms / std::max(v4_verified_ms, 1e-6);
  const double swap_speedup =
      heap_swap_ms / std::max(v4_swap_trusted_ms, 1e-6);

  // --- Byte-identity: every algorithm, heap vs mapped -------------------
  // Both instances bound their searches with the same landmark tables, so
  // tie-breaking (and therefore path identity, not just lengths) must
  // match exactly.
  KpjInstance heap = load_heap();
  KpjInstance mapped = load_v4(false);
  KPJ_CHECK(heap.landmarks() != nullptr && mapped.landmarks() != nullptr);
  KPJ_CHECK(heap.mapped_bytes() == 0);
  KPJ_CHECK(mapped.mapped_bytes() == v4_bytes);

  std::vector<NodeId> targets;
  for (uint64_t t : Rng(71).SampleDistinct(kTargets, num_nodes)) {
    targets.push_back(static_cast<NodeId>(t));
  }
  std::vector<KpjQuery> queries;
  for (uint64_t s : Rng(72).SampleDistinct(num_queries, num_nodes)) {
    KpjQuery query;
    query.sources = {static_cast<NodeId>(s)};
    query.targets = targets;
    query.k = kK;
    queries.push_back(std::move(query));
  }

  struct Row {
    Algorithm algorithm;
    double heap_ms = 0.0;
    double mapped_ms = 0.0;
    bool identical = true;
  };
  std::vector<Row> rows;
  for (Algorithm algorithm : kAllAlgorithms) {
    Row row;
    row.algorithm = algorithm;
    KpjOptions options;
    options.algorithm = algorithm;
    for (const KpjQuery& query : queries) {
      Timer timer;
      Result<KpjResult> want = RunKpj(heap, query, options);
      row.heap_ms += timer.ElapsedMillis();
      timer.Restart();
      Result<KpjResult> got = RunKpj(mapped, query, options);
      row.mapped_ms += timer.ElapsedMillis();
      KPJ_CHECK(want.ok() && got.ok()) << AlgorithmName(algorithm);
      const std::vector<Path>& want_paths = want.value().paths;
      const std::vector<Path>& got_paths = got.value().paths;
      bool same = want_paths.size() == got_paths.size();
      for (size_t i = 0; same && i < want_paths.size(); ++i) {
        same = want_paths[i].nodes == got_paths[i].nodes &&
               want_paths[i].length == got_paths[i].length;
      }
      row.identical = row.identical && same;
    }
    KPJ_CHECK(row.identical)
        << AlgorithmName(algorithm)
        << ": mapped answers diverge from the heap instance";
    rows.push_back(row);
  }

  if (full_scale) {
    KPJ_CHECK(cold_load_speedup >= 10.0)
        << "v4 trusted load only " << cold_load_speedup << "x over heap";
    KPJ_CHECK(v4_trusted_rss_kb < heap_rss_kb)
        << "trusted mapped load RSS " << v4_trusted_rss_kb
        << " kB not below the heap load's " << heap_rss_kb << " kB";
    KPJ_CHECK(swap_speedup >= 2.0)
        << "mapped hot swap only " << swap_speedup << "x over heap";
  }

  Table load_table(
      "heap vs v4 load on road_" + std::to_string(road.target_nodes / 1000) +
          "k (query-ready instance; RSS while held)",
      {"load ms", "rss MB", "swap ms"});
  load_table.AddRow("v2 heap", {heap_ms, heap_rss_kb / 1024.0, heap_swap_ms});
  load_table.AddRow("v4 verified", {v4_verified_ms,
                                    v4_verified_rss_kb / 1024.0,
                                    v4_swap_verified_ms});
  load_table.AddRow("v4 trusted", {v4_trusted_ms,
                                   v4_trusted_rss_kb / 1024.0,
                                   v4_swap_trusted_ms});
  load_table.Print();

  Table query_table("Query wall time, heap vs mapped (" +
                        std::to_string(num_queries) + " queries, k=" +
                        std::to_string(kK) + ")",
                    {"heap ms", "mapped ms", "identical"});
  for (const Row& row : rows) {
    query_table.AddRow(AlgorithmName(row.algorithm),
                       {row.heap_ms, row.mapped_ms,
                        row.identical ? 1.0 : 0.0});
  }
  query_table.Print();

  std::ostringstream json;
  json << "{\"bench\":\"bench_mmap\",\"dataset\":\"road_"
       << road.target_nodes / 1000 << "k\""
       << ",\"nodes\":" << num_nodes << ",\"arcs\":" << num_arcs
       << ",\"heap_file_bytes\":" << heap_bytes
       << ",\"v4_file_bytes\":" << v4_bytes
       << ",\"heap_load_ms\":" << heap_ms
       << ",\"v4_verified_load_ms\":" << v4_verified_ms
       // _us: informational — an O(1) open is syscall noise, not a
       // gateable duration; the gated claim is cold_load_speedup.
       << ",\"v4_trusted_load_us\":" << v4_trusted_ms * 1000.0
       << ",\"cold_load_speedup\":" << cold_load_speedup
       << ",\"verified_load_speedup\":" << verified_load_speedup
       << ",\"heap_load_rss_kb\":" << heap_rss_kb
       << ",\"v4_verified_load_rss_kb\":" << v4_verified_rss_kb
       << ",\"v4_trusted_load_rss_kb\":" << v4_trusted_rss_kb
       << ",\"heap_swap_ms\":" << heap_swap_ms
       << ",\"v4_swap_verified_ms\":" << v4_swap_verified_ms
       << ",\"v4_swap_trusted_ms\":" << v4_swap_trusted_ms
       << ",\"swap_speedup\":" << swap_speedup << ",\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i) json << ",";
    json << "{\"algorithm\":\"" << AlgorithmName(rows[i].algorithm)
         << "\",\"identical\":" << (rows[i].identical ? "true" : "false")
         << "}";
  }
  json << "]}";

  if (const char* path = std::getenv("KPJ_BENCH_JSON");
      path != nullptr && *path != '\0') {
    std::ofstream out(path, std::ios::trunc);
    out << json.str() << "\n";
    std::fprintf(stderr, "[bench_mmap] JSON -> %s\n", path);
  } else {
    std::cout << json.str() << "\n";
  }
  if (!keep_files) {
    for (const std::string& f : files) std::remove(f.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace kpj::bench

int main() { return kpj::bench::Main(); }
