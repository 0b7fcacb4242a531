// Zero-copy (v4) graph format tests: page-aligned layout, owned and
// mapped round trips, byte-identical answers under --mmap, and
// corruption detection per section.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/api.h"
#include "core/engine.h"
#include "core/kpj_instance.h"
#include "core/kpj_query.h"
#include "gen/road_gen.h"
#include "graph/reorder.h"
#include "graph/serialize.h"
#include "index/category_index.h"
#include "index/landmark_index.h"
#include "util/mmap_file.h"

namespace kpj {
namespace {

/// Everything a v4 file can carry, built once and shared by all tests.
struct Corpus {
  Graph graph;         // relabeled (stored) layout
  Graph reverse;
  Permutation permutation;
  LandmarkIndex landmarks;
  CategoryIndex categories{0};

  static const Corpus& Get() {
    static Corpus* corpus = [] {
      auto* c = new Corpus();
      RoadGenOptions road;
      road.target_nodes = 1200;
      road.seed = 17;
      Graph original = GenerateRoadNetwork(road).graph;
      c->permutation = ComputeReordering(original, ReorderStrategy::kDegree);
      c->graph = ApplyPermutation(original, c->permutation);
      c->reverse = c->graph.Reverse();
      LandmarkIndexOptions lm;
      lm.num_landmarks = 4;
      c->landmarks = LandmarkIndex::Build(c->graph, c->reverse, lm);
      c->categories = CategoryIndex(c->graph.NumNodes());
      CategoryId hotels = c->categories.AddCategory("Hotel");
      CategoryId lakes = c->categories.AddCategory("Lake");
      for (NodeId v = 3; v < c->graph.NumNodes(); v += 97) {
        c->categories.Assign(v, hotels);
      }
      for (NodeId v = 11; v < c->graph.NumNodes(); v += 131) {
        c->categories.Assign(v, lakes);
      }
      return c;
    }();
    return *corpus;
  }

  GraphFileSections Sections() const {
    GraphFileSections s;
    s.graph = &graph;
    s.reverse = &reverse;
    s.permutation = &permutation;
    s.landmarks = &landmarks;
    s.categories = &categories;
    return s;
  }
};

class MmapGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("kpj_mmap_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string PathFor(const std::string& name) {
    return (dir_ / name).string();
  }

  /// Writes the full corpus as a v4 file and returns its path.
  std::string WriteV4(const std::string& name = "full.v4") {
    std::string path = PathFor(name);
    Status saved = SaveGraphFileV4(Corpus::Get().Sections(), path);
    EXPECT_TRUE(saved.ok()) << saved.ToString();
    return path;
  }

  static void FlipByte(const std::string& path, uint64_t offset) {
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file) << path;
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte ^= 0x5a;
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
  }

  std::filesystem::path dir_;
};

TEST_F(MmapGraphTest, SectionsArePageAlignedAndUnique) {
  std::string path = WriteV4();
  Result<MappedGraphBundle> bundle = MapGraphFile(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  const MappedGraphFile& file = *bundle.value().file;
  EXPECT_EQ(file.header().file_bytes, std::filesystem::file_size(path));
  EXPECT_EQ(file.header().file_bytes % kSectionAlignment, 0u);
  std::vector<uint32_t> kinds;
  for (const SectionEntry& entry : file.directory()) {
    EXPECT_EQ(entry.offset % kSectionAlignment, 0u)
        << GraphSectionKindName(entry.kind);
    EXPECT_EQ(entry.bytes, entry.count * entry.elem_size)
        << GraphSectionKindName(entry.kind);
    EXPECT_FALSE(GraphSectionKindName(entry.kind).empty()) << entry.kind;
    kinds.push_back(entry.kind);
  }
  std::sort(kinds.begin(), kinds.end());
  EXPECT_EQ(std::unique(kinds.begin(), kinds.end()), kinds.end());
}

TEST_F(MmapGraphTest, MappedBundleBorrowsEverySection) {
  const Corpus& corpus = Corpus::Get();
  std::string path = WriteV4();
  Result<MappedGraphBundle> mapped = MapGraphFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  MappedGraphBundle& bundle = mapped.value();
  EXPECT_TRUE(bundle.file->checksums_verified());
  EXPECT_TRUE(bundle.graph.borrowed());
  EXPECT_TRUE(bundle.graph.Equals(corpus.graph));
  // The reverse CSR comes straight from its section — never recomputed.
  EXPECT_TRUE(bundle.reverse.borrowed());
  EXPECT_TRUE(bundle.reverse.Equals(corpus.reverse));
  ASSERT_EQ(bundle.permutation.size(), corpus.permutation.size());
  for (NodeId v = 0; v < corpus.graph.NumNodes(); v += 7) {
    EXPECT_EQ(bundle.permutation.ToNew(v), corpus.permutation.ToNew(v));
  }
  ASSERT_TRUE(bundle.landmarks.has_value());
  EXPECT_EQ(bundle.landmarks->num_landmarks(),
            corpus.landmarks.num_landmarks());
  for (NodeId v = 1; v < corpus.graph.NumNodes(); v += 101) {
    EXPECT_EQ(bundle.landmarks->LowerBound(0, v),
              corpus.landmarks.LowerBound(0, v));
  }
  ASSERT_TRUE(bundle.categories.has_value());
  EXPECT_TRUE(bundle.categories->Equals(corpus.categories));
}

TEST_F(MmapGraphTest, OwnedLoadReadsV4Transparently) {
  const Corpus& corpus = Corpus::Get();
  std::string path = WriteV4();
  // LoadGraphFile deep-copies v4 files so every existing caller works.
  Result<GraphFile> file = LoadGraphFile(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_FALSE(file.value().graph.borrowed());
  EXPECT_TRUE(file.value().graph.Equals(corpus.graph));
  ASSERT_TRUE(file.value().landmarks.has_value());
  ASSERT_TRUE(file.value().categories.has_value());
  EXPECT_TRUE(file.value().categories->Equals(corpus.categories));
}

TEST_F(MmapGraphTest, PeekReportsVersion) {
  const Corpus& corpus = Corpus::Get();
  std::string v4 = WriteV4();
  std::string v2 = PathFor("permuted.v2");
  ASSERT_TRUE(SaveGraphBinary(corpus.graph, corpus.permutation, v2).ok());
  EXPECT_EQ(PeekGraphFileVersion(v4).value(), 4u);
  EXPECT_EQ(PeekGraphFileVersion(v2).value(), 2u);
  EXPECT_FALSE(PeekGraphFileVersion(PathFor("missing.bin")).ok());
}

TEST_F(MmapGraphTest, ReservedSectionKindsAreSkipped) {
  // Kinds 7-11 and 21 held the retired hub-label sections. A v4 file that
  // still carries them opens, in both verified and trusted mode, with
  // those sections ignored.
  const Corpus& corpus = Corpus::Get();
  const Graph& g = corpus.graph;
  std::vector<uint32_t> filler(g.NumNodes(), 7);
  std::vector<uint64_t> checksum = {42};
  constexpr uint64_t kGraphMagic = 0x4b504a4752503031ULL;  // "KPJGRP01"
  SectionFileWriter writer(kGraphMagic, /*version=*/4);
  writer.AddSection<EdgeId>(1, g.offsets());
  writer.AddSection<OutEdge>(2, g.adjacency());
  writer.AddSection<EdgeId>(3, corpus.reverse.offsets());
  writer.AddSection<OutEdge>(4, corpus.reverse.adjacency());
  for (uint32_t kind : {7u, 8u, 9u, 10u, 11u}) {
    writer.AddSection<uint32_t>(kind, filler);
  }
  writer.AddSection<uint64_t>(21, checksum);
  std::string path = PathFor("reserved.v4");
  ASSERT_TRUE(writer.WriteTo(path).ok());

  for (bool verify : {true, false}) {
    MappedLoadOptions options;
    options.verify_checksums = verify;
    Result<MappedGraphBundle> bundle = MapGraphFile(path, options);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    EXPECT_TRUE(bundle.value().graph.Equals(g));
    EXPECT_FALSE(bundle.value().landmarks.has_value());
  }
  Result<GraphFile> owned = LoadGraphFile(path);
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  EXPECT_TRUE(owned.value().graph.Equals(g));
}

TEST_F(MmapGraphTest, TrustedOpenSkipsChecksumPass) {
  std::string path = WriteV4();
  MappedLoadOptions trusted;
  trusted.verify_checksums = false;
  Result<MappedGraphBundle> bundle = MapGraphFile(path, trusted);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_FALSE(bundle.value().file->checksums_verified());
  EXPECT_TRUE(bundle.value().graph.Equals(Corpus::Get().graph));
}

TEST_F(MmapGraphTest, AllAlgorithmsByteIdenticalUnderMmap) {
  const Corpus& corpus = Corpus::Get();
  std::string path = WriteV4();

  // Heap-owned reference instance, assembled the pre-v4 way.
  Result<KpjInstance> heap_result =
      KpjInstance::Wrap(corpus.graph, corpus.permutation);
  ASSERT_TRUE(heap_result.ok());
  KpjInstance heap = std::move(heap_result).value();
  ASSERT_TRUE(heap.AttachLandmarks(corpus.landmarks).ok());

  Result<KpjInstance> mapped_result = KpjInstance::LoadMapped(path);
  ASSERT_TRUE(mapped_result.ok()) << mapped_result.status().ToString();
  KpjInstance mapped = std::move(mapped_result).value();
  EXPECT_GT(mapped.mapped_bytes(), 0u);
  EXPECT_EQ(heap.mapped_bytes(), 0u);

  KpjQuery query;
  query.sources = {5};
  query.targets = {40, 99, 250, 731};
  query.k = 6;
  for (Algorithm algorithm : kAllAlgorithms) {
    KpjOptions options;
    options.algorithm = algorithm;
    Result<KpjResult> want = RunKpj(heap, query, options);
    Result<KpjResult> got = RunKpj(mapped, query, options);
    ASSERT_TRUE(want.ok()) << AlgorithmName(algorithm);
    ASSERT_TRUE(got.ok()) << AlgorithmName(algorithm);
    ASSERT_EQ(want.value().paths.size(), got.value().paths.size())
        << AlgorithmName(algorithm);
    for (size_t i = 0; i < want.value().paths.size(); ++i) {
      EXPECT_EQ(want.value().paths[i].nodes, got.value().paths[i].nodes)
          << AlgorithmName(algorithm) << " path " << i;
      EXPECT_EQ(want.value().paths[i].length, got.value().paths[i].length)
          << AlgorithmName(algorithm) << " path " << i;
    }
  }
}

TEST_F(MmapGraphTest, EngineConfigSweepByteIdenticalUnderMmap) {
  // The acceptance bar: mapped answers equal heap answers at every
  // (workers, intra_threads, cache) engine configuration, for every
  // algorithm, through the same KpjEngine entry point the daemon uses.
  const Corpus& corpus = Corpus::Get();
  std::string path = WriteV4();

  Result<KpjInstance> heap_result =
      KpjInstance::Wrap(corpus.graph, corpus.permutation);
  ASSERT_TRUE(heap_result.ok());
  KpjInstance heap = std::move(heap_result).value();
  ASSERT_TRUE(heap.AttachLandmarks(corpus.landmarks).ok());
  Result<KpjInstance> mapped_result = KpjInstance::LoadMapped(path);
  ASSERT_TRUE(mapped_result.ok()) << mapped_result.status().ToString();
  KpjInstance mapped = std::move(mapped_result).value();

  std::vector<KpjQuery> queries;
  for (NodeId source : {NodeId{5}, NodeId{77}, NodeId{421}}) {
    KpjQuery query;
    query.sources = {source};
    query.targets = {40, 99, 250, 731};
    query.k = 5;
    queries.push_back(std::move(query));
  }
  KpjQuery gkpj;  // GKPJ: three sources rooted at the virtual source.
  gkpj.sources = {421, 5, 77};
  gkpj.targets = {40, 99, 250, 731};
  gkpj.k = 5;
  queries.push_back(std::move(gkpj));

  struct Config {
    unsigned workers;
    unsigned intra_threads;
    size_t cache_mb;
  };
  for (const Config& cfg : {Config{1, 1, 0},     // sequential, cold
                            Config{2, 2, 16},    // parallel + cache
                            Config{3, 0, 64}}) {  // auto-split intra
    for (Algorithm algorithm : kAllAlgorithms) {
      api::EngineConfig config;
      config.workers = cfg.workers;
      config.intra_threads = cfg.intra_threads;
      config.cache_mb = cfg.cache_mb;
      config.algorithm = algorithm;
      config.clamp_to_hardware = false;
      KpjEngine heap_engine(heap, config.ToEngineOptions());
      KpjEngine mapped_engine(mapped, config.ToEngineOptions());
      std::vector<Result<KpjResult>> want = heap_engine.RunBatch(queries);
      std::vector<Result<KpjResult>> got = mapped_engine.RunBatch(queries);
      ASSERT_EQ(want.size(), got.size());
      for (size_t q = 0; q < want.size(); ++q) {
        const std::string label =
            std::string(AlgorithmName(algorithm)) + " workers=" +
            std::to_string(cfg.workers) + " intra=" +
            std::to_string(cfg.intra_threads) + " cache=" +
            std::to_string(cfg.cache_mb) + " query " + std::to_string(q);
        ASSERT_TRUE(want[q].ok() && got[q].ok()) << label;
        ASSERT_EQ(want[q].value().paths.size(), got[q].value().paths.size())
            << label;
        for (size_t i = 0; i < want[q].value().paths.size(); ++i) {
          EXPECT_EQ(want[q].value().paths[i].nodes,
                    got[q].value().paths[i].nodes)
              << label << " path " << i;
          EXPECT_EQ(want[q].value().paths[i].length,
                    got[q].value().paths[i].length)
              << label << " path " << i;
        }
      }
    }
  }
}

TEST_F(MmapGraphTest, EveryCorruptSectionIsDetectedAndNamed) {
  // Snapshot the directory from a clean copy, then corrupt a fresh file
  // one section at a time.
  std::vector<SectionEntry> directory;
  {
    Result<MappedGraphBundle> reference = MapGraphFile(WriteV4());
    ASSERT_TRUE(reference.ok());
    directory = reference.value().file->directory();
  }
  for (const SectionEntry& entry : directory) {
    if (entry.bytes == 0) continue;
    std::string name = GraphSectionKindName(entry.kind);
    std::string path = WriteV4("corrupt_" + name + ".v4");
    FlipByte(path, entry.offset + entry.bytes / 2);
    Result<MappedGraphBundle> corrupt = MapGraphFile(path);
    ASSERT_FALSE(corrupt.ok()) << "section " << name << " not detected";
    EXPECT_NE(corrupt.status().message().find(name), std::string::npos)
        << "error does not name section " << name << ": "
        << corrupt.status().ToString();
  }
}

TEST_F(MmapGraphTest, CorruptHeaderAndDirectoryAreDetected) {
  std::string header_path = WriteV4("header.v4");
  FlipByte(header_path, 9);  // inside FileHeader.version
  EXPECT_FALSE(MapGraphFile(header_path).ok());

  std::string dir_path = WriteV4("dir.v4");
  FlipByte(dir_path, sizeof(FileHeader) + 4);  // first entry's elem_size
  Result<MappedGraphBundle> corrupt_dir = MapGraphFile(dir_path);
  ASSERT_FALSE(corrupt_dir.ok());
  EXPECT_NE(corrupt_dir.status().message().find("checksum"),
            std::string::npos)
      << corrupt_dir.status().ToString();

  // The header/directory checksum guards trusted opens too.
  MappedLoadOptions trusted;
  trusted.verify_checksums = false;
  EXPECT_FALSE(MapGraphFile(dir_path, trusted).ok());
}

TEST_F(MmapGraphTest, TruncatedFileIsRejected) {
  std::string path = WriteV4("trunc.v4");
  uint64_t size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - kSectionAlignment);
  EXPECT_FALSE(MapGraphFile(path).ok());
  std::filesystem::resize_file(path, 16);  // shorter than the header
  EXPECT_FALSE(MapGraphFile(path).ok());
}

TEST_F(MmapGraphTest, TrustedOpenAcceptsPayloadCorruption) {
  // Documents the --trusted contract: payload corruption is NOT detected
  // (only the header/directory checksum is checked), so it must only be
  // used on files the caller generated.
  std::string path = WriteV4("trusted.v4");
  uint64_t target = 0;
  {
    Result<MappedGraphBundle> reference = MapGraphFile(path);
    ASSERT_TRUE(reference.ok());
    const SectionEntry* adjacency =
        reference.value().file->FindSection(/*kSecFwdAdj=*/2);
    ASSERT_NE(adjacency, nullptr);
    target = adjacency->offset + adjacency->bytes / 2;
  }
  FlipByte(path, target);
  EXPECT_FALSE(MapGraphFile(path).ok());  // verified open still catches it
  MappedLoadOptions trusted;
  trusted.verify_checksums = false;
  EXPECT_TRUE(MapGraphFile(path, trusted).ok());
}

TEST(SectionFileWriterTest, UnknownSectionKindsAreIgnored) {
  // Forward compatibility at the container level: a reader only asks for
  // the kinds it knows; unknown kinds ride along untouched.
  std::string path =
      (std::filesystem::temp_directory_path() /
       ("kpj_mmap_unknown_" + std::to_string(::getpid()) + ".bin"))
          .string();
  constexpr uint64_t kMagic = 0x544553544d4d4150ull;  // arbitrary
  std::vector<uint32_t> known = {1, 2, 3};
  std::vector<uint64_t> future = {9, 9, 9, 9};
  SectionFileWriter writer(kMagic, 7);
  writer.AddSection<uint32_t>(1, known);
  writer.AddSection<uint64_t>(999, future);
  ASSERT_TRUE(writer.WriteTo(path).ok());
  Result<std::shared_ptr<MappedGraphFile>> file =
      MappedGraphFile::Open(path, kMagic, 7);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  Result<std::span<const uint32_t>> section =
      file.value()->SectionAs<uint32_t>(1);
  ASSERT_TRUE(section.ok());
  EXPECT_EQ(section.value().size(), 3u);
  EXPECT_EQ(section.value()[2], 3u);
  EXPECT_NE(file.value()->FindSection(999), nullptr);
  EXPECT_EQ(file.value()->FindSection(42), nullptr);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace kpj
