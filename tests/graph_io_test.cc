// DIMACS text I/O and binary serialization tests (round trips plus
// malformed-input handling).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "gen/road_gen.h"
#include "graph/dimacs_io.h"
#include "graph/graph_builder.h"
#include "graph/serialize.h"

namespace kpj {
namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("kpj_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string PathFor(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

using DimacsIoTest = TempDir;
using SerializeTest = TempDir;

TEST_F(DimacsIoTest, ParseMinimal) {
  Result<Graph> g = ParseDimacsGraph(
      "c comment\n"
      "p sp 3 2\n"
      "a 1 2 10\n"
      "a 2 3 20\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().NumNodes(), 3u);
  EXPECT_EQ(g.value().NumEdges(), 2u);
  EXPECT_EQ(g.value().EdgeWeight(0, 1), 10u);
  EXPECT_EQ(g.value().EdgeWeight(1, 2), 20u);
}

TEST_F(DimacsIoTest, MissingProblemLineFails) {
  Result<Graph> g = ParseDimacsGraph("a 1 2 10\n");
  // Arc before "p sp" referencing undeclared nodes is corruption either
  // way; we require the problem line.
  EXPECT_FALSE(g.ok());
}

TEST_F(DimacsIoTest, ArcCountMismatchFails) {
  Result<Graph> g = ParseDimacsGraph("p sp 2 2\na 1 2 5\n");
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kCorruption);
}

TEST_F(DimacsIoTest, OutOfRangeEndpointFails) {
  Result<Graph> g = ParseDimacsGraph("p sp 2 1\na 1 5 5\n");
  EXPECT_FALSE(g.ok());
}

TEST_F(DimacsIoTest, MalformedArcFails) {
  EXPECT_FALSE(ParseDimacsGraph("p sp 2 1\na 1 2\n").ok());
  EXPECT_FALSE(ParseDimacsGraph("p sp 2 1\na 1 2 x\n").ok());
  EXPECT_FALSE(ParseDimacsGraph("p sp 2 1\nz 1 2 3\n").ok());
}

TEST_F(DimacsIoTest, FileRoundTrip) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 3);
  b.AddEdge(1, 2, 4);
  b.AddBidirectional(2, 3, 5);
  Graph g = b.Build();

  std::string path = PathFor("g.gr");
  ASSERT_TRUE(WriteDimacsGraph(g, path).ok());
  Result<Graph> loaded = ReadDimacsGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().Equals(g));
}

TEST_F(DimacsIoTest, ReadMissingFileIsIoError) {
  Result<Graph> g = ReadDimacsGraph(PathFor("nonexistent.gr"));
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

TEST_F(DimacsIoTest, CoordinateRoundTrip) {
  std::vector<Coordinate> coords = {{1, 2}, {-3, 4}, {0, 0}};
  std::string path = PathFor("g.co");
  ASSERT_TRUE(WriteDimacsCoordinates(coords, path).ok());
  Result<std::vector<Coordinate>> loaded = ReadDimacsCoordinates(path, 3);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded.value()[i].x, coords[i].x);
    EXPECT_EQ(loaded.value()[i].y, coords[i].y);
  }
}

TEST_F(DimacsIoTest, CoordinateOutOfRangeIdFails) {
  std::string path = PathFor("bad.co");
  ASSERT_TRUE(WriteDimacsCoordinates({{1, 1}, {2, 2}}, path).ok());
  Result<std::vector<Coordinate>> loaded = ReadDimacsCoordinates(path, 1);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SerializeTest, BinaryRoundTripSmall) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 2, 2);
  Graph g = b.Build();
  std::string path = PathFor("g.bin");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  Result<Graph> loaded = LoadGraphBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().Equals(g));
}

TEST_F(SerializeTest, BinaryRoundTripGeneratedNetwork) {
  RoadGenOptions opt;
  opt.target_nodes = 2000;
  opt.seed = 11;
  RoadNetwork net = GenerateRoadNetwork(opt);
  std::string path = PathFor("net.bin");
  ASSERT_TRUE(SaveGraphBinary(net.graph, path).ok());
  Result<Graph> loaded = LoadGraphBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().Equals(net.graph));
}

TEST_F(SerializeTest, BadMagicRejected) {
  std::string path = PathFor("junk.bin");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "definitely not a graph";
  fwrite(junk, 1, sizeof(junk), f);
  fclose(f);
  Result<Graph> loaded = LoadGraphBinary(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(SerializeTest, UnsupportedVersionsRejected) {
  // Version 3 (CSR + permutation + hub labels) is retired; like any version
  // the reader does not know, it fails as an unsupported version rather
  // than being misread as a neighbour format.
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 2, 2);
  const Graph g = b.Build();
  for (uint32_t version : {0u, 3u, 5u, 99u}) {
    std::string path = PathFor("v" + std::to_string(version) + ".bin");
    {
      // A valid v1 body behind the foreign version number.
      ASSERT_TRUE(SaveGraphBinary(g, path).ok());
      std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
      ASSERT_TRUE(f);
      f.seekp(sizeof(uint64_t));  // just past the magic
      f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    }
    Result<GraphFile> loaded = LoadGraphFile(path);
    ASSERT_FALSE(loaded.ok()) << "version " << version;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    EXPECT_NE(loaded.status().message().find("unsupported version"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(SerializeTest, TruncatedFileRejected) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1);
  Graph g = b.Build();
  std::string path = PathFor("trunc.bin");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  // Truncate to half.
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  Result<Graph> loaded = LoadGraphBinary(path);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SerializeTest, MissingFileIsIoError) {
  Result<Graph> loaded = LoadGraphBinary(PathFor("missing.bin"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace kpj
