// google-benchmark microbenchmarks for the substrate: the priority queue,
// the shortest-path engine (IncrementalSearch as Dijkstra and as landmark
// A*), landmark bound evaluation, and graph plumbing.

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "gen/road_gen.h"
#include "index/landmark_index.h"
#include "index/target_bound.h"
#include "sssp/incremental_search.h"
#include "util/indexed_heap.h"
#include "util/rng.h"

namespace kpj {
namespace {

const RoadNetwork& Network() {
  static const RoadNetwork* net = [] {
    RoadGenOptions opt;
    opt.target_nodes = 50000;
    opt.seed = 13;
    return new RoadNetwork(GenerateRoadNetwork(opt));
  }();
  return *net;
}

const LandmarkIndex& Landmarks() {
  static const LandmarkIndex* index = [] {
    const RoadNetwork& net = Network();
    return new LandmarkIndex(
        LandmarkIndex::Build(net.graph, net.graph.Reverse(), {}));
  }();
  return *index;
}

void BM_IndexedHeapPushPop(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.NextBounded(1u << 30);
  IndexedHeap<uint64_t> heap(n);
  for (auto _ : state) {
    for (uint32_t i = 0; i < n; ++i) heap.Push(i, keys[i]);
    while (!heap.empty()) benchmark::DoNotOptimize(heap.Pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IndexedHeapPushPop)->Arg(1024)->Arg(65536);

void BM_DijkstraFullSssp(benchmark::State& state) {
  const Graph& g = Network().graph;
  ZeroHeuristic zero;
  IncrementalSearch engine(g);
  Rng rng(3);
  for (auto _ : state) {
    const std::pair<NodeId, PathLength> source[] = {
        {static_cast<NodeId>(rng.NextBounded(g.NumNodes())), 0}};
    engine.Initialize(source, zero);
    engine.AdvanceToBound(kInfLength, zero);
    benchmark::DoNotOptimize(engine.Distance(0));
  }
  state.SetItemsProcessed(state.iterations() * g.NumNodes());
}
BENCHMARK(BM_DijkstraFullSssp);

void BM_PointToPointDijkstra(benchmark::State& state) {
  const Graph& g = Network().graph;
  ZeroHeuristic zero;
  IncrementalSearch engine(g);
  EpochSet stop(g.NumNodes());
  Rng rng(4);
  for (auto _ : state) {
    NodeId s = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    NodeId t = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    const std::pair<NodeId, PathLength> source[] = {{s, 0}};
    engine.Initialize(source, zero);
    stop.ClearAll();
    stop.Insert(t);
    benchmark::DoNotOptimize(engine.AdvanceUntilAnySettled(stop, zero));
  }
}
BENCHMARK(BM_PointToPointDijkstra);

void BM_PointToPointAStarLandmarks(benchmark::State& state) {
  const Graph& g = Network().graph;
  const LandmarkIndex& landmarks = Landmarks();
  Rng rng(4);  // Same seed: same (s, t) pairs as the Dijkstra bench.
  IncrementalSearch astar(g);
  EpochSet stop(g.NumNodes());
  for (auto _ : state) {
    NodeId s = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    NodeId t = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    std::vector<NodeId> set = {t};
    LandmarkSetBound bound(&landmarks, set, BoundDirection::kToSet);
    const std::pair<NodeId, PathLength> source[] = {{s, 0}};
    astar.Initialize(source, bound);
    stop.ClearAll();
    stop.Insert(t);
    benchmark::DoNotOptimize(astar.AdvanceUntilAnySettled(stop, bound));
  }
}
BENCHMARK(BM_PointToPointAStarLandmarks);

void BM_LandmarkBoundEstimate(benchmark::State& state) {
  const Graph& g = Network().graph;
  const LandmarkIndex& landmarks = Landmarks();
  std::vector<NodeId> set = {1, 100, 1000};
  LandmarkSetBound bound(&landmarks, set, BoundDirection::kToSet);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bound.Estimate(static_cast<NodeId>(rng.NextBounded(g.NumNodes()))));
  }
}
BENCHMARK(BM_LandmarkBoundEstimate);

void BM_GraphReverse(benchmark::State& state) {
  const Graph& g = Network().graph;
  for (auto _ : state) {
    Graph r = g.Reverse();
    benchmark::DoNotOptimize(r.NumEdges());
  }
}
BENCHMARK(BM_GraphReverse);

}  // namespace
}  // namespace kpj
