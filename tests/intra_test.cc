// Intra-query parallelism: deterministic parallel deviation expansion.
//
// The contract under test (DESIGN.md "Intra-query parallelism") is that
// results are *byte-identical* at every intra_threads setting and every
// worker count: same path node sequences, same lengths, same QueryStats
// (including every AlgoStats counter). The sweep below pins that across
// all seven algorithms, plus a GKPJ (multi-source) query.
//
// Also covered: ThreadPool::HelpedParallelFor (exactly-once execution,
// owner-only fallback, nested submission without deadlock — the nesting
// stress is a TSAN target run by scripts/check.sh --tsan), and the
// satellite fix that a 1 ms deadline interrupts deviation searches on a
// 240k-node road network instead of letting them run to completion.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "api/api.h"
#include "core/engine.h"
#include "core/kpj.h"
#include "core/kpj_instance.h"
#include "gen/road_gen.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "index/landmark_index.h"
#include "util/concurrency.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace kpj {
namespace {

// ---------------------------------------------------------------------------
// HelpedParallelFor unit and stress tests.

TEST(HelpedParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kCount = 257;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  pool.HelpedParallelFor(kCount, 3, [&](size_t i, unsigned lane) {
    ASSERT_LE(lane, 3u);
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(HelpedParallelForTest, ZeroHelpersRunsInlineOnLaneZero) {
  ThreadPool pool(2);
  std::atomic<size_t> done{0};
  size_t stolen = pool.HelpedParallelFor(64, 0, [&](size_t, unsigned lane) {
    EXPECT_EQ(lane, 0u);
    done.fetch_add(1);
  });
  EXPECT_EQ(stolen, 0u);
  EXPECT_EQ(done.load(), 64u);
}

TEST(HelpedParallelForTest, NestedCallFromPoolTaskDoesNotDeadlock) {
  // A 1-thread pool is the worst case: the only worker owns the outer
  // task, so its nested HelpedParallelFor can never get a helper — the
  // owner must make progress alone.
  ThreadPool pool(1);
  std::atomic<size_t> done{0};
  pool.Submit([&](unsigned) {
    pool.HelpedParallelFor(100, 2,
                           [&](size_t, unsigned) { done.fetch_add(1); });
  });
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 100u);
}

TEST(HelpedParallelForTest, NestedSubmissionStress) {
  // Many concurrent owners, each fanning out nested helped loops on the
  // same small pool: exercises helper tasks observing exhausted counters,
  // late-starting helpers after the owner returned, and the owner-wait
  // handshake. Run under --tsan by scripts/check.sh.
  ThreadPool pool(3);
  constexpr int kOuter = 16;
  constexpr size_t kInner = 32;
  std::atomic<size_t> done{0};
  std::atomic<int> outer_done{0};
  for (int o = 0; o < kOuter; ++o) {
    pool.Submit([&](unsigned) {
      pool.HelpedParallelFor(kInner, 3, [&](size_t, unsigned) {
        done.fetch_add(1, std::memory_order_relaxed);
      });
      outer_done.fetch_add(1);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(outer_done.load(), kOuter);
  EXPECT_EQ(done.load(), kOuter * kInner);
}

// ---------------------------------------------------------------------------
// Shared EffectiveWorkers helper (satellite: one clamp implementation).

TEST(EffectiveWorkersTest, ClampsToHardwareAndForwardsFromThreadPool) {
  EXPECT_EQ(EffectiveWorkers(0), 1u);
  EXPECT_EQ(EffectiveWorkers(1), 1u);
  unsigned big = EffectiveWorkers(1u << 20);
  EXPECT_GE(big, 1u);
  EXPECT_LE(big, 1u << 20);
  EXPECT_EQ(ThreadPool::ClampToHardware(1u << 20), big);
  // ResolveWorkerCount: 0 = hardware pick, clamp off = verbatim.
  EXPECT_GE(ResolveWorkerCount(0, true), 1u);
  EXPECT_EQ(ResolveWorkerCount(7, false), 7u);
  EXPECT_EQ(ResolveWorkerCount(7, true), EffectiveWorkers(7));
}

// ---------------------------------------------------------------------------
// Byte-identity sweep across algorithms, worker counts, and intra lanes.

Graph TestGraph(uint32_t nodes = 2600, uint64_t seed = 31) {
  RoadGenOptions opt;
  opt.target_nodes = nodes;
  opt.seed = seed;
  return GenerateRoadNetwork(opt).graph;
}

/// A mixed workload: single-source queries of varying k and target-set
/// size, plus one GKPJ (two-source) query.
std::vector<KpjQuery> MixedQueries(NodeId num_nodes, uint64_t seed) {
  Rng rng(seed);
  std::vector<KpjQuery> queries;
  for (int q = 0; q < 8; ++q) {
    KpjQuery query;
    query.sources = {static_cast<NodeId>(rng.NextBounded(num_nodes))};
    size_t num_targets = 3 + q % 4;
    for (uint64_t t : rng.SampleDistinct(num_targets, num_nodes)) {
      query.targets.push_back(static_cast<NodeId>(t));
    }
    query.k = 2 + 3 * static_cast<uint32_t>(q % 4);
    queries.push_back(std::move(query));
  }
  KpjQuery gkpj;
  for (uint64_t s : rng.SampleDistinct(2, num_nodes)) {
    gkpj.sources.push_back(static_cast<NodeId>(s));
  }
  for (uint64_t t : rng.SampleDistinct(5, num_nodes)) {
    gkpj.targets.push_back(static_cast<NodeId>(t));
  }
  gkpj.k = 6;
  queries.push_back(std::move(gkpj));
  return queries;
}

void ExpectSameStats(const QueryStats& a, const QueryStats& b,
                     const std::string& where) {
  EXPECT_EQ(a.shortest_path_computations, b.shortest_path_computations)
      << where;
  EXPECT_EQ(a.lower_bound_tests, b.lower_bound_tests) << where;
  EXPECT_EQ(a.subspaces_created, b.subspaces_created) << where;
  EXPECT_EQ(a.nodes_settled, b.nodes_settled) << where;
  EXPECT_EQ(a.edges_relaxed, b.edges_relaxed) << where;
  EXPECT_EQ(a.max_queue_size, b.max_queue_size) << where;
  EXPECT_EQ(a.spt_nodes, b.spt_nodes) << where;
  EXPECT_EQ(a.final_tau, b.final_tau) << where;
  EXPECT_TRUE(a.algo == b.algo) << where << ": AlgoStats differ";
}

/// Runs every query one at a time through Submit so idle workers are free
/// to act as deviation helpers (a saturated RunBatch would leave none).
std::vector<KpjResult> RunQueries(const KpjInstance& instance,
                                  const std::vector<KpjQuery>& queries,
                                  Algorithm algorithm, unsigned workers,
                                  unsigned intra) {
  api::EngineConfig config;
  config.workers = workers;
  config.clamp_to_hardware = false;  // The sweep oversubscribes 1 core.
  config.intra_threads = intra;
  config.algorithm = algorithm;
  KpjEngine engine(instance, config.ToEngineOptions());
  std::vector<KpjResult> results;
  for (const KpjQuery& query : queries) {
    Result<KpjResult> r = engine.Submit(query).get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(r.ok() ? std::move(r).value() : KpjResult{});
  }
  return results;
}

class IntraIdentityTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  static void SetUpTestSuite() {
    Graph g = TestGraph();
    instance_ = new KpjInstance(
        KpjInstance::Wrap(std::move(g), Permutation()).value());
    LandmarkIndexOptions opt;
    opt.num_landmarks = 6;
    ASSERT_TRUE(instance_
                    ->AttachLandmarks(LandmarkIndex::Build(
                        instance_->graph(), instance_->reverse(), opt))
                    .ok());
  }
  static void TearDownTestSuite() {
    delete instance_;
    instance_ = nullptr;
  }

  static KpjInstance* instance_;
};

KpjInstance* IntraIdentityTest::instance_ = nullptr;

TEST_P(IntraIdentityTest, ByteIdenticalAcrossIntraLanesAndWorkers) {
  std::vector<KpjQuery> queries = MixedQueries(instance_->NumNodes(), 53);
  std::vector<KpjResult> reference =
      RunQueries(*instance_, queries, GetParam(), 1, 1);

  struct Combo {
    unsigned workers;
    unsigned intra;
  };
  const Combo combos[] = {{1, 2}, {1, 4}, {1, 8}, {3, 2}, {3, 4}, {4, 0}};
  for (const Combo& combo : combos) {
    std::vector<KpjResult> got =
        RunQueries(*instance_, queries, GetParam(), combo.workers,
                   combo.intra);
    ASSERT_EQ(reference.size(), got.size());
    for (size_t q = 0; q < reference.size(); ++q) {
      std::string where = "workers=" + std::to_string(combo.workers) +
                          " intra=" + std::to_string(combo.intra) +
                          " query=" + std::to_string(q);
      ASSERT_EQ(reference[q].paths.size(), got[q].paths.size()) << where;
      for (size_t p = 0; p < reference[q].paths.size(); ++p) {
        EXPECT_EQ(reference[q].paths[p].nodes, got[q].paths[p].nodes)
            << where << " path=" << p;
        EXPECT_EQ(reference[q].paths[p].length, got[q].paths[p].length)
            << where << " path=" << p;
      }
      ExpectSameStats(reference[q].stats, got[q].stats, where);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, IntraIdentityTest,
                         ::testing::ValuesIn(kAllAlgorithms),
                         [](const auto& info) {
                           std::string name = AlgorithmName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

/// A ladder: two rails of `rungs` nodes (rail 0 = 0..rungs-1, rail 1 =
/// rungs..2*rungs-1), both directions on every rail edge and rung, with
/// seeded weights. Every path between the two ends has >= rungs-1 hops.
Graph LadderGraph(NodeId rungs, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(2 * rungs);
  auto weight = [&] { return static_cast<Weight>(rng.NextInRange(1, 9)); };
  for (NodeId i = 0; i < rungs; ++i) {
    b.AddBidirectional(i, rungs + i, weight());
    if (i + 1 < rungs) {
      b.AddBidirectional(i, i + 1, weight());
      b.AddBidirectional(rungs + i, rungs + i + 1, weight());
    }
  }
  return b.Build();
}

TEST(IntraDeepPathTest, LongPrefixesIdenticalAcrossLanesAndEqualToDa) {
  // Answers of >= 100 hops make every division rank a deep chosen path,
  // and k = 30 makes many divisions share one rank array across lanes.
  constexpr NodeId kRungs = 150;
  KpjInstance instance =
      KpjInstance::Wrap(LadderGraph(kRungs, 41), Permutation()).value();
  LandmarkIndexOptions opt;
  opt.num_landmarks = 4;
  ASSERT_TRUE(instance
                  .AttachLandmarks(LandmarkIndex::Build(
                      instance.graph(), instance.reverse(), opt))
                  .ok());
  std::vector<KpjQuery> queries(2);
  queries[0].sources = {0};
  queries[0].targets = {kRungs - 1, 2 * kRungs - 1};
  queries[1].sources = {kRungs};
  queries[1].targets = {kRungs - 1, kRungs - 3, 2 * kRungs - 2};
  for (KpjQuery& query : queries) query.k = 30;

  // The work of each solver on these queries (pruned candidates,
  // searches, bound tests, nodes settled), recorded when CompLB still
  // walked every subspace's prefix: reading the prefixes from one rank
  // array per division must bound exactly the same subspaces. A looser
  // but still admissible bound keeps every answer and changes only these.
  struct Work {
    Algorithm algorithm;
    uint64_t pruned[2], searches[2], tests[2], settled[2];
  };
  const Work kWork[] = {
      {Algorithm::kIterBoundSptI, {43, 43}, {39, 29}, {39, 29}, {3926, 2771}},
      {Algorithm::kIterBound, {35, 44}, {130, 30}, {129, 29}, {6376, 1004}},
      {Algorithm::kIterBoundSptP, {36, 44}, {33, 30}, {32, 29}, {1340, 1004}},
      {Algorithm::kBestFirst, {35, 44}, {130, 30}, {0, 0}, {6376, 1004}},
  };

  std::vector<KpjResult> da =
      RunQueries(instance, queries, Algorithm::kDA, 1, 1);
  for (const KpjResult& r : da) {
    ASSERT_EQ(r.paths.size(), 30u);
    for (const Path& path : r.paths) ASSERT_GE(path.nodes.size(), 101u);
  }
  for (const Work& work : kWork) {
    const Algorithm algorithm = work.algorithm;
    std::vector<KpjResult> reference =
        RunQueries(instance, queries, algorithm, 1, 1);
    for (size_t q = 0; q < queries.size(); ++q) {
      std::string where = std::string(AlgorithmName(algorithm)) +
                          " query=" + std::to_string(q);
      const QueryStats& stats = reference[q].stats;
      EXPECT_EQ(stats.algo.candidates_pruned, work.pruned[q]) << where;
      EXPECT_EQ(stats.shortest_path_computations, work.searches[q]) << where;
      EXPECT_EQ(stats.lower_bound_tests, work.tests[q]) << where;
      EXPECT_EQ(stats.nodes_settled, work.settled[q]) << where;
      ASSERT_EQ(reference[q].paths.size(), da[q].paths.size()) << where;
      for (size_t p = 0; p < da[q].paths.size(); ++p) {
        EXPECT_EQ(reference[q].paths[p].length, da[q].paths[p].length)
            << where << " path=" << p;
      }
      // Every popped bound was a lower bound on the length found for it.
      EXPECT_LE(stats.algo.lb_tightness_num, stats.algo.lb_tightness_den)
          << where;
    }
    for (unsigned intra : {2u, 4u}) {
      std::vector<KpjResult> got =
          RunQueries(instance, queries, algorithm, intra + 1, intra);
      for (size_t q = 0; q < queries.size(); ++q) {
        std::string where = std::string(AlgorithmName(algorithm)) +
                            " intra=" + std::to_string(intra) +
                            " query=" + std::to_string(q);
        ASSERT_EQ(reference[q].paths.size(), got[q].paths.size()) << where;
        for (size_t p = 0; p < reference[q].paths.size(); ++p) {
          EXPECT_EQ(reference[q].paths[p].nodes, got[q].paths[p].nodes)
              << where << " path=" << p;
        }
        ExpectSameStats(reference[q].stats, got[q].stats, where);
      }
    }
  }
}

TEST(IntraMetricsTest, RoundAndTaskCountersAreSchedulingIndependent) {
  Graph g = TestGraph(2000, 7);
  KpjInstance instance =
      KpjInstance::Wrap(std::move(g), Permutation()).value();
  std::vector<KpjQuery> queries = MixedQueries(instance.NumNodes(), 11);

  auto snapshot_for = [&](unsigned workers, unsigned intra) {
    api::EngineConfig config;
    config.workers = workers;
    config.clamp_to_hardware = false;
    config.intra_threads = intra;
    config.algorithm = Algorithm::kDA;
    KpjEngine engine(instance, config.ToEngineOptions());
    for (const KpjQuery& query : queries) {
      Result<KpjResult> r = engine.Submit(query).get();
      EXPECT_TRUE(r.ok());
    }
    return engine.MetricsSnapshot();
  };

  EngineMetricsSnapshot seq = snapshot_for(1, 1);
  EngineMetricsSnapshot par = snapshot_for(4, 4);
  // The round structure is a property of the workload, not the schedule.
  EXPECT_GT(seq.algo.intra_rounds, 0u);
  EXPECT_GE(seq.algo.intra_tasks, seq.algo.intra_rounds);
  EXPECT_EQ(seq.algo.intra_rounds, par.algo.intra_rounds);
  EXPECT_EQ(seq.algo.intra_tasks, par.algo.intra_tasks);
  // Scheduling facts: sequential mode never fans out; parallel mode fans
  // out exactly the multi-slot rounds (deterministic given the workload,
  // even though *steals* depend on timing).
  EXPECT_EQ(seq.intra_parallel_rounds, 0u);
  EXPECT_EQ(seq.intra_steals, 0u);
  EXPECT_GT(par.intra_parallel_rounds, 0u);
  EXPECT_EQ(par.intra_fanout.count, par.intra_parallel_rounds);
}

// ---------------------------------------------------------------------------
// Satellite fix: a deadline must interrupt in-flight deviation searches.

TEST(IntraDeadlineTest, OneMillisecondDeadlineInterruptsRoad240k) {
  RoadGenOptions opt;
  opt.target_nodes = 240000;
  opt.seed = 12;
  Graph g = GenerateRoadNetwork(opt).graph;
  const NodeId n = g.NumNodes();
  KpjInstance instance =
      KpjInstance::Wrap(std::move(g), Permutation()).value();

  KpjQuery query;
  query.sources = {0};
  query.targets = {n - 1, n - 2, n - 3, n - 4};
  query.k = 64;

  for (Algorithm algorithm :
       {Algorithm::kDA, Algorithm::kDaSpt, Algorithm::kIterBoundSptINoLm}) {
    api::EngineConfig config;
    config.workers = 2;
    config.clamp_to_hardware = false;
    config.intra_threads = 4;
    config.algorithm = algorithm;
    KpjEngine engine(instance, config.ToEngineOptions());
    Timer timer;
    Result<KpjResult> r = engine.Submit(query, /*deadline_ms=*/1.0).get();
    double elapsed_ms = timer.ElapsedMillis();
    ASSERT_TRUE(r.ok()) << AlgorithmName(algorithm);
    // k=64 across a 240k-node network cannot finish in 1 ms; the result
    // must be a flagged partial answer, and it must arrive promptly — a
    // missing poll would let a full deviation search (or a full SPT
    // build) run to completion first. The bound is generous because the
    // searches poll cooperatively and CI machines are slow.
    EXPECT_FALSE(r.value().status.ok()) << AlgorithmName(algorithm);
    EXPECT_LT(elapsed_ms, 5000.0) << AlgorithmName(algorithm);
    EXPECT_EQ(engine.MetricsSnapshot().deadline_exceeded, 1u)
        << AlgorithmName(algorithm);
  }
}

}  // namespace
}  // namespace kpj
