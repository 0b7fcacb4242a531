// Engine-level cross-query reuse: caching must change latency only. Every
// test compares full node sequences (not just lengths) between cache-off
// and cache-on runs — the byte-identical guarantee of DESIGN.md
// "Cross-query reuse" — including under eviction thrash, multi-worker
// interleaving, and epoch invalidation. The answer entries (a repeat
// served whole, or a smaller k served as the prefix of a cached answer)
// are tested for what they key on, what they serve and what they never
// store.
//
// The cache budget can be forced down with KPJ_CACHE_TEST_MB (check.sh
// uses 1 MiB under ASan to exercise eviction paths under the sanitizer).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
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
#include "util/rng.h"

namespace kpj {
namespace {

size_t CacheMbFromEnv(size_t def) {
  const char* env = std::getenv("KPJ_CACHE_TEST_MB");
  if (env == nullptr || *env == '\0') return def;
  long parsed = std::atol(env);
  return parsed > 0 ? static_cast<size_t>(parsed) : def;
}

Graph TestGraph(uint32_t nodes = 3000, uint64_t seed = 21) {
  RoadGenOptions opt;
  opt.target_nodes = nodes;
  opt.seed = seed;
  return GenerateRoadNetwork(opt).graph;
}

/// A zipf-ish batch: few sources repeat often (cache-friendly), the rest
/// are one-shot; all queries share one target category. k alternates
/// between 8 and 9, so a hot source comes back as an exact repeat or at
/// k = 8 after k = 9 (both served from the answer cache, the latter as a
/// prefix), or at k = 9 after only k = 8 (run by the solver on warm SPT
/// state).
std::vector<KpjQuery> RepeatingBatch(NodeId num_nodes, size_t count,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> targets;
  for (uint64_t t : rng.SampleDistinct(6, num_nodes)) {
    targets.push_back(static_cast<NodeId>(t));
  }
  std::vector<NodeId> hot_sources;
  for (uint64_t s : rng.SampleDistinct(4, num_nodes)) {
    hot_sources.push_back(static_cast<NodeId>(s));
  }
  std::vector<KpjQuery> queries(count);
  for (size_t i = 0; i < count; ++i) {
    NodeId source = rng.NextBool(0.7)
                        ? hot_sources[rng.NextBounded(hot_sources.size())]
                        : static_cast<NodeId>(rng.NextBounded(num_nodes));
    queries[i].sources = {source};
    queries[i].targets = targets;
    queries[i].k = 8 + i % 2;
  }
  return queries;
}

std::vector<std::vector<std::vector<NodeId>>> RunAll(
    const KpjInstance& instance, const std::vector<KpjQuery>& queries,
    Algorithm algorithm, unsigned threads, size_t cache_mb) {
  api::EngineConfig config;
  config.workers = threads;
  config.clamp_to_hardware = false;
  config.algorithm = algorithm;
  config.cache_mb = cache_mb;
  KpjEngine engine(instance, config.ToEngineOptions());
  std::vector<Result<KpjResult>> results = engine.RunBatch(queries);
  std::vector<std::vector<std::vector<NodeId>>> flattened;
  flattened.reserve(results.size());
  for (const Result<KpjResult>& r : results) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<std::vector<NodeId>> paths;
    if (r.ok()) {
      for (const Path& p : r.value().paths) {
        paths.emplace_back(p.nodes.begin(), p.nodes.end());
      }
    }
    flattened.push_back(std::move(paths));
  }
  return flattened;
}

/// The default test graph with six landmarks attached.
KpjInstance* NewLandmarkedInstance() {
  auto* instance =
      new KpjInstance(KpjInstance::Wrap(TestGraph(), Permutation()).value());
  LandmarkIndexOptions opt;
  opt.num_landmarks = 6;
  EXPECT_TRUE(instance
                  ->AttachLandmarks(LandmarkIndex::Build(
                      instance->graph(), instance->reverse(), opt))
                  .ok());
  return instance;
}

class CacheReuseTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  static void SetUpTestSuite() { instance_ = NewLandmarkedInstance(); }
  static void TearDownTestSuite() {
    delete instance_;
    instance_ = nullptr;
  }

  static KpjInstance* instance_;
};

KpjInstance* CacheReuseTest::instance_ = nullptr;

TEST_P(CacheReuseTest, CacheOnEqualsCacheOffSingleWorker) {
  std::vector<KpjQuery> batch =
      RepeatingBatch(instance_->NumNodes(), 40, 77);
  auto cold = RunAll(*instance_, batch, GetParam(), 1, 0);
  auto warm =
      RunAll(*instance_, batch, GetParam(), 1, CacheMbFromEnv(16));
  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i], warm[i]) << "query " << i;
  }
}

TEST_P(CacheReuseTest, CacheOnEqualsCacheOffFourWorkers) {
  std::vector<KpjQuery> batch =
      RepeatingBatch(instance_->NumNodes(), 48, 99);
  auto cold = RunAll(*instance_, batch, GetParam(), 1, 0);
  auto warm =
      RunAll(*instance_, batch, GetParam(), 4, CacheMbFromEnv(16));
  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i], warm[i]) << "query " << i;
  }
}

TEST_P(CacheReuseTest, TinyCacheThrashStaysDeterministicUnderFourWorkers) {
  // 1 MiB budget forces constant eviction; interleaved insert/evict/adopt
  // across 4 workers must not leak into the answers.
  std::vector<KpjQuery> batch =
      RepeatingBatch(instance_->NumNodes(), 48, 123);
  auto cold = RunAll(*instance_, batch, GetParam(), 1, 0);
  auto thrash = RunAll(*instance_, batch, GetParam(), 4, 1);
  ASSERT_EQ(cold.size(), thrash.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i], thrash[i]) << "query " << i;
  }
}

TEST_P(CacheReuseTest, RepeatedSourcesActuallyHitTheCache) {
  std::vector<KpjQuery> batch =
      RepeatingBatch(instance_->NumNodes(), 40, 77);
  api::EngineConfig config;
  config.workers = 1;
  config.algorithm = GetParam();
  config.cache_mb = CacheMbFromEnv(16);
  KpjEngine engine(*instance_, config.ToEngineOptions());
  engine.RunBatch(batch);
  EngineMetricsSnapshot snap = engine.MetricsSnapshot();
  // Every solver serves the exact repeats whole, labelled by itself.
  const AlgoStats& own = snap.algo_by_algorithm[PlannerIndex(GetParam())];
  EXPECT_GT(snap.algo.answer_cache_hits, 0u);
  EXPECT_GT(snap.algo.answer_cache_misses, 0u);
  EXPECT_EQ(own.answer_cache_hits, snap.algo.answer_cache_hits);
  EXPECT_EQ(own.answer_cache_misses, snap.algo.answer_cache_misses);
  EXPECT_EQ(snap.algo.answer_cache_hits + snap.algo.answer_cache_misses,
            batch.size());
  // Each miss here is a complete, small answer, and each set-bound miss
  // inserts its small aggregates, so each one is inserted: the insertions
  // beyond the answer and set-bound misses are SPT substrate. (A one-node
  // set bound, like a single source's, is neither looked up nor
  // inserted.)
  const uint64_t spt_insertions = snap.spt_cache_insertions -
                                  snap.algo.answer_cache_misses -
                                  snap.algo.bound_cache_misses;
  // DA has no cacheable substrate, and SPT_P caches none: it makes no SPT
  // lookup and inserts nothing but its answers. Every other algorithm
  // must both miss (first sight of a source) and hit (the same source at
  // k = 9 after k = 8, which no cached answer covers).
  if (GetParam() == Algorithm::kIterBoundSptP) {
    EXPECT_EQ(snap.algo.spt_cache_hits, 0u);
    EXPECT_EQ(snap.algo.spt_cache_misses, 0u);
    EXPECT_EQ(spt_insertions, 0u);
  } else if (GetParam() != Algorithm::kDA) {
    EXPECT_GT(snap.algo.spt_cache_hits, 0u);
    EXPECT_GT(snap.algo.spt_cache_misses, 0u);
    EXPECT_GT(spt_insertions, 0u);
  }
  EXPECT_GT(snap.cache_bytes, 0u);
  // Only the landmark-driven engines build set bounds at all; DA works
  // without bounds, DA-SPT bounds off its own SPT, and the -NL variant
  // deliberately skips landmarks.
  if (GetParam() == Algorithm::kBestFirst ||
      GetParam() == Algorithm::kIterBound ||
      GetParam() == Algorithm::kIterBoundSptP ||
      GetParam() == Algorithm::kIterBoundSptI) {
    EXPECT_GT(snap.algo.bound_cache_hits, 0u);
    EXPECT_GT(snap.algo.bound_cache_misses, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CacheReuseTest,
                         ::testing::ValuesIn(kAllAlgorithms),
                         [](const auto& info) {
                           std::string name = AlgorithmName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(CacheInvalidationTest, AttachLandmarksBumpsEpochAndDropsEntries) {
  Graph g = TestGraph(1500, 5);
  Result<KpjInstance> wrapped = KpjInstance::Wrap(std::move(g), Permutation());
  ASSERT_TRUE(wrapped.ok());
  KpjInstance& instance = wrapped.value();
  EXPECT_EQ(instance.epoch(), 1u);

  LandmarkIndexOptions small;
  small.num_landmarks = 2;
  ASSERT_TRUE(instance
                  .AttachLandmarks(LandmarkIndex::Build(
                      instance.graph(), instance.reverse(), small))
                  .ok());
  EXPECT_EQ(instance.epoch(), 2u);

  api::EngineConfig config;
  config.workers = 1;
  config.algorithm = Algorithm::kIterBoundSptI;
  config.cache_mb = 16;
  KpjEngine engine(instance, config.ToEngineOptions());
  std::vector<KpjQuery> batch = RepeatingBatch(instance.NumNodes(), 20, 3);
  auto before = RunAll(instance, batch, Algorithm::kIterBoundSptI, 1, 0);
  engine.RunBatch(batch);
  uint64_t warm_hits = engine.MetricsSnapshot().algo.spt_cache_hits;
  EXPECT_GT(warm_hits, 0u);

  // Re-attach a *different* landmark index: epoch bumps, every cached
  // bound/SPT keyed on epoch 2 becomes unreachable, and the engine purges
  // it on the next query. The new answers must match a cold engine run
  // with the new index.
  LandmarkIndexOptions bigger;
  bigger.num_landmarks = 6;
  ASSERT_TRUE(instance
                  .AttachLandmarks(LandmarkIndex::Build(
                      instance.graph(), instance.reverse(), bigger))
                  .ok());
  EXPECT_EQ(instance.epoch(), 3u);

  engine.ResetMetrics();
  auto after_cached = engine.RunBatch(batch);
  EngineMetricsSnapshot snap = engine.MetricsSnapshot();
  // First queries after invalidation cannot hit entries from epoch 2.
  EXPECT_GT(snap.algo.spt_cache_misses, 0u);

  auto after_cold = RunAll(instance, batch, Algorithm::kIterBoundSptI, 1, 0);
  ASSERT_EQ(after_cached.size(), after_cold.size());
  for (size_t i = 0; i < after_cached.size(); ++i) {
    ASSERT_TRUE(after_cached[i].ok());
    std::vector<std::vector<NodeId>> paths;
    for (const Path& p : after_cached[i].value().paths) {
      paths.emplace_back(p.nodes.begin(), p.nodes.end());
    }
    EXPECT_EQ(paths, after_cold[i]) << "query " << i;
  }
  // Sanity: the index change really changed the workload's bounds (the
  // pre-invalidation answers were computed with 2 landmarks, the new ones
  // with 6 — answers agree anyway because landmarks never change paths).
  ASSERT_EQ(before.size(), after_cold.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after_cold[i]) << "query " << i;
  }
}

// --- Answer entries -------------------------------------------------------

std::vector<std::vector<NodeId>> NodesOf(const Result<KpjResult>& result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<std::vector<NodeId>> paths;
  if (!result.ok()) return paths;
  for (const Path& p : result.value().paths) {
    paths.emplace_back(p.nodes.begin(), p.nodes.end());
  }
  return paths;
}

KpjEngineOptions EngineOptions(Algorithm algorithm, size_t cache_mb) {
  api::EngineConfig config;
  config.workers = 1;
  config.algorithm = algorithm;
  config.cache_mb = cache_mb;
  return config.ToEngineOptions();
}

class AnswerCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { instance_ = NewLandmarkedInstance(); }
  static void TearDownTestSuite() {
    delete instance_;
    instance_ = nullptr;
  }

  /// A single-source query against six targets.
  static KpjQuery Query(uint32_t k = 8) {
    KpjQuery q = RepeatingBatch(instance_->NumNodes(), 1, 5).front();
    q.k = k;
    return q;
  }

  static KpjInstance* instance_;
};

KpjInstance* AnswerCacheTest::instance_ = nullptr;

TEST_F(AnswerCacheTest, RepeatIsServedWholeAndEqualsCacheOff) {
  const KpjQuery query = Query();
  for (Algorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    KpjEngine cold(*instance_, EngineOptions(algorithm, 0));
    KpjEngine warm(*instance_, EngineOptions(algorithm, CacheMbFromEnv(16)));
    Result<KpjResult> reference = cold.Submit(query).get();
    Result<KpjResult> first = warm.Submit(query).get();
    Result<KpjResult> repeat = warm.Submit(query).get();
    ASSERT_TRUE(first.ok() && repeat.ok());
    EXPECT_EQ(first.value().stats.algo.answer_cache_misses, 1u);
    EXPECT_GT(first.value().stats.nodes_settled, 0u);

    const KpjResult& hit = repeat.value();
    EXPECT_TRUE(hit.status.ok());
    EXPECT_EQ(hit.algorithm_used, algorithm);
    EXPECT_EQ(hit.stats.algo.answer_cache_hits, 1u);
    EXPECT_EQ(hit.stats.algo.answer_cache_misses, 0u);
    EXPECT_EQ(hit.stats.nodes_settled, 0u);
    EXPECT_EQ(hit.stats.shortest_path_computations, 0u);
    EXPECT_EQ(hit.stats.algo.node_expansions, 0u);
    EXPECT_EQ(NodesOf(repeat), NodesOf(reference));
    EXPECT_EQ(NodesOf(first), NodesOf(reference));
    // A cache-off engine never looks.
    EXPECT_EQ(reference.value().stats.algo.answer_cache_misses, 0u);
  }
}

TEST_F(AnswerCacheTest, LargerKAndOtherAlgorithmMissButTargetOrderHits) {
  KpjEngine engine(*instance_,
                   EngineOptions(Algorithm::kIterBoundSptI,
                                 CacheMbFromEnv(16)));
  const KpjQuery query = Query();
  ASSERT_TRUE(engine.Submit(query).get().ok());
  auto hits = [](const Result<KpjResult>& r) {
    EXPECT_TRUE(r.ok());
    return r.ok() ? r.value().stats.algo.answer_cache_hits : 0u;
  };

  // Another k is another answer when the cached one does not cover it:
  // eight paths cannot serve nine.
  EXPECT_EQ(hits(engine.Submit(Query(9)).get()), 0u);
  // Another solver is another answer, even though the paths agree.
  QueryContext other;
  other.algorithm = Algorithm::kIterBound;
  Result<KpjResult> by_other = engine.Submit(query, 0.0, other).get();
  EXPECT_EQ(hits(by_other), 0u);
  EXPECT_EQ(by_other.value().algorithm_used, Algorithm::kIterBound);
  // The same target set in another order, with duplicates, is the same
  // canonical query.
  KpjQuery shuffled = query;
  std::reverse(shuffled.targets.begin(), shuffled.targets.end());
  shuffled.targets.push_back(shuffled.targets.front());
  Result<KpjResult> same = engine.Submit(shuffled).get();
  EXPECT_EQ(hits(same), 1u);
  EXPECT_EQ(NodesOf(same), NodesOf(engine.Submit(query).get()));
}

TEST(AnswerCacheEpochTest, AttachLandmarksMakesOldAnswersUnreachable) {
  KpjInstance instance =
      KpjInstance::Wrap(TestGraph(1500, 5), Permutation()).value();
  LandmarkIndexOptions small;
  small.num_landmarks = 2;
  ASSERT_TRUE(instance
                  .AttachLandmarks(LandmarkIndex::Build(
                      instance.graph(), instance.reverse(), small))
                  .ok());
  KpjEngine engine(instance, EngineOptions(Algorithm::kIterBoundSptI, 16));
  const KpjQuery query = RepeatingBatch(instance.NumNodes(), 1, 3).front();
  ASSERT_TRUE(engine.Submit(query).get().ok());
  ASSERT_EQ(engine.Submit(query).get().value().stats.algo.answer_cache_hits,
            1u);

  LandmarkIndexOptions bigger;
  bigger.num_landmarks = 6;
  ASSERT_TRUE(instance
                  .AttachLandmarks(LandmarkIndex::Build(
                      instance.graph(), instance.reverse(), bigger))
                  .ok());
  Result<KpjResult> after = engine.Submit(query).get();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().stats.algo.answer_cache_hits, 0u);
  EXPECT_EQ(after.value().stats.algo.answer_cache_misses, 1u);
  KpjEngine cold(instance, EngineOptions(Algorithm::kIterBoundSptI, 0));
  EXPECT_EQ(NodesOf(after), NodesOf(cold.Submit(query).get()));
}

TEST_F(AnswerCacheTest, DeadlineTruncatedAnswerIsNeverStored) {
  KpjEngine engine(*instance_,
                   EngineOptions(Algorithm::kIterBoundSptI,
                                 CacheMbFromEnv(16)));
  const KpjQuery query = Query(40);
  Result<KpjResult> truncated = engine.Submit(query, 1e-6).get();
  ASSERT_TRUE(truncated.ok());
  ASSERT_EQ(truncated.value().status.code(), StatusCode::kDeadlineExceeded);
  ASSERT_LT(truncated.value().paths.size(), query.k);

  Result<KpjResult> full = engine.Submit(query, 0.0).get();
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full.value().status.ok());
  EXPECT_EQ(full.value().paths.size(), query.k);
  EXPECT_EQ(full.value().stats.algo.answer_cache_hits, 0u);
  KpjEngine cold(*instance_, EngineOptions(Algorithm::kIterBoundSptI, 0));
  EXPECT_EQ(NodesOf(full), NodesOf(cold.Submit(query).get()));
}

/// A chain of `diamonds` diamonds, u -> {upper, lower} -> next u: every
/// source-to-end path has 2 * diamonds + 1 nodes, and there are
/// 2^diamonds of them.
Graph DiamondChain(NodeId diamonds) {
  GraphBuilder builder(3 * diamonds + 1);
  for (NodeId d = 0; d < diamonds; ++d) {
    NodeId u = 3 * d, upper = u + 1, lower = u + 2, next = u + 3;
    builder.AddEdge(u, upper, 1);
    builder.AddEdge(upper, next, 1);
    builder.AddEdge(u, lower, 1 + d % 3);
    builder.AddEdge(lower, next, 1);
  }
  return builder.Build();
}

/// Expects `r` to be an answer-cache hit: ok, zero work counters.
void ExpectServedWhole(const Result<KpjResult>& r) {
  ASSERT_TRUE(r.ok());
  const KpjResult& hit = r.value();
  EXPECT_TRUE(hit.status.ok());
  EXPECT_EQ(hit.stats.algo.answer_cache_hits, 1u);
  EXPECT_EQ(hit.stats.algo.answer_cache_misses, 0u);
  EXPECT_EQ(hit.stats.nodes_settled, 0u);
  EXPECT_EQ(hit.stats.shortest_path_computations, 0u);
  EXPECT_EQ(hit.stats.algo.node_expansions, 0u);
}

/// Expects `r` to be an answer-cache miss the solver ran.
void ExpectSolved(const Result<KpjResult>& r) {
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().stats.algo.answer_cache_hits, 0u);
  EXPECT_EQ(r.value().stats.algo.answer_cache_misses, 1u);
  EXPECT_GT(r.value().stats.nodes_settled, 0u);
}

TEST_F(AnswerCacheTest, SmallerKIsServedAsThePrefixOfALargerAnswer) {
  for (Algorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    KpjEngine cold(*instance_, EngineOptions(algorithm, 0));
    KpjEngine warm(*instance_, EngineOptions(algorithm, CacheMbFromEnv(16)));
    Result<KpjResult> first = warm.Submit(Query(8)).get();
    ExpectSolved(first);
    ASSERT_EQ(first.value().paths.size(), 8u);
    Result<KpjResult> prefix = warm.Submit(Query(3)).get();
    ExpectServedWhole(prefix);
    EXPECT_EQ(prefix.value().algorithm_used, algorithm);
    EXPECT_EQ(NodesOf(prefix), NodesOf(cold.Submit(Query(3)).get()));
    EXPECT_EQ(NodesOf(first), NodesOf(cold.Submit(Query(8)).get()));
  }
}

TEST_F(AnswerCacheTest, LargerKMissesReplacesTheEntryThenServesSmallerK) {
  KpjEngine cold(*instance_, EngineOptions(Algorithm::kIterBoundSptI, 0));
  KpjEngine warm(*instance_, EngineOptions(Algorithm::kIterBoundSptI,
                                           CacheMbFromEnv(16)));
  ExpectSolved(warm.Submit(Query(3)).get());
  const uint64_t insertions = warm.MetricsSnapshot().spt_cache_insertions;
  // Three paths cannot serve eight: the solver runs, and its answer
  // replaces the entry instead of adding a second one.
  Result<KpjResult> larger = warm.Submit(Query(8)).get();
  ExpectSolved(larger);
  EXPECT_EQ(NodesOf(larger), NodesOf(cold.Submit(Query(8)).get()));
  const EngineMetricsSnapshot after = warm.MetricsSnapshot();
  EXPECT_GT(after.spt_cache_insertions, insertions);
  // k = 5 now hits the eight-path entry.
  Result<KpjResult> middle = warm.Submit(Query(5)).get();
  ExpectServedWhole(middle);
  EXPECT_EQ(NodesOf(middle), NodesOf(cold.Submit(Query(5)).get()));
  // So do k = 3 and k = 8 themselves.
  ExpectServedWhole(warm.Submit(Query(3)).get());
  ExpectServedWhole(warm.Submit(Query(8)).get());
  EXPECT_EQ(warm.MetricsSnapshot().spt_cache_insertions,
            after.spt_cache_insertions);
}

TEST(AnswerCachePrefixTest, CompleteAnswerServesAnyLargerK) {
  // Three diamonds: exactly 2^3 = 8 source-to-end paths, so an answer
  // asked for 20 holds all 8, and holds them for every larger k too.
  KpjInstance instance =
      KpjInstance::Wrap(DiamondChain(3), Permutation()).value();
  KpjQuery query;
  query.sources = {0};
  query.targets = {9};
  for (Algorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    KpjEngine cold(instance, EngineOptions(algorithm, 0));
    KpjEngine warm(instance, EngineOptions(algorithm, CacheMbFromEnv(16)));
    query.k = 20;
    Result<KpjResult> complete = warm.Submit(query).get();
    ExpectSolved(complete);
    ASSERT_EQ(complete.value().paths.size(), 8u);
    for (uint32_t k : {50u, 20u, 8u, 7u}) {
      query.k = k;
      Result<KpjResult> served = warm.Submit(query).get();
      ExpectServedWhole(served);
      EXPECT_EQ(NodesOf(served), NodesOf(cold.Submit(query).get()))
          << "k " << k;
    }
  }
}

TEST_F(AnswerCacheTest, DeadlineTruncatedAnswerIsNeverServedAsAPrefix) {
  KpjEngine engine(*instance_,
                   EngineOptions(Algorithm::kIterBoundSptI,
                                 CacheMbFromEnv(16)));
  KpjEngine cold(*instance_, EngineOptions(Algorithm::kIterBoundSptI, 0));
  ExpectSolved(engine.Submit(Query(8)).get());
  // Eight paths cannot serve forty; the run is cut by its deadline, so
  // its prefix is stored nowhere and the eight-path entry stays.
  Result<KpjResult> truncated = engine.Submit(Query(40), 1e-6).get();
  ASSERT_TRUE(truncated.ok());
  ASSERT_EQ(truncated.value().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(truncated.value().stats.algo.answer_cache_hits, 0u);
  Result<KpjResult> small = engine.Submit(Query(5)).get();
  ExpectServedWhole(small);
  EXPECT_EQ(NodesOf(small), NodesOf(cold.Submit(Query(5)).get()));
  // The next k = 40 without a deadline still runs the solver, and its
  // answer then serves everything up to forty.
  Result<KpjResult> full = engine.Submit(Query(40)).get();
  ExpectSolved(full);
  EXPECT_EQ(NodesOf(full), NodesOf(cold.Submit(Query(40)).get()));
  ExpectServedWhole(engine.Submit(Query(12)).get());
}

TEST_F(AnswerCacheTest, GkpjRepeatIsServedWholeFromTheAnswerCache) {
  KpjQuery query = Query();
  NodeId second = query.sources.front();
  do {
    second = (second + 1) % instance_->NumNodes();
  } while (std::count(query.targets.begin(), query.targets.end(), second));
  query.sources.push_back(second);
  // The key holds the sorted source set: another listing order repeats it.
  KpjQuery reordered = query;
  std::reverse(reordered.sources.begin(), reordered.sources.end());
  for (Algorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    KpjEngine cold(*instance_, EngineOptions(algorithm, 0));
    KpjEngine warm(*instance_, EngineOptions(algorithm, CacheMbFromEnv(16)));
    Result<KpjResult> reference = cold.Submit(query).get();
    Result<KpjResult> first = warm.Submit(query).get();
    Result<KpjResult> repeat = warm.Submit(reordered).get();
    ASSERT_TRUE(reference.ok() && first.ok() && repeat.ok());
    EXPECT_EQ(first.value().stats.algo.answer_cache_misses, 1u);
    EXPECT_GT(first.value().stats.nodes_settled, 0u);

    const KpjResult& hit = repeat.value();
    EXPECT_TRUE(hit.status.ok());
    EXPECT_EQ(hit.stats.algo.answer_cache_hits, 1u);
    EXPECT_EQ(hit.stats.algo.answer_cache_misses, 0u);
    EXPECT_EQ(hit.stats.nodes_settled, 0u);
    EXPECT_EQ(hit.stats.shortest_path_computations, 0u);
    EXPECT_EQ(hit.stats.algo.node_expansions, 0u);
    EXPECT_EQ(NodesOf(repeat), NodesOf(reference));
    EXPECT_EQ(NodesOf(first), NodesOf(reference));

    // A smaller k over the same source set is the cached answer's prefix.
    KpjQuery smaller = reordered;
    smaller.k = 3;
    Result<KpjResult> prefix = warm.Submit(smaller).get();
    ExpectServedWhole(prefix);
    EXPECT_EQ(NodesOf(prefix), NodesOf(cold.Submit(smaller).get()));
  }
}

TEST(AnswerCacheBudgetTest, AnswerLargerThanAShardIsNotInserted) {
  // The smallest budget the engine takes (1 MiB, whatever
  // KPJ_CACHE_TEST_MB says) has shards of at most 128 KiB; eight paths of
  // 6001 nodes are ~188 KiB of node ids alone.
  constexpr NodeId kDiamonds = 3000;
  KpjInstance instance =
      KpjInstance::Wrap(DiamondChain(kDiamonds), Permutation()).value();
  KpjEngine engine(instance, EngineOptions(Algorithm::kIterBoundSptI, 1));
  KpjQuery large;
  large.sources = {0};
  large.targets = {3 * kDiamonds};
  large.k = 8;

  Result<KpjResult> first = engine.Submit(large).get();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().paths.size(), large.k);
  size_t node_bytes = 0;
  for (const Path& p : first.value().paths) {
    node_bytes += p.nodes.size() * sizeof(NodeId);
  }
  ASSERT_GT(node_bytes, (size_t{1} << 20) / 8);
  const uint64_t insertions = engine.MetricsSnapshot().spt_cache_insertions;

  Result<KpjResult> repeat = engine.Submit(large).get();
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat.value().stats.algo.answer_cache_hits, 0u);
  EXPECT_EQ(repeat.value().stats.algo.answer_cache_misses, 1u);
  EXPECT_EQ(NodesOf(repeat), NodesOf(first));
  // The repeat re-adopted its SPT state and inserted nothing new.
  EXPECT_EQ(engine.MetricsSnapshot().spt_cache_insertions, insertions);

  // A one-path answer on the same engine fits and is served.
  large.k = 1;
  ASSERT_TRUE(engine.Submit(large).get().ok());
  EXPECT_EQ(engine.Submit(large).get().value().stats.algo.answer_cache_hits,
            1u);
}

TEST_F(AnswerCacheTest, HitsDoNotFeedThePlanner) {
  const KpjQuery query = Query();
  KpjEngineOptions options = EngineOptions(Algorithm::kAuto, 16);

  // Pinned: every decision is a pure function of the query, so the repeat
  // runs the same solver and is served whole, with the decision still
  // counted and reported.
  KpjEngine pinned(*instance_, options);
  pinned.planner().PinProfile(PlannerProfile::StaticPrior());
  Result<KpjResult> first = pinned.Submit(query).get();
  Result<KpjResult> repeat = pinned.Submit(query).get();
  ASSERT_TRUE(first.ok() && repeat.ok());
  EXPECT_EQ(repeat.value().algorithm_used, first.value().algorithm_used);
  EXPECT_EQ(repeat.value().stats.algo.answer_cache_hits, 1u);
  EXPECT_STRNE(repeat.value().planner_reason, "");
  uint64_t decisions = 0;
  for (uint64_t c : pinned.MetricsSnapshot().planner_choice) decisions += c;
  EXPECT_EQ(decisions, 2u);

  // Live: the miss is a latency sample, the hit is not.
  KpjEngine live(*instance_, options);
  const PlannerProfile before = live.planner().ProfileSnapshot();
  ASSERT_TRUE(live.Submit(query).get().ok());
  const PlannerProfile sampled = live.planner().ProfileSnapshot();
  EXPECT_NE(sampled, before);
  Result<KpjResult> hit = live.Submit(query).get();
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit.value().stats.algo.answer_cache_hits, 1u);
  EXPECT_EQ(live.planner().ProfileSnapshot(), sampled);
}

}  // namespace
}  // namespace kpj
