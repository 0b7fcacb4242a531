// Cross-query reuse caches: LRU/byte accounting, epoch invalidation, and
// the cached-set-bound construction being byte-identical to the plain one.

#include "core/spt_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "graph/graph_builder.h"
#include "index/landmark_index.h"
#include "index/target_bound.h"

namespace kpj {
namespace {

SptCacheKey RootKey(uint64_t epoch, NodeId source, NodeId target) {
  SptCacheKey key;
  key.kind = SptCacheKind::kRootPath;
  key.epoch = epoch;
  key.source = source;
  key.targets = {target};
  return key;
}

SptCacheValue RootValue(NodeId source, NodeId target, size_t padding = 0) {
  auto path = std::make_shared<CachedRootPath>();
  path->found = true;
  path->suffix = {source, target};
  path->suffix.resize(2 + padding, target);  // Inflate the footprint.
  path->suffix_length = 1;
  SptCacheValue value;
  value.root_path = std::move(path);
  return value;
}

TEST(SptCacheTest, MissThenInsertThenHit) {
  SptCache cache(1 << 20);
  SptCacheKey key = RootKey(1, 0, 9);
  EXPECT_FALSE(cache.Lookup(key).has_value());
  cache.Insert(key, RootValue(0, 9));

  std::optional<SptCacheValue> hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  ASSERT_NE(hit->root_path, nullptr);
  EXPECT_TRUE(hit->root_path->found);
  EXPECT_EQ(hit->root_path->suffix_length, 1u);

  SptCacheStats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(SptCacheTest, KeysDifferingInAnyFieldDoNotCollide) {
  SptCache cache(1 << 20);
  cache.Insert(RootKey(1, 0, 9), RootValue(0, 9));
  // Same (source, target), different epoch / kind / config / targets /
  // algorithm / k: all misses — equality is exact, hashing only places
  // the bucket.
  EXPECT_FALSE(cache.Lookup(RootKey(2, 0, 9)).has_value());
  EXPECT_FALSE(cache.Lookup(RootKey(1, 1, 9)).has_value());
  EXPECT_FALSE(cache.Lookup(RootKey(1, 0, 8)).has_value());
  SptCacheKey other_kind = RootKey(1, 0, 9);
  other_kind.kind = SptCacheKind::kAnswer;
  EXPECT_FALSE(cache.Lookup(other_kind).has_value());
  SptCacheKey other_config = RootKey(1, 0, 9);
  other_config.config = SptCacheConfig(true, 4);
  EXPECT_FALSE(cache.Lookup(other_config).has_value());
  SptCacheKey other_algorithm = RootKey(1, 0, 9);
  other_algorithm.algorithm = Algorithm::kDA;
  EXPECT_FALSE(cache.Lookup(other_algorithm).has_value());
  SptCacheKey other_k = RootKey(1, 0, 9);
  other_k.k = 8;
  EXPECT_FALSE(cache.Lookup(other_k).has_value());
  EXPECT_TRUE(cache.Lookup(RootKey(1, 0, 9)).has_value());
}

TEST(SptCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  // ~4 KiB per entry against a 64 KiB budget split over 8 shards: a few
  // hundred inserts must evict, and resident bytes must respect the
  // budget once every shard has seen more than one entry.
  SptCache cache(64 << 10);
  const size_t kEntries = 256;
  for (NodeId i = 0; i < kEntries; ++i) {
    cache.Insert(RootKey(1, i, i + 1), RootValue(i, i + 1, 1024));
  }
  SptCacheStats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.insertions, kEntries);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, kEntries);
  // Each shard keeps at most one oversized straggler past its budget.
  EXPECT_LE(stats.bytes, cache.budget_bytes() + 8 * 8 * 1024);
}

TEST(SptCacheTest, LruRefreshOnLookupProtectsHotEntries) {
  SptCache cache(32 << 10);
  SptCacheKey hot = RootKey(1, 1000, 1001);
  cache.Insert(hot, RootValue(1000, 1001, 256));
  for (NodeId i = 0; i < 512; ++i) {
    // Keep touching the hot entry while cold ones stream through.
    ASSERT_TRUE(cache.Lookup(hot).has_value()) << "evicted after " << i;
    cache.Insert(RootKey(1, i, i + 1), RootValue(i, i + 1, 256));
  }
  EXPECT_TRUE(cache.Lookup(hot).has_value());
  EXPECT_GT(cache.StatsSnapshot().evictions, 0u);
}

TEST(SptCacheTest, PurgeOlderEpochsDropsStaleKeepsCurrent) {
  SptCache cache(1 << 20);
  cache.Insert(RootKey(1, 0, 9), RootValue(0, 9));
  cache.Insert(RootKey(1, 1, 9), RootValue(1, 9));
  cache.Insert(RootKey(2, 2, 9), RootValue(2, 9));
  cache.PurgeOlderEpochs(2);

  EXPECT_FALSE(cache.Lookup(RootKey(1, 0, 9)).has_value());
  EXPECT_FALSE(cache.Lookup(RootKey(1, 1, 9)).has_value());
  EXPECT_TRUE(cache.Lookup(RootKey(2, 2, 9)).has_value());
  SptCacheStats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST(SptCacheTest, ValueSurvivesEviction) {
  // shared_ptr semantics: an adopted value stays alive after the cache
  // drops the entry.
  SptCache cache(8 << 10);
  SptCacheKey key = RootKey(1, 0, 9);
  cache.Insert(key, RootValue(0, 9, 512));
  std::optional<SptCacheValue> adopted = cache.Lookup(key);
  ASSERT_TRUE(adopted.has_value());
  for (NodeId i = 1; i < 256; ++i) {
    cache.Insert(RootKey(1, i, i + 1), RootValue(i, i + 1, 512));
  }
  EXPECT_EQ(adopted->root_path->suffix.front(), 0u);
  EXPECT_EQ(adopted->root_path->suffix_length, 1u);
}

TEST(SptCacheTest, ResetStatsKeepsContents) {
  SptCache cache(1 << 20);
  SptCacheKey key = RootKey(1, 0, 9);
  cache.Insert(key, RootValue(0, 9));
  cache.Lookup(key);
  cache.ResetStats();
  SptCacheStats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 1u);  // Contents untouched.
  EXPECT_TRUE(cache.Lookup(key).has_value());
}

// ------------------------------------------------------ target-bound cache

class BoundCacheTest : public ::testing::Test {
 protected:
  BoundCacheTest() {
    GraphBuilder b(64);
    for (NodeId v = 0; v + 1 < 64; ++v) {
      b.AddBidirectional(v, v + 1, (v % 7) + 1);
    }
    b.AddBidirectional(0, 63, 5);
    graph_ = b.Build();
    reverse_ = graph_.Reverse();
    LandmarkIndexOptions opt;
    opt.num_landmarks = 4;
    landmarks_ = LandmarkIndex::Build(graph_, reverse_, opt);
  }

  Graph graph_;
  Graph reverse_;
  LandmarkIndex landmarks_;
};

TEST_F(BoundCacheTest, LookupMissInsertHit) {
  TargetBoundCache cache(1 << 20);
  const uint64_t id = landmarks_.Identity();
  std::vector<NodeId> set = {5, 17, 40};
  EXPECT_EQ(cache.Lookup(id, 1, BoundDirection::kToSet, set), nullptr);
  auto agg =
      LandmarkSetBound::ComputeAggregates(landmarks_, set,
                                          BoundDirection::kToSet);
  cache.Insert(id, 1, BoundDirection::kToSet, set, agg);

  EXPECT_EQ(cache.Lookup(id, 1, BoundDirection::kToSet, set), agg);
  // Any key component mismatch misses.
  EXPECT_EQ(cache.Lookup(id, 2, BoundDirection::kToSet, set), nullptr);
  EXPECT_EQ(cache.Lookup(id, 1, BoundDirection::kFromSet, set), nullptr);
  std::vector<NodeId> other = {5, 17, 41};
  EXPECT_EQ(cache.Lookup(id, 1, BoundDirection::kToSet, other), nullptr);
  // A different index identity misses even with everything else equal.
  EXPECT_EQ(cache.Lookup(id ^ 1, 1, BoundDirection::kToSet, set), nullptr);

  TargetBoundCacheStats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(BoundCacheTest, PurgeOlderEpochs) {
  TargetBoundCache cache(1 << 20);
  const uint64_t id = landmarks_.Identity();
  std::vector<NodeId> set = {5, 17, 40};
  auto agg = LandmarkSetBound::ComputeAggregates(landmarks_, set,
                                                 BoundDirection::kToSet);
  cache.Insert(id, 1, BoundDirection::kToSet, set, agg);
  cache.Insert(id, 3, BoundDirection::kFromSet, set, agg);
  cache.PurgeOlderEpochs(3);
  EXPECT_EQ(cache.Lookup(id, 1, BoundDirection::kToSet, set), nullptr);
  EXPECT_NE(cache.Lookup(id, 3, BoundDirection::kFromSet, set), nullptr);
  EXPECT_EQ(cache.StatsSnapshot().evictions, 1u);
}

TEST_F(BoundCacheTest, EvictsUnderByteBudget) {
  TargetBoundCache cache(2 << 10);
  const uint64_t id = landmarks_.Identity();
  for (NodeId i = 0; i + 8 < 64; ++i) {
    std::vector<NodeId> set = {i, static_cast<NodeId>(i + 3),
                               static_cast<NodeId>(i + 8)};
    cache.Insert(id, 1, BoundDirection::kToSet, set,
                 LandmarkSetBound::ComputeAggregates(
                     landmarks_, set, BoundDirection::kToSet));
  }
  TargetBoundCacheStats stats = cache.StatsSnapshot();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 56u);
}

TEST_F(BoundCacheTest, CachedSetBoundMatchesPlainConstruction) {
  // The whole point of the cache: the served bound must be byte-identical
  // to a freshly constructed one, hit or miss, for every node.
  TargetBoundCache cache(1 << 20);
  std::vector<NodeId> set = {5, 17, 40};
  AlgoStats algo;
  for (int round = 0; round < 2; ++round) {  // Round 0 misses, 1 hits.
    std::unique_ptr<Heuristic> cached =
        MakeCachedSetBound(&landmarks_, set, BoundDirection::kToSet,
                           /*scoring_node=*/12, /*max_active=*/2, &cache,
                           /*epoch=*/1, &algo);
    LandmarkSetBound plain(&landmarks_, set, BoundDirection::kToSet, 12, 2);
    for (NodeId u = 0; u < graph_.NumNodes(); ++u) {
      ASSERT_EQ(cached->Estimate(u), plain.Estimate(u))
          << "round " << round << " node " << u;
    }
  }
  EXPECT_EQ(algo.bound_cache_misses, 1u);
  EXPECT_EQ(algo.bound_cache_hits, 1u);

  // Null cache degrades to direct construction and counts nothing.
  AlgoStats no_cache;
  std::unique_ptr<Heuristic> uncached =
      MakeCachedSetBound(&landmarks_, set, BoundDirection::kToSet, 12, 2,
                         nullptr, 1, &no_cache);
  LandmarkSetBound plain(&landmarks_, set, BoundDirection::kToSet, 12, 2);
  for (NodeId u = 0; u < graph_.NumNodes(); ++u) {
    ASSERT_EQ(uncached->Estimate(u), plain.Estimate(u));
  }
  EXPECT_EQ(no_cache.bound_cache_misses, 0u);
  EXPECT_EQ(no_cache.bound_cache_hits, 0u);
}

}  // namespace
}  // namespace kpj
