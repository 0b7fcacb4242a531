// The cross-query reuse cache: GDSF eviction order and byte accounting,
// epoch invalidation, concurrent use, and set-bound entries — the cached
// set-bound construction being byte-identical to the plain one.

#include "core/spt_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <span>
#include <thread>
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
  key.sources = {source};
  key.targets = {target};
  return key;
}

SptCacheValue RootValue(NodeId source, NodeId target, size_t padding = 0,
                        uint64_t cost = 1) {
  auto path = std::make_shared<CachedRootPath>();
  path->found = true;
  path->suffix = {source, target};
  path->suffix.resize(2 + padding, target);  // Inflate the footprint.
  path->suffix_length = 1;
  SptCacheValue value;
  value.root_path = std::move(path);
  value.cost = cost;
  return value;
}

// Root-path keys (epoch 1, target = source + 1) that all land in one shard,
// so they compete for one budget and their eviction order is observable.
std::vector<SptCacheKey> SameShardKeys(size_t count) {
  std::vector<SptCacheKey> keys;
  const size_t shard = SptCache::ShardOf(RootKey(1, 0, 1));
  for (NodeId s = 0; keys.size() < count; ++s) {
    SptCacheKey key = RootKey(1, s, s + 1);
    if (SptCache::ShardOf(key) == shard) keys.push_back(std::move(key));
  }
  return keys;
}

// A budget whose shards hold exactly `entries` root values of `padding`.
size_t BudgetFor(size_t entries, size_t padding) {
  SptCache probe(1 << 20);
  probe.Insert(RootKey(1, 0, 1), RootValue(0, 1, padding));
  const size_t entry_bytes = probe.StatsSnapshot().bytes;
  return SptCache::kNumShards * (entries * entry_bytes + entry_bytes / 2);
}

SptCacheValue ValueFor(const SptCacheKey& key, size_t padding,
                       uint64_t cost) {
  return RootValue(key.sources.front(), key.targets.front(), padding, cost);
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
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(SptCacheTest, KeysDifferingInAnyFieldDoNotCollide) {
  SptCache cache(1 << 20);
  cache.Insert(RootKey(1, 0, 9), RootValue(0, 9));
  // Same (source, target), different epoch / kind / config / targets /
  // algorithm: all misses — equality is exact, hashing only places the
  // bucket. (No key holds k: one answer entry serves every k it covers.)
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
  EXPECT_TRUE(cache.Lookup(RootKey(1, 0, 9)).has_value());

  // Set-bound keys: epoch, direction and set each tell them apart, and one
  // set keyed in both directions holds two entries.
  const std::vector<NodeId> set = {5, 17, 40};
  const std::vector<NodeId> other_set = {5, 17, 41};
  SptCacheValue to_set;
  to_set.set_bound = std::make_shared<const LandmarkSetAggregates>();
  cache.Insert(SetBoundKey(1, BoundDirection::kToSet, set), to_set);
  EXPECT_FALSE(
      cache.Lookup(SetBoundKey(2, BoundDirection::kToSet, set)).has_value());
  EXPECT_FALSE(cache.Lookup(SetBoundKey(1, BoundDirection::kFromSet, set))
                   .has_value());
  EXPECT_FALSE(cache.Lookup(SetBoundKey(1, BoundDirection::kToSet, other_set))
                   .has_value());
  SptCacheValue from_set;
  from_set.set_bound = std::make_shared<const LandmarkSetAggregates>();
  cache.Insert(SetBoundKey(1, BoundDirection::kFromSet, set), from_set);
  EXPECT_EQ(cache.Lookup(SetBoundKey(1, BoundDirection::kToSet, set))
                ->set_bound,
            to_set.set_bound);
  EXPECT_EQ(cache.Lookup(SetBoundKey(1, BoundDirection::kFromSet, set))
                ->set_bound,
            from_set.set_bound);
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

TEST(SptCacheTest, HighCostPerByteOutlivesNewerCheapEntries) {
  // GDSF: an old entry whose hit saves much work per byte stays resident
  // while newer cheap entries stream through the shard and are evicted.
  constexpr size_t kPadding = 256;
  SptCache cache(BudgetFor(4, kPadding));
  std::vector<SptCacheKey> keys = SameShardKeys(40);
  cache.Insert(keys[0], ValueFor(keys[0], kPadding, /*cost=*/1000));
  for (size_t i = 1; i < keys.size(); ++i) {
    cache.Insert(keys[i], ValueFor(keys[i], kPadding, /*cost=*/1));
  }
  EXPECT_TRUE(cache.Contains(keys[0]));
  EXPECT_FALSE(cache.Contains(keys[1]));  // Newer, but cheap: evicted.
  EXPECT_TRUE(cache.Contains(keys.back()));
  SptCacheStats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, keys.size() - 4);
}

TEST(SptCacheTest, UnusedCostlyEntriesAgeOut) {
  // Each eviction raises the shard's inflation, so a costly entry nobody
  // asks for again sinks below the newer cheap ones and is evicted.
  constexpr size_t kPadding = 256;
  SptCache cache(BudgetFor(4, kPadding));
  std::vector<SptCacheKey> keys = SameShardKeys(400);
  cache.Insert(keys[0], ValueFor(keys[0], kPadding, /*cost=*/50));
  for (size_t i = 1; i < keys.size(); ++i) {
    cache.Insert(keys[i], ValueFor(keys[i], kPadding, /*cost=*/1));
  }
  EXPECT_FALSE(cache.Contains(keys[0]));
  EXPECT_TRUE(cache.Contains(keys.back()));
}

TEST(SptCacheTest, FrequentHitsOutweighRecency) {
  // Each hit adds the entry's cost per byte again: an entry hit ten times
  // outlives a later one that was never hit, where LRU would evict it.
  constexpr size_t kPadding = 256;
  SptCache cache(BudgetFor(4, kPadding));
  std::vector<SptCacheKey> keys = SameShardKeys(12);
  cache.Insert(keys[0], ValueFor(keys[0], kPadding, 1));
  for (int hit = 0; hit < 10; ++hit) {
    ASSERT_TRUE(cache.Lookup(keys[0]).has_value());
  }
  for (size_t i = 1; i < keys.size(); ++i) {
    cache.Insert(keys[i], ValueFor(keys[i], kPadding, 1));
  }
  EXPECT_TRUE(cache.Contains(keys[0]));
  EXPECT_FALSE(cache.Contains(keys[1]));
}

TEST(SptCacheTest, EqualCostPerByteEvictsOldestFirst) {
  // With every entry worth the same per byte the order is LRU: each
  // eviction takes the oldest resident entry.
  constexpr size_t kPadding = 256;
  SptCache cache(BudgetFor(4, kPadding));
  std::vector<SptCacheKey> keys = SameShardKeys(12);
  for (size_t i = 0; i < keys.size(); ++i) {
    cache.Insert(keys[i], ValueFor(keys[i], kPadding, /*cost=*/7));
    for (size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(cache.Contains(keys[j]), j + 4 > i)
          << "after insert " << i << ", key " << j;
    }
  }
}

TEST(SptCacheTest, ReinsertReranksWithoutLeakingBytes) {
  constexpr size_t kPadding = 256;
  std::vector<SptCacheKey> keys = SameShardKeys(5);

  // Replacing a value charges the new footprint and frees the old one.
  SptCache sized(1 << 20);
  sized.Insert(keys[0], ValueFor(keys[0], kPadding, 1));
  const size_t big_bytes = sized.StatsSnapshot().bytes;
  SptCache replaced(1 << 20);
  replaced.Insert(keys[0], ValueFor(keys[0], 0, 1));
  replaced.Insert(keys[0], ValueFor(keys[0], kPadding, 1));
  replaced.Insert(keys[0], ValueFor(keys[0], kPadding, 1));
  SptCacheStats stats = replaced.StatsSnapshot();
  EXPECT_EQ(stats.bytes, big_bytes);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 3u);

  // A re-insert ranks the entry afresh: keys[0] becomes the most recent
  // of four equal entries, so the next eviction takes keys[1].
  SptCache cache(BudgetFor(4, kPadding));
  for (size_t i = 0; i < 4; ++i) {
    cache.Insert(keys[i], ValueFor(keys[i], kPadding, 1));
  }
  const size_t full_bytes = cache.StatsSnapshot().bytes;
  cache.Insert(keys[0], ValueFor(keys[0], kPadding, 1));
  EXPECT_EQ(cache.StatsSnapshot().bytes, full_bytes);
  EXPECT_EQ(cache.StatsSnapshot().evictions, 0u);
  cache.Insert(keys[4], ValueFor(keys[4], kPadding, 1));
  EXPECT_TRUE(cache.Contains(keys[0]));
  EXPECT_FALSE(cache.Contains(keys[1]));
  EXPECT_EQ(cache.StatsSnapshot().bytes, full_bytes);
}

TEST(SptCacheTest, OversizedEntryIsNotInsertedAndEvictsNothing) {
  // An entry larger than one shard's whole budget, of any kind, is not
  // inserted: resident, it would flush every other entry of its shard
  // whatever their rank. Here a cheap SPT_I snapshot meets three costly
  // root paths in their shard.
  constexpr size_t kPadding = 256;
  const size_t budget = BudgetFor(4, kPadding);
  SptCache cache(budget);
  std::vector<SptCacheKey> keys = SameShardKeys(3);
  for (const SptCacheKey& key : keys) {
    cache.Insert(key, ValueFor(key, kPadding, /*cost=*/1000));
  }
  SptCacheKey snapshot_key = keys[0];
  snapshot_key.kind = SptCacheKind::kForwardSpti;
  for (NodeId s = 0; SptCache::ShardOf(snapshot_key) !=
                     SptCache::ShardOf(keys[0]);
       ++s) {
    snapshot_key.sources = {s};
  }
  auto snapshot = std::make_shared<SearchSnapshot>();
  snapshot->touched.assign(budget / SptCache::kNumShards, 0);
  SptCacheValue oversized;
  oversized.snapshot = std::move(snapshot);
  oversized.settled_targets = std::make_shared<const std::vector<NodeId>>();
  cache.Insert(snapshot_key, oversized);

  EXPECT_FALSE(cache.Contains(snapshot_key));
  for (const SptCacheKey& key : keys) EXPECT_TRUE(cache.Contains(key));
  SptCacheStats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.insertions, keys.size());
  EXPECT_EQ(stats.entries, keys.size());
}

TEST(SptCacheTest, AnswerBytesTrackAnswerEntries) {
  SptCache cache(1 << 20);
  cache.Insert(RootKey(1, 0, 9), RootValue(0, 9));
  EXPECT_EQ(cache.StatsSnapshot().answer_bytes, 0u);
  SptCacheKey answer_key = RootKey(1, 0, 9);
  answer_key.kind = SptCacheKind::kAnswer;
  SptCacheValue answer;
  answer.answer = std::make_shared<const std::vector<Path>>(2);
  cache.Insert(answer_key, answer);
  SptCacheStats stats = cache.StatsSnapshot();
  EXPECT_GT(stats.answer_bytes, 0u);
  EXPECT_LT(stats.answer_bytes, stats.bytes);
  cache.PurgeOlderEpochs(2);
  stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.answer_bytes, 0u);
  EXPECT_EQ(stats.bytes, 0u);
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

TEST(SptCacheTest, PurgeEverythingThenRefillKeepsEvictionIndexConsistent) {
  constexpr size_t kPadding = 256;
  SptCache cache(BudgetFor(4, kPadding));
  for (NodeId i = 0; i < 100; ++i) {
    cache.Insert(RootKey(1, i, i + 1), RootValue(i, i + 1, kPadding, i + 1));
    cache.Lookup(RootKey(1, i / 2, i / 2 + 1));
  }
  ASSERT_GT(cache.StatsSnapshot().evictions, 0u);
  cache.PurgeOlderEpochs(2);
  SptCacheStats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);

  // The same keys under the new epoch: inserts, hits and evictions all
  // work on the emptied shards, and the accounting adds up again.
  cache.ResetStats();
  size_t hits = 0;
  for (NodeId i = 0; i < 100; ++i) {
    cache.Insert(RootKey(2, i, i + 1), RootValue(i, i + 1, kPadding));
    if (cache.Lookup(RootKey(2, i, i + 1)).has_value()) ++hits;
    EXPECT_FALSE(cache.Contains(RootKey(1, i, i + 1)));
  }
  EXPECT_EQ(hits, 100u);
  stats = cache.StatsSnapshot();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.entries + stats.evictions, 100u);
  EXPECT_LE(stats.bytes, cache.budget_bytes());
}

TEST(SptCacheTest, ConcurrentInsertLookupPurgeStayConsistent) {
  // Workers insert and look up over a small key space under a tight budget
  // while another thread bumps the epoch and purges: run under
  // ThreadSanitizer (scripts/check.sh --tsan) this checks the shard
  // locking; the workers count their own hits and misses, and the cache's
  // insertion and eviction totals add up against them.
  constexpr size_t kPadding = 64;
  constexpr int kWorkers = 3;
  constexpr int kOps = 2000;
  SptCache cache(BudgetFor(6, kPadding));
  constexpr int kPurges = 20;
  std::atomic<uint64_t> epoch{1};
  std::atomic<int> hits{0};
  std::atomic<int> misses{0};
  std::atomic<int> ops_done{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kOps; ++i, ops_done.fetch_add(1)) {
        const uint64_t e = epoch.load();
        const NodeId s = static_cast<NodeId>((i * 7 + w) % 97);
        SptCacheKey key = RootKey(e, s, s + 1);
        if (std::optional<SptCacheValue> hit = cache.Lookup(key)) {
          EXPECT_EQ(hit->root_path->suffix.front(), s);
          hits.fetch_add(1);
        } else {
          misses.fetch_add(1);
          cache.Insert(key, RootValue(s, s + 1, kPadding, s + 1));
        }
      }
    });
  }
  threads.emplace_back([&] {
    // Spread the purges over the workers' run so they interleave.
    for (int round = 1; round <= kPurges; ++round) {
      while (ops_done.load() < round * kWorkers * kOps / (kPurges + 1)) {
        std::this_thread::yield();
      }
      cache.PurgeOlderEpochs(epoch.fetch_add(1) + 1);
    }
  });
  for (std::thread& t : threads) t.join();

  SptCacheStats stats = cache.StatsSnapshot();
  EXPECT_EQ(hits.load() + misses.load(), kWorkers * kOps);
  EXPECT_GT(hits.load(), 0);
  // Every miss inserts; two workers missing one key replace, not add.
  EXPECT_EQ(stats.insertions, static_cast<uint64_t>(misses.load()));
  EXPECT_LE(stats.entries + stats.evictions, stats.insertions);
  EXPECT_LE(stats.bytes, cache.budget_bytes());
}

TEST(SptCacheTest, ValueSurvivesEviction) {
  // shared_ptr semantics: an adopted value stays alive after the cache
  // drops the entry.
  SptCache cache(64 << 10);
  SptCacheKey key = RootKey(1, 0, 9);
  cache.Insert(key, RootValue(0, 9, 512));
  std::optional<SptCacheValue> adopted = cache.Lookup(key);
  ASSERT_TRUE(adopted.has_value());
  for (NodeId i = 1; i < 256; ++i) {
    cache.Insert(RootKey(1, i, i + 1), RootValue(i, i + 1, 512));
  }
  ASSERT_FALSE(cache.Contains(key));
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
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 1u);  // Contents untouched.
  EXPECT_TRUE(cache.Lookup(key).has_value());
}

// ---------------------------------------------------------- set-bound entries

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

  SptCacheValue BoundValue(std::span<const NodeId> set,
                           BoundDirection direction) const {
    SptCacheValue value;
    value.set_bound =
        LandmarkSetBound::ComputeAggregates(landmarks_, set, direction);
    return value;
  }

  Graph graph_;
  Graph reverse_;
  LandmarkIndex landmarks_;
};

TEST_F(BoundCacheTest, LookupMissInsertHit) {
  SptCache cache(1 << 20);
  std::vector<NodeId> set = {5, 17, 40};
  const SptCacheKey key = SetBoundKey(1, BoundDirection::kToSet, set);
  EXPECT_FALSE(cache.Lookup(key).has_value());
  SptCacheValue value = BoundValue(set, BoundDirection::kToSet);
  cache.Insert(key, value);

  std::optional<SptCacheValue> hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->set_bound, value.set_bound);
  EXPECT_EQ(hit->cost, 1u);
  SptCacheStats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.answer_bytes, 0u);
}

TEST_F(BoundCacheTest, PurgeOlderEpochs) {
  SptCache cache(1 << 20);
  std::vector<NodeId> set = {5, 17, 40};
  cache.Insert(SetBoundKey(1, BoundDirection::kToSet, set),
               BoundValue(set, BoundDirection::kToSet));
  cache.Insert(SetBoundKey(3, BoundDirection::kFromSet, set),
               BoundValue(set, BoundDirection::kFromSet));
  cache.PurgeOlderEpochs(3);
  EXPECT_FALSE(
      cache.Lookup(SetBoundKey(1, BoundDirection::kToSet, set)).has_value());
  EXPECT_TRUE(cache.Lookup(SetBoundKey(3, BoundDirection::kFromSet, set))
                  .has_value());
  EXPECT_EQ(cache.StatsSnapshot().evictions, 1u);
}

TEST_F(BoundCacheTest, EvictsUnderByteBudget) {
  // Shards that hold about two three-node set-bound entries each.
  std::vector<NodeId> probe_set = {0, 3, 8};
  SptCache probe(1 << 20);
  probe.Insert(SetBoundKey(1, BoundDirection::kToSet, probe_set),
               BoundValue(probe_set, BoundDirection::kToSet));
  const size_t entry_bytes = probe.StatsSnapshot().bytes;
  SptCache cache(SptCache::kNumShards * (2 * entry_bytes + entry_bytes / 2));
  for (NodeId i = 0; i + 8 < 64; ++i) {
    std::vector<NodeId> set = {i, static_cast<NodeId>(i + 3),
                               static_cast<NodeId>(i + 8)};
    cache.Insert(SetBoundKey(1, BoundDirection::kToSet, set),
                 BoundValue(set, BoundDirection::kToSet));
  }
  SptCacheStats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.insertions, 56u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 56u);
  EXPECT_LE(stats.bytes, cache.budget_bytes());
}

TEST_F(BoundCacheTest, CheapSetBoundIsEvictedBeforeCostlierAnswer) {
  // A set-bound entry costs 1 (aggregation settles no node); an answer
  // costs the nodes its solver settled. In a shard with room for the
  // answer and one set bound, a second set bound evicts the first, not the
  // older answer, as LRU would.
  SptCacheKey answer_key = RootKey(1, 0, 9);
  answer_key.kind = SptCacheKind::kAnswer;
  SptCacheValue answer;
  answer.answer = std::make_shared<const std::vector<Path>>(2);
  answer.cost = 100;
  const size_t shard = SptCache::ShardOf(answer_key);
  std::vector<std::vector<NodeId>> sets;
  for (NodeId x = 0; sets.size() < 2; ++x) {
    std::vector<NodeId> set = {x};
    if (SptCache::ShardOf(SetBoundKey(1, BoundDirection::kToSet, set)) ==
        shard) {
      sets.push_back(set);
    }
  }
  SptCache probe(1 << 20);
  probe.Insert(answer_key, answer);
  const size_t answer_bytes = probe.StatsSnapshot().bytes;
  probe.Insert(SetBoundKey(1, BoundDirection::kToSet, sets[0]),
               BoundValue(sets[0], BoundDirection::kToSet));
  const size_t bound_bytes = probe.StatsSnapshot().bytes - answer_bytes;

  SptCache cache(SptCache::kNumShards *
                 (answer_bytes + bound_bytes + bound_bytes / 2));
  cache.Insert(answer_key, answer);
  for (const std::vector<NodeId>& set : sets) {
    cache.Insert(SetBoundKey(1, BoundDirection::kToSet, set),
                 BoundValue(set, BoundDirection::kToSet));
  }
  EXPECT_TRUE(cache.Contains(answer_key));
  EXPECT_FALSE(
      cache.Contains(SetBoundKey(1, BoundDirection::kToSet, sets[0])));
  EXPECT_TRUE(cache.Contains(SetBoundKey(1, BoundDirection::kToSet, sets[1])));
  EXPECT_EQ(cache.StatsSnapshot().evictions, 1u);
}

TEST_F(BoundCacheTest, CachedSetBoundMatchesPlainConstruction) {
  // The whole point of the cache: the served bound must be byte-identical
  // to a freshly constructed one, hit or miss, for every node.
  SptCache cache(1 << 20);
  const QueryCacheContext context{&cache, /*epoch=*/1};
  std::vector<NodeId> set = {5, 17, 40};
  AlgoStats algo;
  for (int round = 0; round < 2; ++round) {  // Round 0 misses, 1 hits.
    const LandmarkSetBound cached =
        MakeCachedSetBound(&landmarks_, set, BoundDirection::kToSet,
                           /*scoring_node=*/12, /*max_active=*/2, &context,
                           &algo);
    LandmarkSetBound plain(&landmarks_, set, BoundDirection::kToSet, 12, 2);
    for (NodeId u = 0; u < graph_.NumNodes(); ++u) {
      ASSERT_EQ(cached.Estimate(u), plain.Estimate(u))
          << "round " << round << " node " << u;
    }
  }
  EXPECT_EQ(algo.bound_cache_misses, 1u);
  EXPECT_EQ(algo.bound_cache_hits, 1u);
  EXPECT_EQ(cache.StatsSnapshot().insertions, 1u);
  // Aggregation settles no node, so the entry ranks at the minimum cost.
  std::optional<SptCacheValue> entry =
      cache.Lookup(SetBoundKey(1, BoundDirection::kToSet, set));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->cost, 1u);

  // Null cache degrades to direct construction and counts nothing.
  AlgoStats no_cache;
  const LandmarkSetBound uncached = MakeCachedSetBound(
      &landmarks_, set, BoundDirection::kToSet, 12, 2, nullptr, &no_cache);
  LandmarkSetBound plain(&landmarks_, set, BoundDirection::kToSet, 12, 2);
  for (NodeId u = 0; u < graph_.NumNodes(); ++u) {
    ASSERT_EQ(uncached.Estimate(u), plain.Estimate(u));
  }
  EXPECT_EQ(no_cache.bound_cache_misses, 0u);
  EXPECT_EQ(no_cache.bound_cache_hits, 0u);
}

TEST_F(BoundCacheTest, OneNodeSetBoundBypassesTheCache) {
  // A one-node set's aggregates are that node's table rows: built
  // directly, never looked up, inserted or counted, in either direction.
  SptCache cache(1 << 20);
  const QueryCacheContext context{&cache, /*epoch=*/1};
  const std::vector<NodeId> set = {17};
  AlgoStats algo;
  for (BoundDirection direction :
       {BoundDirection::kToSet, BoundDirection::kFromSet}) {
    for (int round = 0; round < 2; ++round) {
      const LandmarkSetBound cached =
          MakeCachedSetBound(&landmarks_, set, direction,
                             /*scoring_node=*/12, /*max_active=*/2, &context,
                             &algo);
      LandmarkSetBound plain(&landmarks_, set, direction, 12, 2);
      for (NodeId u = 0; u < graph_.NumNodes(); ++u) {
        ASSERT_EQ(cached.Estimate(u), plain.Estimate(u))
            << "round " << round << " node " << u;
      }
    }
    EXPECT_FALSE(cache.Contains(SetBoundKey(1, direction, set)));
  }
  EXPECT_EQ(algo.bound_cache_misses, 0u);
  EXPECT_EQ(algo.bound_cache_hits, 0u);
  const SptCacheStats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

}  // namespace
}  // namespace kpj
