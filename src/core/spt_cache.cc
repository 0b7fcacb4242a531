#include "core/spt_cache.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"

namespace kpj {

namespace {

// FNV-1a over the key's scalar fields and node lists. Only used for
// shard/bucket selection; lookups compare full keys.
inline size_t HashMix(size_t h, uint64_t value) {
  constexpr uint64_t kPrime = 1099511628211ull;
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((value >> (i * 8)) & 0xff)) * kPrime;
  }
  return h;
}

}  // namespace

size_t SptCacheKey::Hash() const {
  size_t h = 14695981039346656037ull;
  h = HashMix(h, static_cast<uint64_t>(kind));
  h = HashMix(h, epoch);
  for (NodeId s : sources) h = HashMix(h, s);
  h = HashMix(h, config);
  for (NodeId t : targets) h = HashMix(h, t);
  h = HashMix(h, static_cast<uint64_t>(algorithm));
  return h;
}

SptCacheKey SetBoundKey(uint64_t epoch, BoundDirection direction,
                        std::span<const NodeId> set) {
  SptCacheKey key;
  key.kind = SptCacheKind::kSetBound;
  key.epoch = epoch;
  (direction == BoundDirection::kToSet ? key.targets : key.sources)
      .assign(set.begin(), set.end());
  return key;
}

size_t SptCacheValue::MemoryBytes() const {
  size_t total = sizeof(SptCacheValue);
  if (full_spt != nullptr) {
    total += sizeof(SptResult) +
             full_spt->dist.capacity() * sizeof(PathLength) +
             full_spt->parent.capacity() * sizeof(NodeId);
  }
  if (snapshot != nullptr) total += snapshot->MemoryBytes();
  if (settled_targets != nullptr) {
    total += sizeof(std::vector<NodeId>) +
             settled_targets->capacity() * sizeof(NodeId);
  }
  if (root_path != nullptr) total += root_path->MemoryBytes();
  if (set_bound != nullptr) total += set_bound->MemoryBytes();
  if (answer != nullptr) {
    total += sizeof(std::vector<Path>) + answer->capacity() * sizeof(Path);
    for (const Path& path : *answer) {
      // Up to eight nodes live inline in the Path itself.
      if (path.nodes.capacity() > 8) {
        total += path.nodes.capacity() * sizeof(NodeId);
      }
    }
  }
  return total;
}

SptCache::SptCache(size_t budget_bytes)
    : budget_bytes_(budget_bytes),
      shard_budget_(budget_bytes / kNumShards) {}

size_t SptCache::EntryBytes(const SptCacheKey& key,
                            const SptCacheValue& value) {
  // The key is stored twice (order entry and index); add a flat allowance
  // for node and bucket overhead.
  return 2 * key.MemoryBytes() + value.MemoryBytes() + 128;
}

SptCache::Rank SptCache::NextRank(Shard& shard, const Entry& entry) {
  const double cost = static_cast<double>(std::max<uint64_t>(
      entry.value.cost, 1));
  return {shard.inflation + static_cast<double>(entry.freq) * cost /
                                static_cast<double>(entry.bytes),
          ++shard.clock};
}

void SptCache::Rerank(Shard& shard, Index::iterator at) {
  auto node = shard.order.extract(at->second);
  node.key() = NextRank(shard, node.mapped());
  at->second = shard.order.insert(std::move(node)).position;
}

void SptCache::Account(Shard& shard, const Entry& entry, bool add) {
  const size_t answer =
      entry.key.kind == SptCacheKind::kAnswer ? entry.bytes : 0;
  if (add) {
    shard.bytes += entry.bytes;
    shard.answer_bytes += answer;
  } else {
    shard.bytes -= entry.bytes;
    shard.answer_bytes -= answer;
  }
}

std::optional<SptCacheValue> SptCache::Lookup(const SptCacheKey& key) {
  Shard& shard = shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto at = shard.index.find(key);
  if (at == shard.index.end()) return std::nullopt;
  ++at->second->second.freq;
  Rerank(shard, at);
  return at->second->second.value;
}

bool SptCache::Contains(const SptCacheKey& key) const {
  const Shard& shard = shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.index.find(key) != shard.index.end();
}

void SptCache::Insert(SptCacheKey key, SptCacheValue value) {
  const size_t bytes = EntryBytes(key, value);
  if (bytes > shard_budget_) return;
  Shard& shard = shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto at = shard.index.find(key);
  if (at != shard.index.end()) {
    Entry& entry = at->second->second;
    Account(shard, entry, false);
    entry.value = std::move(value);
    entry.bytes = bytes;
    Account(shard, entry, true);
    Rerank(shard, at);
  } else {
    Entry entry{std::move(key), std::move(value), bytes, /*freq=*/1};
    const Rank rank = NextRank(shard, entry);
    auto it = shard.order.emplace(rank, std::move(entry)).first;
    Account(shard, it->second, true);
    at = shard.index.emplace(it->second.key, it).first;
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  const Order::iterator inserted = at->second;
  while (shard.bytes > shard_budget_ && shard.order.size() > 1) {
    auto victim = shard.order.begin();
    if (victim == inserted) ++victim;
    shard.inflation = std::max(shard.inflation, victim->first.priority);
    Account(shard, victim->second, false);
    shard.index.erase(victim->second.key);
    shard.order.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SptCache::PurgeOlderEpochs(uint64_t current_epoch) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.order.begin(); it != shard.order.end();) {
      if (it->second.key.epoch < current_epoch) {
        Account(shard, it->second, false);
        shard.index.erase(it->second.key);
        it = shard.order.erase(it);
        evictions_.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
}

SptCacheStats SptCache::StatsSnapshot() const {
  SptCacheStats stats;
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.bytes += shard.bytes;
    stats.answer_bytes += shard.answer_bytes;
    stats.entries += shard.order.size();
  }
  return stats;
}

void SptCache::ResetStats() {
  insertions_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

LandmarkSetBound MakeCachedSetBound(
    const LandmarkIndex* index, std::span<const NodeId> set,
    BoundDirection direction, NodeId scoring_node, uint32_t max_active,
    const QueryCacheContext* cache, AlgoStats* algo) {
  KPJ_CHECK(index != nullptr);
  SptCache* spt = cache != nullptr ? cache->spt : nullptr;
  std::shared_ptr<const LandmarkSetAggregates> agg;
  if (spt == nullptr || set.size() == 1) {
    agg = LandmarkSetBound::ComputeAggregates(*index, set, direction);
  } else {
    SptCacheKey key = SetBoundKey(cache->epoch, direction, set);
    if (std::optional<SptCacheValue> hit = spt->Lookup(key)) {
      if (algo != nullptr) ++algo->bound_cache_hits;
      agg = std::move(hit->set_bound);
    } else {
      if (algo != nullptr) ++algo->bound_cache_misses;
      agg = LandmarkSetBound::ComputeAggregates(*index, set, direction);
      // Aggregation settles no node: the GDSF cost stays at its floor of 1.
      SptCacheValue value;
      value.set_bound = agg;
      spt->Insert(std::move(key), std::move(value));
    }
  }
  return LandmarkSetBound(index, std::move(agg), direction, scoring_node,
                          max_active);
}

}  // namespace kpj
