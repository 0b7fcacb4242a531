#include "core/spt_cache.h"

#include <atomic>

namespace kpj {

namespace {

// FNV-1a over the key's scalar fields and target list. Only used for
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
  h = HashMix(h, source);
  h = HashMix(h, config);
  for (NodeId t : targets) h = HashMix(h, t);
  h = HashMix(h, static_cast<uint64_t>(algorithm));
  h = HashMix(h, k);
  return h;
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
  // The key is stored twice (LRU list and index); add a flat allowance for
  // node and bucket overhead.
  return 2 * key.MemoryBytes() + value.MemoryBytes() + 128;
}

SptCache::Shard& SptCache::ShardFor(const SptCacheKey& key) {
  // The bottom bits feed the unordered_map buckets; take top bits for the
  // shard so the two partitions stay independent.
  return shards_[(key.Hash() >> 56) % kNumShards];
}

std::optional<SptCacheValue> SptCache::Lookup(const SptCacheKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

bool SptCache::Contains(const SptCacheKey& key) const {
  const Shard& shard = shards_[(key.Hash() >> 56) % kNumShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.index.find(key) != shard.index.end();
}

void SptCache::Insert(SptCacheKey key, SptCacheValue value) {
  Shard& shard = ShardFor(key);
  size_t bytes = EntryBytes(key, value);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes -= EntryBytes(it->second->first, it->second->second);
    shard.bytes += bytes;
    it->second->second = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.emplace_front(std::move(key), std::move(value));
    shard.index.emplace(shard.lru.front().first, shard.lru.begin());
    shard.bytes += bytes;
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    auto& victim = shard.lru.back();
    shard.bytes -= EntryBytes(victim.first, victim.second);
    shard.index.erase(victim.first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SptCache::PurgeOlderEpochs(uint64_t current_epoch) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->first.epoch < current_epoch) {
        shard.bytes -= EntryBytes(it->first, it->second);
        shard.index.erase(it->first);
        it = shard.lru.erase(it);
        evictions_.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
}

SptCacheStats SptCache::StatsSnapshot() const {
  SptCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.bytes += shard.bytes;
    stats.entries += shard.lru.size();
  }
  return stats;
}

void SptCache::ResetStats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  insertions_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace kpj
