#ifndef KPJ_CORE_SPT_CACHE_H_
#define KPJ_CORE_SPT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/kpj_query.h"
#include "sssp/incremental_search.h"
#include "sssp/spt.h"
#include "util/types.h"

namespace kpj {

class TargetBoundCache;

/// What kind of shortest-path substrate an SptCache entry holds. Each kind
/// corresponds to one integration point; all four store values that are
/// pure functions of the key, so adopting a cached value is byte-identical
/// to recomputing it:
///  * kReverseTargetSpt — DA-SPT's full reverse SPT from V_T (SptResult).
///  * kForwardSpti      — SPT_I state at the end of phase 1, when the
///                        first target was settled (SearchSnapshot). The
///                        grown tree of the main loop is deliberately NOT
///                        cached: a warm superset tree changes lower
///                        bounds and hence tie-breaking, which would break
///                        the byte-identical guarantee.
///  * kRootPath         — the initial shortest path of the best-first
///                        framework (DA / IterBound).
///  * kAnswer           — a whole complete single-source answer of the
///                        solver named in the key (RunKpjOnInstance).
enum class SptCacheKind : uint8_t {
  kReverseTargetSpt = 0,
  kForwardSpti = 1,
  kRootPath = 2,
  kAnswer = 3,
};

/// Cache key: everything the cached computation depends on. `epoch` is the
/// owning KpjInstance's mutation epoch (bumped by AttachLandmarks /
/// AttachCategories), so any index change invalidates every older entry.
/// `config` packs the heuristic configuration (landmark availability and
/// max_active_landmarks) because heuristic values reach the stored heap
/// keys. `targets` is the canonical (sorted, deduplicated) target list of
/// the prepared query. `algorithm` and `k` are set for kAnswer only (an
/// answer is a function of the solver that ran and of k; the substrate
/// kinds are not). Equality is exact — hashing only picks the shard and
/// bucket, so collisions cannot cross-contaminate results.
struct SptCacheKey {
  SptCacheKind kind = SptCacheKind::kReverseTargetSpt;
  uint64_t epoch = 0;
  NodeId source = kInvalidNode;
  uint32_t config = 0;
  std::vector<NodeId> targets;
  Algorithm algorithm = Algorithm::kAuto;
  uint32_t k = 0;

  bool operator==(const SptCacheKey&) const = default;
  size_t Hash() const;
  size_t MemoryBytes() const {
    return sizeof(SptCacheKey) + targets.capacity() * sizeof(NodeId);
  }
};

/// Packs the heuristic configuration bits of a cache key, so cached heap
/// state (whose keys embed heuristic values) never crosses heuristic
/// configurations. Bits 1-2 are always zero.
inline uint32_t SptCacheConfig(bool use_oracle, uint32_t max_active) {
  return (use_oracle ? 1u : 0u) | (max_active << 3);
}

/// Cached initial shortest path of the best-first framework: the suffix
/// nodes strictly after the source, its length, and whether a path exists
/// at all (unreachable target sets are cacheable too).
struct CachedRootPath {
  bool found = false;
  std::vector<NodeId> suffix;
  PathLength suffix_length = 0;

  size_t MemoryBytes() const {
    return sizeof(CachedRootPath) + suffix.capacity() * sizeof(NodeId);
  }
};

/// One cached value; exactly the field matching the key's kind is set.
/// Values sit behind shared_ptr so eviction is safe while a worker still
/// holds (or has adopted) the data.
struct SptCacheValue {
  std::shared_ptr<const SptResult> full_spt;            // kReverseTargetSpt
  std::shared_ptr<const SearchSnapshot> snapshot;       // kForwardSpti
  std::shared_ptr<const std::vector<NodeId>> settled_targets;  // kForwardSpti
  std::shared_ptr<const CachedRootPath> root_path;      // kRootPath
  std::shared_ptr<const std::vector<Path>> answer;      // kAnswer

  size_t MemoryBytes() const;
};

/// Monotonic operation counters plus the current byte footprint.
struct SptCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t bytes = 0;
  size_t entries = 0;
};

/// Sharded LRU cache of shortest-path substrate and whole answers, shared
/// by all workers of a KpjEngine. Thread-safe; each shard has its own
/// mutex, LRU list and byte budget (total budget / shard count). Epoch
/// invalidation is lazy —
/// an entry with a stale epoch can never be looked up (the epoch is part
/// of the key) — plus eager via PurgeOlderEpochs.
///
/// Lookup returns a *copy* of the stored value, so the snapshot a query
/// adopts is private to that query: once copied into solver state it may
/// be read concurrently by every intra-query deviation lane (core/intra.h)
/// without touching cache synchronization, and a concurrent eviction or
/// insert on the shard cannot invalidate it.
class SptCache {
 public:
  explicit SptCache(size_t budget_bytes);

  SptCache(const SptCache&) = delete;
  SptCache& operator=(const SptCache&) = delete;

  /// Returns the cached value and refreshes its LRU position, or nullopt.
  /// Counts a hit or a miss.
  std::optional<SptCacheValue> Lookup(const SptCacheKey& key);

  /// True when `key` is resident, with no side effects: no LRU refresh, no
  /// hit/miss counting. A planner probe, not an access — a later Lookup by
  /// the chosen solver observes exactly the counters and recency order it
  /// would have seen had the probe never happened.
  bool Contains(const SptCacheKey& key) const;

  /// Inserts or replaces. Evicts least-recently-used entries of the shard
  /// while it exceeds its byte budget. The just-inserted entry is never
  /// evicted by its own insert: a single oversized entry stays resident
  /// (and useful) until a later insert displaces it.
  void Insert(SptCacheKey key, SptCacheValue value);

  /// True when the entry would fit one shard's byte budget, i.e. when an
  /// Insert of it could ever share the shard with another entry.
  bool FitsInShard(const SptCacheKey& key, const SptCacheValue& value) const {
    return EntryBytes(key, value) <= shard_budget_;
  }

  /// Eagerly removes every entry whose key epoch is older than
  /// `current_epoch`. Removed entries count as evictions.
  void PurgeOlderEpochs(uint64_t current_epoch);

  SptCacheStats StatsSnapshot() const;

  /// Zeroes the operation counters (bytes/entries reflect live contents
  /// and are not reset).
  void ResetStats();

  size_t budget_bytes() const { return budget_bytes_; }

 private:
  static constexpr size_t kNumShards = 8;

  struct KeyHash {
    size_t operator()(const SptCacheKey& key) const { return key.Hash(); }
  };

  using LruList = std::list<std::pair<SptCacheKey, SptCacheValue>>;

  struct Shard {
    mutable std::mutex mu;
    LruList lru;  // front = most recently used
    std::unordered_map<SptCacheKey, LruList::iterator, KeyHash> index;
    size_t bytes = 0;
  };

  static size_t EntryBytes(const SptCacheKey& key, const SptCacheValue& value);

  Shard& ShardFor(const SptCacheKey& key);

  size_t budget_bytes_;
  size_t shard_budget_;
  Shard shards_[kNumShards];
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
};

/// Per-query view of the engine's caches, threaded to solvers through
/// PreparedQuery. All pointers may be null (caching disabled); `epoch` is
/// the owning instance's mutation epoch at query time.
struct QueryCacheContext {
  SptCache* spt = nullptr;
  TargetBoundCache* bounds = nullptr;
  uint64_t epoch = 0;
};

}  // namespace kpj

#endif  // KPJ_CORE_SPT_CACHE_H_
