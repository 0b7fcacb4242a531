#ifndef KPJ_CORE_SPT_CACHE_H_
#define KPJ_CORE_SPT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/instrumentation.h"
#include "core/kpj_query.h"
#include "index/target_bound.h"
#include "sssp/incremental_search.h"
#include "sssp/spt.h"
#include "util/types.h"

namespace kpj {

/// What kind of shortest-path substrate an SptCache entry holds. Each kind
/// corresponds to one integration point; every kind stores values that are
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
///  * kAnswer           — a whole complete answer of the solver named in
///                        the key, for the k it records (RunKpjOnInstance
///                        serves any smaller k from its prefix).
///  * kSetBound         — the per-landmark aggregates of Eq. (2)'s set
///                        bound over one node set (MakeCachedSetBound).
enum class SptCacheKind : uint8_t {
  kReverseTargetSpt = 0,
  kForwardSpti = 1,
  kRootPath = 2,
  kAnswer = 3,
  kSetBound = 4,
};

/// Cache key: everything the cached computation depends on. `epoch` is the
/// owning KpjInstance's mutation epoch (bumped by AttachLandmarks /
/// AttachCategories), so any index change invalidates every older entry.
/// `config` packs the heuristic configuration (landmark availability and
/// max_active_landmarks) because heuristic values reach the stored heap
/// keys. `sources` and `targets` are the canonical (sorted, deduplicated)
/// source and target lists of the prepared query, so KPJ and GKPJ share
/// every kind under one contract; kReverseTargetSpt depends on the targets
/// alone and leaves `sources` empty. kSetBound keys one node set with
/// `config` 0: a kToSet set in `targets`, a kFromSet set in `sources`, so
/// the two directions of one set never meet. `algorithm` is set for
/// kAnswer only (an answer is a function of the solver that ran; the
/// substrate kinds are not). No key holds k: one kAnswer entry serves
/// every k its value covers (RunKpjOnInstance). Equality is exact —
/// hashing only picks the shard and bucket, so collisions cannot
/// cross-contaminate results.
struct SptCacheKey {
  SptCacheKind kind = SptCacheKind::kReverseTargetSpt;
  uint64_t epoch = 0;
  std::vector<NodeId> sources;
  uint32_t config = 0;
  std::vector<NodeId> targets;
  Algorithm algorithm = Algorithm::kAuto;

  bool operator==(const SptCacheKey&) const = default;
  size_t Hash() const;
  size_t MemoryBytes() const {
    return sizeof(SptCacheKey) +
           (sources.capacity() + targets.capacity()) * sizeof(NodeId);
  }
};

/// The kSetBound key of `set` under `direction` at `epoch`.
SptCacheKey SetBoundKey(uint64_t epoch, BoundDirection direction,
                        std::span<const NodeId> set);

/// Packs the heuristic configuration bits of a cache key, so cached heap
/// state (whose keys embed heuristic values) never crosses heuristic
/// configurations. Bits 1-2 are always zero.
inline uint32_t SptCacheConfig(bool use_oracle, uint32_t max_active) {
  return (use_oracle ? 1u : 0u) | (max_active << 3);
}

/// Cached initial shortest path of the best-first framework: the suffix
/// nodes after the root (strictly after a single source; from the entry
/// source on at GKPJ's virtual root), its length, and whether a path
/// exists at all (unreachable target sets are cacheable too).
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
/// holds (or has adopted) the data. `cost` is the work a hit saves: the
/// nodes the computation that produced the value settled (at least 1).
/// `answer_k` is the k a kAnswer value was computed for; an answer holding
/// fewer paths is complete, since no more exist.
struct SptCacheValue {
  std::shared_ptr<const SptResult> full_spt;            // kReverseTargetSpt
  std::shared_ptr<const SearchSnapshot> snapshot;       // kForwardSpti
  std::shared_ptr<const std::vector<NodeId>> settled_targets;  // kForwardSpti
  std::shared_ptr<const CachedRootPath> root_path;      // kRootPath
  std::shared_ptr<const std::vector<Path>> answer;      // kAnswer
  std::shared_ptr<const LandmarkSetAggregates> set_bound;  // kSetBound
  uint32_t answer_k = 0;                                // kAnswer
  uint64_t cost = 1;

  size_t MemoryBytes() const;
};

/// Monotonic operation counters plus the current byte footprint
/// (`answer_bytes` is the kAnswer share of `bytes`). Hits and misses are
/// counted by the callers, in AlgoStats.
struct SptCacheStats {
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t bytes = 0;
  size_t answer_bytes = 0;
  size_t entries = 0;
};

/// Sharded cache of shortest-path substrate and whole answers, shared by
/// all workers of a KpjEngine. Thread-safe; each shard has its own mutex,
/// eviction order and byte budget (total budget / shard count).
///
/// Eviction is GreedyDual-Size-Frequency (Cao & Irani 1997, plus a
/// frequency term): each entry ranks at `L + freq * cost / bytes`, where
/// `cost` is the nodes a hit saves settling, `freq` counts the insert and
/// every hit, and `L` is the shard's inflation — the rank of its last
/// victim. A hit re-ranks the entry at the current `L`; an eviction takes
/// the lowest rank (ties: least recently ranked first) and raises `L` to
/// it, so entries that go unused age out however costly they were. With
/// equal cost per byte the order is LRU.
///
/// Epoch invalidation is lazy — an entry with a stale epoch can never be
/// looked up (the epoch is part of the key) — plus eager via
/// PurgeOlderEpochs.
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

  /// Returns the cached value, bumping its frequency and re-ranking it, or
  /// nullopt.
  std::optional<SptCacheValue> Lookup(const SptCacheKey& key);

  /// True when `key` is resident, with no side effects: no re-rank. A
  /// planner probe, not an access — a later Lookup by the chosen solver
  /// observes exactly the eviction order it would have seen had the probe
  /// never happened.
  bool Contains(const SptCacheKey& key) const;

  /// Inserts or replaces (a replaced entry keeps its frequency and is
  /// re-ranked). Evicts the lowest-ranked entries of the shard while it
  /// exceeds its byte budget; the just-inserted entry is never evicted by
  /// its own insert. An entry larger than one shard's whole budget is not
  /// inserted at all, of any kind: it would flush every other entry of its
  /// shard, whatever their rank.
  void Insert(SptCacheKey key, SptCacheValue value);

  /// Eagerly removes every entry whose key epoch is older than
  /// `current_epoch`. Removed entries count as evictions.
  void PurgeOlderEpochs(uint64_t current_epoch);

  SptCacheStats StatsSnapshot() const;

  /// Zeroes the operation counters (bytes/entries reflect live contents
  /// and are not reset).
  void ResetStats();

  size_t budget_bytes() const { return budget_bytes_; }

  static constexpr size_t kNumShards = 8;

  /// The shard `key` lives in; only keys of one shard compete for its
  /// budget.
  static size_t ShardOf(const SptCacheKey& key) {
    // The bottom bits feed the unordered_map buckets; take top bits for
    // the shard so the two partitions stay independent.
    return (key.Hash() >> 56) % kNumShards;
  }

 private:
  struct KeyHash {
    size_t operator()(const SptCacheKey& key) const { return key.Hash(); }
  };

  /// Eviction rank: GDSF priority, then the shard clock at ranking time,
  /// so equal priorities go least recently ranked first.
  struct Rank {
    double priority;
    uint64_t tick;
    auto operator<=>(const Rank&) const = default;
  };

  struct Entry {
    SptCacheKey key;
    SptCacheValue value;
    size_t bytes;
    uint64_t freq;
  };

  using Order = std::map<Rank, Entry>;  // begin() = next victim
  using Index = std::unordered_map<SptCacheKey, Order::iterator, KeyHash>;

  struct Shard {
    mutable std::mutex mu;
    Order order;
    Index index;
    size_t bytes = 0;
    size_t answer_bytes = 0;
    double inflation = 0;  // L: the rank of the last victim
    uint64_t clock = 0;
  };

  static size_t EntryBytes(const SptCacheKey& key, const SptCacheValue& value);

  /// The rank `entry` takes now: the shard's inflation plus its
  /// frequency-weighted cost per byte, stamped with the next tick.
  static Rank NextRank(Shard& shard, const Entry& entry);

  /// Re-ranks the entry behind index slot `at` at the shard's current
  /// inflation, keeping the slot pointing at it.
  static void Rerank(Shard& shard, Index::iterator at);

  /// Adds an entry's bytes to the shard totals (`add`), or removes them.
  static void Account(Shard& shard, const Entry& entry, bool add);

  size_t budget_bytes_;
  size_t shard_budget_;
  Shard shards_[kNumShards];
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
};

/// Per-query view of the engine's cache, threaded to solvers through
/// PreparedQuery. `spt` may be null (caching disabled); `epoch` is the
/// owning instance's mutation epoch at query time.
struct QueryCacheContext {
  SptCache* spt = nullptr;
  uint64_t epoch = 0;
};

/// Builds the landmark set bound, serving the O(|L| * |S|) per-set
/// aggregation from the kSetBound entries of `cache->spt` when possible.
/// With a null cache (or a null `cache->spt`), or a one-node set, this is
/// the plain LandmarkSetBound constructor: a one-node set's aggregates are
/// just that node's table rows, and its cost-1 entry was mostly evicted
/// before any reuse. Cache hits and misses are counted into
/// `algo` (if non-null); either way the returned bound is byte-identical
/// to an uncached one, because the aggregates are a pure function of the
/// key. The key omits the index itself: an engine's cache serves one
/// instance with one fixed set of options, whose landmarks change only
/// with its epoch.
LandmarkSetBound MakeCachedSetBound(
    const LandmarkIndex* index, std::span<const NodeId> set,
    BoundDirection direction, NodeId scoring_node, uint32_t max_active,
    const QueryCacheContext* cache, AlgoStats* algo);

}  // namespace kpj

#endif  // KPJ_CORE_SPT_CACHE_H_
