#ifndef KPJ_GRAPH_REORDER_H_
#define KPJ_GRAPH_REORDER_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"
#include "util/types.h"

namespace kpj {

/// Node-id relabeling passes that improve the cache locality of the CSR
/// arrays. Every hot loop in this repository (Dijkstra relaxation, SPT_P /
/// SPT_I expansion, IterBound's repeated bound tests) is dominated by
/// random access into per-node arrays indexed by neighbour ids; relabeling
/// so that topological neighbours get nearby ids turns those accesses into
/// cache hits. The mapping is captured as a Permutation so callers keep
/// addressing nodes by their original ids (see kpj.h's ReorderedGraph).
enum class ReorderStrategy {
  /// Keep the input order (identity permutation).
  kNone,
  /// Breadth-first order (pseudo reverse-Cuthill-McKee) from a
  /// highest-out-degree seed; unreached components restart from their own
  /// highest-degree node. The default for road-like graphs: BFS levels put
  /// each node within a few hundred ids of all its neighbours.
  kBfs,
  /// Stable sort by descending out-degree. Packs the hubs of skewed-degree
  /// (scale-free) graphs into a few shared cache lines.
  kDegree,
  /// BFS with degree-ordered sibling tie-breaking: within a BFS level,
  /// high-degree neighbours are visited (and therefore numbered) first.
  kHybrid,
};

inline constexpr ReorderStrategy kAllReorderStrategies[] = {
    ReorderStrategy::kNone, ReorderStrategy::kBfs, ReorderStrategy::kDegree,
    ReorderStrategy::kHybrid};

/// Lower-case display name: "none", "bfs", "degree", "hybrid".
const char* ReorderStrategyName(ReorderStrategy strategy);

/// Parses a strategy name (case-insensitive).
Result<ReorderStrategy> ParseReorderStrategy(std::string_view name);

/// A bijection over node ids `[0, n)`, stored with both directions so that
/// old->new and new->old lookups are O(1).
///
/// The default-constructed (empty) permutation acts as the identity over
/// every id — this is the "no reordering attached" state, and ToNew/ToOld
/// pass ids through unchanged. That is why ids `>= size()` pass through.
class Permutation {
 public:
  /// Empty permutation; behaves as the identity.
  Permutation() = default;

  /// Explicit identity over `[0, n)`.
  static Permutation Identity(NodeId n);

  /// Builds from an old-id -> new-id map; fails unless it is a bijection
  /// over `[0, map.size())`.
  static Result<Permutation> FromOldToNew(std::vector<NodeId> old_to_new);

  /// Builds from a new-id -> old-id map (the inverse direction).
  static Result<Permutation> FromNewToOld(std::vector<NodeId> new_to_old);

  /// Borrows both directions without copying (zero-copy load path). The
  /// spans must be mutually inverse bijections over `[0, size())`; only
  /// sizes are checked here — the v4 loader validates in verify mode.
  static Permutation Borrowed(std::span<const NodeId> old_to_new,
                              std::span<const NodeId> new_to_old);

  NodeId size() const { return static_cast<NodeId>(old_to_new_.size()); }
  bool empty() const { return old_to_new_.empty(); }

  /// True if every id maps to itself (or the permutation is empty).
  bool IsIdentity() const;

  /// New id of `old_id`. Ids outside `[0, size())` map to themselves, so
  /// the empty permutation is the identity.
  NodeId ToNew(NodeId old_id) const {
    return old_id < size() ? old_to_new_[old_id] : old_id;
  }

  /// Old id of `new_id`; same out-of-range pass-through as ToNew.
  NodeId ToOld(NodeId new_id) const {
    return new_id < size() ? new_to_old_[new_id] : new_id;
  }

  std::span<const NodeId> old_to_new() const { return old_to_new_.view(); }
  std::span<const NodeId> new_to_old() const { return new_to_old_.view(); }

  /// The inverse bijection (swaps the two directions).
  Permutation Inverse() const;

  /// Composition `then ∘ this`: the returned permutation maps an old id
  /// through `*this` first and `then` second. Either side may be empty
  /// (identity); non-empty sizes must match.
  Permutation ComposeWith(const Permutation& then) const;

  bool Equals(const Permutation& other) const {
    return old_to_new_ == other.old_to_new_;
  }

 private:
  ArrayRef<NodeId> old_to_new_;
  ArrayRef<NodeId> new_to_old_;
};

/// Computes the relabeling for `strategy` on `graph`. Deterministic in the
/// graph alone (ties broken by id). kNone yields the explicit identity.
Permutation ComputeReordering(const Graph& graph, ReorderStrategy strategy);

/// Rebuilds `graph` under `perm`: node `u` becomes `perm.ToNew(u)` and every
/// arc target is remapped, with per-node adjacency re-sorted by target so
/// Graph's binary-search invariant holds. An empty permutation copies the
/// graph unchanged; otherwise `perm.size()` must equal `graph.NumNodes()`.
/// O(n + m log d_max).
Graph ApplyPermutation(const Graph& graph, const Permutation& perm);

}  // namespace kpj

#endif  // KPJ_GRAPH_REORDER_H_
