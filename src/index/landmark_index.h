#ifndef KPJ_INDEX_LANDMARK_INDEX_H_
#define KPJ_INDEX_LANDMARK_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/reorder.h"
#include "util/array_ref.h"
#include "util/status.h"
#include "util/types.h"

namespace kpj {

/// How landmark nodes are picked.
enum class LandmarkSelection {
  /// Farthest-point selection — the paper's choice (footnote 3): random
  /// start, then iteratively the node farthest from the landmark set.
  kFarthest,
  /// Uniformly random nodes; the classic cheap baseline from the ALT
  /// literature [16]. Exposed for the selection-strategy ablation.
  kRandom,
};

/// Options for offline landmark index construction (paper §4.2).
struct LandmarkIndexOptions {
  /// Number of landmarks |L|; the paper settles on 16 (Fig. 6(a)).
  uint32_t num_landmarks = 16;
  /// Seed for the random start node of farthest-point selection.
  uint64_t seed = 42;
  LandmarkSelection selection = LandmarkSelection::kFarthest;
  /// Worker threads for the table-filling Dijkstras (each landmark's runs
  /// are independent; workers keep their own SSSP workspaces and write
  /// disjoint table slots). Distances are exact, so the built index is
  /// byte-identical for every thread count. Landmark *selection* stays
  /// sequential: farthest-point selection is an inherently serial chain.
  unsigned threads = 1;
};

/// Offline landmark (ALT) distance index (paper §4.2, [16]).
///
/// Stores, for each landmark `w`, the exact shortest distances δ(w, v)
/// (forward table) and δ(v, w) (reverse table) for every node `v`. From the
/// triangle inequality over these tables it derives lower bounds on
/// arbitrary shortest distances; LandmarkSetBound (target_bound.h) builds
/// the per-query Eq. (2) bound on top of this index.
///
/// Landmarks are chosen by farthest-point selection as in the paper
/// (footnote 3): a random start, then iteratively the node farthest from
/// the current landmark set.
///
/// Construction is O(|L| (m + n log n)); storage O(|L| n) — both as stated
/// in the paper's "Remarks & Time Complexity".
class LandmarkIndex {
 public:
  /// Builds the index. `reverse_graph` must be `graph.Reverse()` (passed in
  /// so callers can reuse an already-built reverse graph).
  static LandmarkIndex Build(const Graph& graph, const Graph& reverse_graph,
                             const LandmarkIndexOptions& options = {});

  /// Constructs an empty (useless) index; Estimate-style bounds are all 0.
  LandmarkIndex() = default;

  uint32_t num_landmarks() const {
    return static_cast<uint32_t>(landmarks_.size());
  }
  const std::vector<NodeId>& landmarks() const { return landmarks_; }

  NodeId num_nodes() const { return num_nodes_; }

  /// δ(landmark_l, v); kInfLength if unreachable.
  PathLength DistFromLandmark(uint32_t l, NodeId v) const {
    return Widen(dist_from_[Slot(l, v)]);
  }

  /// δ(v, landmark_l); kInfLength if unreachable.
  PathLength DistToLandmark(uint32_t l, NodeId v) const {
    return Widen(dist_to_[Slot(l, v)]);
  }

  /// Lower bound on the point-to-point shortest distance dist(u, v) of two
  /// real nodes (< num_nodes()). Returns kInfLength when the tables prove
  /// v unreachable from u.
  PathLength LowerBound(NodeId u, NodeId v) const;

  /// Returns a copy of this index with every node id mapped through
  /// `permutation` (old id -> new id): landmark ids are translated and the
  /// node-major table rows permuted. Bounds are invariant:
  /// `Remap(p).LowerBound(p.ToNew(u), p.ToNew(v)) == LowerBound(u, v)`.
  /// An empty permutation returns an unchanged copy; otherwise
  /// `permutation.size()` must equal `num_nodes()`.
  LandmarkIndex Remap(const Permutation& permutation) const;

  /// Serialization (binary, with magic/version).
  Status Save(const std::string& path) const;
  static Result<LandmarkIndex> Load(const std::string& path);

  /// Assembles an index from pre-built arrays — the zero-copy v4 load path
  /// (the distance tables typically borrow mmap-ed sections; the landmark
  /// id list is tiny and always copied). Validates table shapes and
  /// landmark ids; both checks are O(|L|) + O(1).
  static Result<LandmarkIndex> FromParts(NodeId num_nodes,
                                         std::vector<NodeId> landmarks,
                                         ArrayRef<uint32_t> dist_from,
                                         ArrayRef<uint32_t> dist_to);

  /// Raw table access for the v4 section writer.
  std::span<const uint32_t> dist_from() const { return dist_from_.view(); }
  std::span<const uint32_t> dist_to() const { return dist_to_.view(); }

  bool Equals(const LandmarkIndex& other) const {
    return num_nodes_ == other.num_nodes_ && landmarks_ == other.landmarks_ &&
           dist_from_ == other.dist_from_ && dist_to_ == other.dist_to_;
  }

 private:
  friend class LandmarkSetBound;

  /// Distances are stored saturated to 32 bits to halve the table memory;
  /// kUnreachable32 marks infinity. Road-network distances fit easily.
  static constexpr uint32_t kUnreachable32 = UINT32_MAX;

  static PathLength Widen(uint32_t d) {
    return d == kUnreachable32 ? kInfLength : d;
  }
  static uint32_t Narrow(PathLength d) {
    return d >= kUnreachable32 ? kUnreachable32 : static_cast<uint32_t>(d);
  }

  // Node-major layout: one query evaluates all |L| landmarks for a node,
  // so keeping a node's row contiguous costs 1-2 cache lines per Estimate
  // instead of |L| scattered reads.
  size_t Slot(uint32_t l, NodeId v) const {
    return static_cast<size_t>(v) * landmarks_.size() + l;
  }

  NodeId num_nodes_ = 0;
  std::vector<NodeId> landmarks_;
  // Owned-or-borrowed (borrowed = spans into an mmap-ed v4 file).
  ArrayRef<uint32_t> dist_from_;  // n x |L|, node-major
  ArrayRef<uint32_t> dist_to_;    // n x |L|
};

}  // namespace kpj

#endif  // KPJ_INDEX_LANDMARK_INDEX_H_
