#ifndef KPJ_CORE_KPJ_INSTANCE_H_
#define KPJ_CORE_KPJ_INSTANCE_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/kpj.h"
#include "core/kpj_query.h"
#include "core/solver.h"
#include "graph/graph.h"
#include "graph/reorder.h"
#include "index/category_index.h"
#include "index/landmark_index.h"
#include "util/cancellation.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace kpj {

/// The unified query-serving handle: one immutable bundle of everything a
/// KPJ query needs — the graph (in its cache-optimized internal layout),
/// its reverse, the permutation connecting internal ids to the caller's
/// original ids, and the optional offline indexes (landmarks, categories).
///
/// This replaces the loose `(graph, reverse, options)` triples and the
/// ReorderedGraph-vs-raw-graph overload split of the old facade: build one
/// KpjInstance, then pass it to MakeSolver / PrepareQuery / RunKpj /
/// RunKsp / MakeCategoryQuery and to KpjEngine. All of those speak
/// *original* ids at the boundary; translation happens inside.
///
/// Id spaces of the attachments:
///  * the LandmarkIndex must be in the *internal* layout (build it on
///    `graph()`, or Remap an existing index with `permutation()`) — solvers
///    consult it in that space; AttachLandmarks validates the node count.
///  * the CategoryIndex stays in *original* ids (it is a user-boundary
///    artifact; MakeCategoryQuery output feeds RunKpj, which translates).
///
/// Solvers and engines keep references into the instance, so it must
/// outlive them and must not be moved once any solver exists.
class KpjInstance {
 public:
  /// Relabels `graph` with `strategy` (kNone keeps the identity layout),
  /// builds the reverse graph, and wraps the result. Fails on an empty
  /// graph.
  static Result<KpjInstance> Make(Graph graph,
                                  ReorderStrategy strategy =
                                      ReorderStrategy::kNone);

  /// Wraps an already-relabeled graph (e.g. loaded from a version-2 binary
  /// file) without recomputing anything. `permutation` may be empty
  /// (identity); otherwise its size must match the graph.
  static Result<KpjInstance> Wrap(Graph graph, Permutation permutation);

  /// Opens a version-4 graph file with mmap and builds the instance with
  /// zero array copies: the CSR (forward and the stored reverse), the
  /// permutation, and every index section present in the file are borrowed
  /// straight out of the read-only mapping, which the instance pins for
  /// its lifetime. With `options.verify_checksums` every section is
  /// verified (one sequential pass, no allocation); without it the open is
  /// O(1) — pages fault in lazily as queries touch them, and the kernel
  /// shares them across every process mapping the same file.
  static Result<KpjInstance> LoadMapped(const std::string& path,
                                        const MappedLoadOptions& options = {});

  KpjInstance(KpjInstance&&) = default;
  KpjInstance& operator=(KpjInstance&&) = default;

  /// Attaches the landmark index (internal layout; see class comment).
  /// Fails if its node count does not match the graph.
  Status AttachLandmarks(LandmarkIndex landmarks);

  /// Attaches the category index (original ids; see class comment). Fails
  /// if its node count does not match the graph.
  Status AttachCategories(CategoryIndex categories);

  const Graph& graph() const { return bundle_.graph; }
  const Graph& reverse() const { return bundle_.reverse; }
  const Permutation& permutation() const { return bundle_.permutation; }
  /// nullptr when not attached.
  const LandmarkIndex* landmarks() const {
    return landmarks_ ? &*landmarks_ : nullptr;
  }
  /// nullptr when not attached.
  const CategoryIndex* categories() const {
    return categories_ ? &*categories_ : nullptr;
  }

  /// Mutation epoch: starts at 1 and increments whenever an index is
  /// (re)attached. Cross-query caches key on it, so attaching a new
  /// landmark or category index invalidates every older cache entry.
  uint64_t epoch() const { return epoch_; }

  /// Bytes of the read-only file mapping backing this instance, or 0 when
  /// it owns its arrays on the heap (Make/Wrap).
  uint64_t mapped_bytes() const {
    return mapping_ ? mapping_->mapped_bytes() : 0;
  }

  NodeId NumNodes() const { return bundle_.graph.NumNodes(); }
  NodeId ToInternal(NodeId original) const {
    return bundle_.permutation.ToNew(original);
  }
  NodeId ToOriginal(NodeId internal) const {
    return bundle_.permutation.ToOld(internal);
  }

 private:
  explicit KpjInstance(ReorderedGraph bundle) : bundle_(std::move(bundle)) {}

  ReorderedGraph bundle_;
  /// Pins the file mapping the bundle (and any indexes) borrow from; null
  /// for heap-owned instances.
  std::shared_ptr<const MappedGraphFile> mapping_;
  std::optional<LandmarkIndex> landmarks_;
  std::optional<CategoryIndex> categories_;
  uint64_t epoch_ = 1;
};

/// Resolves the options a solver for `instance` actually runs with: when
/// `options.oracle` is null, the instance's landmark index (if attached)
/// is used. Engines and the facade share this so pooled solvers and
/// one-shot solvers always agree.
KpjOptions ResolveOptions(const KpjInstance& instance,
                          const KpjOptions& options);

/// Constructs the solver selected by `options` bound to the instance's
/// graphs, with landmarks resolved via ResolveOptions. The instance must
/// outlive (and not move under) the solver.
std::unique_ptr<KpjSolver> MakeSolver(const KpjInstance& instance,
                                      const KpjOptions& options);

/// Validates `query` (given in original ids) against the instance and
/// produces the internal-layout view solvers execute. Same rules as the
/// graph-level PrepareQuery; additionally translates ids.
Result<PreparedQuery> PrepareQuery(const KpjInstance& instance,
                                   const KpjQuery& query);

/// Core execution routine shared by RunKpj(instance, ...) and KpjEngine:
/// translates `query` into the internal layout, prepares it, runs it, and
/// translates the result paths back to original ids. KPJ and GKPJ take
/// this one path: a solver roots a multi-source query at a virtual source
/// seeded from the source set, on the instance's own graphs.
///
/// `pooled_solver` may be a reusable solver previously built by
/// MakeSolver(instance, options) — its workspaces are reused without
/// locking (callers guarantee exclusive use for the duration of the call).
/// Pass nullptr to construct an ephemeral solver.
///
/// `cancel` (may be null) is polled by the solver's expansion loops; on a
/// tripped token the returned KpjResult carries the paths proven optimal
/// so far and a kDeadlineExceeded / kCancelled `status`. Validation
/// failures surface as a non-ok Result instead.
///
/// `cache` (may be null) enables cross-query reuse (core/spt_cache.h). A
/// complete answer of `options.algorithm` for the same source set, in any
/// order, and the same targets serves every k it covers — k at most its
/// path count, or any k when it holds fewer paths than it was asked for —
/// as its first k paths, with zero work counters and `answer_cache_hits`
/// = 1. Results are byte-identical with or without a cache.
///
/// `intra` (may be null) enables intra-query parallel deviation rounds
/// (core/intra.h). Results are byte-identical with or without it.
Result<KpjResult> RunKpjOnInstance(const KpjInstance& instance,
                                   const KpjQuery& query,
                                   const KpjOptions& options,
                                   KpjSolver* pooled_solver,
                                   const CancellationToken* cancel,
                                   const QueryCacheContext* cache = nullptr,
                                   const IntraQueryContext* intra = nullptr);

/// One-shot convenience over RunKpjOnInstance (no pooled solver, no
/// cancellation).
Result<KpjResult> RunKpj(const KpjInstance& instance, const KpjQuery& query,
                         const KpjOptions& options);

/// KSP convenience (paper Def. 3.1): top-k simple shortest paths between
/// two physical nodes — a KPJ query whose category holds one node.
Result<KpjResult> RunKsp(const KpjInstance& instance, NodeId source,
                         NodeId target, uint32_t k, const KpjOptions& options);

/// Builds the KpjQuery for "top-k paths from `source` to category
/// `category`" using the instance's attached category index (original
/// ids). Fails when no index is attached or the category is unknown/empty.
Result<KpjQuery> MakeCategoryQuery(const KpjInstance& instance, NodeId source,
                                   CategoryId category, uint32_t k);

}  // namespace kpj

#endif  // KPJ_CORE_KPJ_INSTANCE_H_
