#ifndef KPJ_GRAPH_SERIALIZE_H_
#define KPJ_GRAPH_SERIALIZE_H_

#include <memory>
#include <optional>
#include <string>

#include "graph/graph.h"
#include "graph/reorder.h"
#include "index/category_index.h"
#include "index/landmark_index.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace kpj {

/// A graph loaded from disk together with the node-id permutation stored
/// alongside it (empty when the file carries none) and, for version-4
/// files, any precomputed indexes. When a permutation is present the CSR
/// is in the relabeled (cache-optimized) layout and `permutation` maps
/// original ids to that layout, so preprocessed graphs stay addressable by
/// the ids the user originally loaded; stored indexes are in the same
/// layout as the stored CSR. Everything here is heap-owned (v4 files are
/// deep-copied on this path — see MapGraphFile for zero-copy).
struct GraphFile {
  Graph graph;
  Permutation permutation;
  std::optional<LandmarkIndex> landmarks;    // v4 files only
  std::optional<CategoryIndex> categories;   // v4 files only
};

/// Saves `graph` in a compact binary format (magic + versioned header +
/// raw CSR arrays). Reloading a multi-million-node network this way is
/// ~100x faster than re-parsing DIMACS text, which matters for the
/// benchmark harnesses that reuse datasets across runs.
///
/// Writes format version 1 (no permutation section) — byte-identical to
/// files produced before permutations existed.
Status SaveGraphBinary(const Graph& graph, const std::string& path);

/// Saves `graph` plus the permutation mapping original ids to its layout.
/// An empty/identity permutation writes a version-1 file; otherwise a
/// version-2 file with a trailing permutation section (`permutation.size()`
/// must equal `graph.NumNodes()`).
Status SaveGraphBinary(const Graph& graph, const Permutation& permutation,
                       const std::string& path);

/// Loads a version-1, -2 or -4 file, returning the stored permutation
/// (empty for version 1) and, for version 4, the stored indexes. Validates
/// magic, version, structural invariants, and that any permutation is a
/// bijection of the right size. Version 3 is retired and fails as an
/// unsupported version.
Result<GraphFile> LoadGraphFile(const std::string& path);

/// Loads just the graph, discarding any stored permutation. Node ids are
/// then those of the stored layout; callers that must honour original ids
/// use LoadGraphFile.
Result<Graph> LoadGraphBinary(const std::string& path);

/// Loads a graph by file extension — the convention every tool shares:
/// ".gr" parses DIMACS text (never a permutation or indexes), anything
/// else reads the binary format via LoadGraphFile.
Result<GraphFile> LoadGraphAuto(const std::string& path);

// ------------------------------------------------------------------ v4 ---
// Version 4 is the zero-copy format: a page-aligned section directory
// (util/mmap_file.h) where every large array — forward AND reverse CSR,
// both permutation directions, landmark tables, category CSR — is an
// individually checksummed section whose on-disk bytes are the in-memory
// representation. MapGraphFile borrows spans straight out of the mapping;
// LoadGraphFile transparently deep-copies v4 files so every existing tool
// can read them.

/// What to put in a v4 file. `graph` is required. `reverse` may be null —
/// it is computed at save time (stored so mapped loads never pay the
/// O(m log m) Reverse()). Optional structures must match the graph's node
/// count and be in the same (stored) layout.
struct GraphFileSections {
  const Graph* graph = nullptr;
  const Graph* reverse = nullptr;
  const Permutation* permutation = nullptr;
  const LandmarkIndex* landmarks = nullptr;
  const CategoryIndex* categories = nullptr;
};

/// Writes a version-4 section-directory file.
Status SaveGraphFileV4(const GraphFileSections& sections,
                       const std::string& path);

/// A v4 file opened zero-copy: `file` owns the mapping and every other
/// member borrows spans of it. Keep `file` alive as long as any of them is
/// used (KpjInstance pins it via this shared_ptr).
struct MappedGraphBundle {
  std::shared_ptr<const MappedGraphFile> file;
  Graph graph;
  Graph reverse;
  Permutation permutation;
  std::optional<LandmarkIndex> landmarks;
  std::optional<CategoryIndex> categories;
};

/// Opens a v4 file with mmap and constructs the bundle without copying any
/// large array. With `options.verify_checksums` (the default) every
/// section checksum plus the structural invariants are verified — a full
/// sequential read but still no allocation; without it (trusted files)
/// only the header/directory checksum and O(1) shape checks run, making
/// the load O(1) in the graph size.
Result<MappedGraphBundle> MapGraphFile(const std::string& path,
                                       const MappedLoadOptions& options = {});

/// Reads just the magic + version of a graph file (4 means mappable).
Result<uint32_t> PeekGraphFileVersion(const std::string& path);

/// Human-readable name of a v4 section kind (for error messages/tests).
std::string GraphSectionKindName(uint32_t kind);

}  // namespace kpj

#endif  // KPJ_GRAPH_SERIALIZE_H_
