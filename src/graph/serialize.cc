#include "graph/serialize.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/dimacs_io.h"

namespace kpj {
namespace {

constexpr uint64_t kMagic = 0x4b504a4752503031ULL;  // "KPJGRP01"
constexpr uint32_t kVersionBare = 1;      // CSR only
constexpr uint32_t kVersionPermuted = 2;  // CSR + permutation section
// Version 3 (CSR + permutation + a hub-label section) is retired: files
// carrying it fail to load as an unsupported version.
// Page-aligned section directory (util/mmap_file.h) designed for
// zero-copy mmap loading. See docs/FORMATS.md for the layout.
constexpr uint32_t kVersionMapped = 4;

// v4 section kinds. Values are part of the on-disk format — never reuse
// or renumber; unknown kinds are ignored on load (forward compatibility).
// Kinds 7-11 and 21 are reserved: they held the retired hub-label arrays
// and checksum, and files that still carry them open with those sections
// skipped.
enum GraphSectionKind : uint32_t {
  kSecFwdOffsets = 1,       // EdgeId[n+1]
  kSecFwdAdj = 2,           // OutEdge[m]
  kSecRevOffsets = 3,       // EdgeId[n+1], reverse CSR
  kSecRevAdj = 4,           // OutEdge[m]
  kSecPermOldToNew = 5,     // NodeId[n]
  kSecPermNewToOld = 6,     // NodeId[n]
  // 7-11: reserved (retired hub-label arrays).
  kSecLandmarkIds = 12,     // NodeId[L]
  kSecLmDistFrom = 13,      // uint32[n*L], node-major
  kSecLmDistTo = 14,        // uint32[n*L]
  kSecCatNamesBlob = 15,    // char[...], concatenated names
  kSecCatNameOffsets = 16,  // uint64[C+1] into the names blob
  kSecCatNodesOffsets = 17, // uint64[C+1]
  kSecCatNodes = 18,        // NodeId[...], per-category sorted node sets
  kSecCatOfNodeOffsets = 19,  // uint64[n+1]
  kSecCatOfNodeEntries = 20,  // CategoryId[...], per-node sorted categories
  // 21: reserved (retired hub-label checksum).
};

template <typename T>
bool WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  return static_cast<bool>(out);
}

template <typename C>
bool WriteVec(std::ofstream& out, const C& v) {
  uint64_t count = v.size();
  if (!WritePod(out, count)) return false;
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(
                count * sizeof(typename C::value_type)));
  return static_cast<bool>(out);
}

template <typename T>
bool ReadPod(std::ifstream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

template <typename T>
bool ReadVec(std::ifstream& in, std::vector<T>& v, uint64_t max_count) {
  uint64_t count = 0;
  if (!ReadPod(in, count)) return false;
  if (count > max_count) return false;
  v.resize(count);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  return static_cast<bool>(in);
}

// Defined with the rest of the v4 code below.
Result<GraphFile> LoadV4Owned(const std::string& path);

}  // namespace

Status SaveGraphBinary(const Graph& graph, const std::string& path) {
  return SaveGraphBinary(graph, Permutation(), path);
}

Status SaveGraphBinary(const Graph& graph, const Permutation& permutation,
                       const std::string& path) {
  const bool store_perm = !permutation.empty() && !permutation.IsIdentity();
  if (store_perm && permutation.size() != graph.NumNodes()) {
    return Status::InvalidArgument(
        "permutation size does not match graph node count");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const uint32_t version = store_perm ? kVersionPermuted : kVersionBare;
  if (!WritePod(out, kMagic) || !WritePod(out, version) ||
      !WriteVec(out, graph.offsets()) || !WriteVec(out, graph.adjacency())) {
    return Status::IoError("write failed for " + path);
  }
  if (store_perm && !WriteVec(out, permutation.old_to_new())) {
    return Status::IoError("write failed for " + path);
  }
  return Status::Ok();
}

Result<GraphFile> LoadGraphFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!ReadPod(in, magic) || magic != kMagic) {
    return Status::Corruption(path + ": bad magic");
  }
  if (!ReadPod(in, version)) {
    return Status::Corruption(path + ": unsupported version");
  }
  if (version == kVersionMapped) {
    // v4 files are section-directory files; read them through the mapped
    // loader and deep-copy so this path keeps returning owned storage.
    in.close();
    return LoadV4Owned(path);
  }
  if (version != kVersionBare && version != kVersionPermuted) {
    return Status::Corruption(path + ": unsupported version");
  }
  std::vector<EdgeId> offsets;
  std::vector<OutEdge> adj;
  // Sanity cap: 2^32 nodes / arcs.
  constexpr uint64_t kMax = (1ULL << 32);
  if (!ReadVec(in, offsets, kMax) || !ReadVec(in, adj, kMax)) {
    return Status::Corruption(path + ": truncated or oversized arrays");
  }
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != adj.size()) {
    return Status::Corruption(path + ": inconsistent CSR header");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i - 1] > offsets[i]) {
      return Status::Corruption(path + ": non-monotone offsets");
    }
  }
  NodeId n = static_cast<NodeId>(offsets.size() - 1);
  for (const OutEdge& e : adj) {
    if (e.to >= n) return Status::Corruption(path + ": arc target out of range");
  }

  GraphFile file;
  if (version == kVersionPermuted) {
    std::vector<NodeId> old_to_new;
    if (!ReadVec(in, old_to_new, kMax)) {
      return Status::Corruption(path + ": truncated permutation");
    }
    if (old_to_new.size() != n) {
      return Status::Corruption(path + ": permutation size mismatch");
    }
    Result<Permutation> perm = Permutation::FromOldToNew(std::move(old_to_new));
    if (!perm.ok()) {
      return Status::Corruption(path + ": " + perm.status().message());
    }
    file.permutation = std::move(perm).value();
  }
  file.graph = Graph(std::move(offsets), std::move(adj));
  return file;
}

Result<Graph> LoadGraphBinary(const std::string& path) {
  Result<GraphFile> file = LoadGraphFile(path);
  if (!file.ok()) return file.status();
  return std::move(file.value().graph);
}

Result<GraphFile> LoadGraphAuto(const std::string& path) {
  constexpr std::string_view kDimacs = ".gr";
  if (path.size() >= kDimacs.size() &&
      path.compare(path.size() - kDimacs.size(), kDimacs.size(), kDimacs) ==
          0) {
    Result<Graph> graph = ReadDimacsGraph(path);
    if (!graph.ok()) return graph.status();
    GraphFile file;
    file.graph = std::move(graph).value();
    return file;
  }
  return LoadGraphFile(path);
}

// ------------------------------------------------------------------ v4 ---

std::string GraphSectionKindName(uint32_t kind) {
  switch (kind) {
    case kSecFwdOffsets: return "graph.offsets";
    case kSecFwdAdj: return "graph.adjacency";
    case kSecRevOffsets: return "reverse.offsets";
    case kSecRevAdj: return "reverse.adjacency";
    case kSecPermOldToNew: return "permutation.old_to_new";
    case kSecPermNewToOld: return "permutation.new_to_old";
    case kSecLandmarkIds: return "landmarks.ids";
    case kSecLmDistFrom: return "landmarks.dist_from";
    case kSecLmDistTo: return "landmarks.dist_to";
    case kSecCatNamesBlob: return "categories.names";
    case kSecCatNameOffsets: return "categories.name_offsets";
    case kSecCatNodesOffsets: return "categories.nodes_offsets";
    case kSecCatNodes: return "categories.nodes";
    case kSecCatOfNodeOffsets: return "categories.of_node_offsets";
    case kSecCatOfNodeEntries: return "categories.of_node_entries";
    default: return "";
  }
}

Status SaveGraphFileV4(const GraphFileSections& sections,
                       const std::string& path) {
  if (sections.graph == nullptr) {
    return Status::InvalidArgument("v4 save: graph is required");
  }
  const Graph& graph = *sections.graph;
  if (graph.offsets().empty()) {
    return Status::InvalidArgument("v4 save: graph is empty");
  }
  const NodeId n = graph.NumNodes();

  // The reverse CSR is stored so mapped loads never recompute it — that
  // recomputation (O(m) + per-node sorts) is most of a v2 load.
  Graph computed_reverse;
  const Graph* reverse = sections.reverse;
  if (reverse == nullptr) {
    computed_reverse = graph.Reverse();
    reverse = &computed_reverse;
  }
  if (reverse->NumNodes() != n || reverse->NumEdges() != graph.NumEdges()) {
    return Status::InvalidArgument("v4 save: reverse graph shape mismatch");
  }

  SectionFileWriter writer(kMagic, kVersionMapped);
  writer.AddSection<EdgeId>(kSecFwdOffsets, graph.offsets());
  writer.AddSection<OutEdge>(kSecFwdAdj, graph.adjacency());
  writer.AddSection<EdgeId>(kSecRevOffsets, reverse->offsets());
  writer.AddSection<OutEdge>(kSecRevAdj, reverse->adjacency());

  const Permutation* perm = sections.permutation;
  const bool store_perm =
      perm != nullptr && !perm->empty() && !perm->IsIdentity();
  if (store_perm) {
    if (perm->size() != n) {
      return Status::InvalidArgument(
          "permutation size does not match graph node count");
    }
    writer.AddSection<NodeId>(kSecPermOldToNew, perm->old_to_new());
    writer.AddSection<NodeId>(kSecPermNewToOld, perm->new_to_old());
  }

  if (sections.landmarks != nullptr) {
    const LandmarkIndex& lm = *sections.landmarks;
    if (lm.num_nodes() != n) {
      return Status::InvalidArgument(
          "landmark index node count does not match graph");
    }
    writer.AddSection<NodeId>(kSecLandmarkIds, lm.landmarks());
    writer.AddSection<uint32_t>(kSecLmDistFrom, lm.dist_from());
    writer.AddSection<uint32_t>(kSecLmDistTo, lm.dist_to());
  }

  // Category storage flattened to CSR; locals must outlive WriteTo.
  std::string cat_names_blob;
  std::vector<uint64_t> cat_name_offsets;
  std::vector<uint64_t> cat_nodes_offsets;
  std::vector<NodeId> cat_nodes;
  std::vector<uint64_t> cat_of_node_offsets;
  std::vector<CategoryId> cat_of_node_entries;
  if (sections.categories != nullptr) {
    const CategoryIndex& cats = *sections.categories;
    if (cats.num_nodes() != n) {
      return Status::InvalidArgument(
          "category index node count does not match graph");
    }
    const size_t num_categories = cats.NumCategories();
    cat_name_offsets.reserve(num_categories + 1);
    cat_nodes_offsets.reserve(num_categories + 1);
    cat_name_offsets.push_back(0);
    cat_nodes_offsets.push_back(0);
    for (CategoryId c = 0; c < num_categories; ++c) {
      cat_names_blob += cats.Name(c);
      cat_name_offsets.push_back(cat_names_blob.size());
      auto nodes = cats.Nodes(c);
      cat_nodes.insert(cat_nodes.end(), nodes.begin(), nodes.end());
      cat_nodes_offsets.push_back(cat_nodes.size());
    }
    cat_of_node_offsets.reserve(static_cast<size_t>(n) + 1);
    cat_of_node_offsets.push_back(0);
    for (NodeId v = 0; v < n; ++v) {
      auto of_node = cats.CategoriesOf(v);
      cat_of_node_entries.insert(cat_of_node_entries.end(), of_node.begin(),
                                 of_node.end());
      cat_of_node_offsets.push_back(cat_of_node_entries.size());
    }
    writer.AddSectionBytes(kSecCatNamesBlob, 1, cat_names_blob.data(),
                           cat_names_blob.size(), cat_names_blob.size());
    writer.AddSection<uint64_t>(kSecCatNameOffsets, cat_name_offsets);
    writer.AddSection<uint64_t>(kSecCatNodesOffsets, cat_nodes_offsets);
    writer.AddSection<NodeId>(kSecCatNodes, cat_nodes);
    writer.AddSection<uint64_t>(kSecCatOfNodeOffsets, cat_of_node_offsets);
    writer.AddSection<CategoryId>(kSecCatOfNodeEntries, cat_of_node_entries);
  }

  return writer.WriteTo(path);
}

namespace {

/// Full structural CSR validation for verified mapped loads. O(n + m).
Status ValidateMappedCsr(std::span<const EdgeId> offsets,
                         std::span<const OutEdge> adj, const char* which) {
  const NodeId n = static_cast<NodeId>(offsets.size() - 1);
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i - 1] > offsets[i]) {
      return Status::Corruption(std::string(which) +
                                ": non-monotone offsets");
    }
  }
  for (const OutEdge& e : adj) {
    if (e.to >= n) {
      return Status::Corruption(std::string(which) +
                                ": arc target out of range");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<MappedGraphBundle> MapGraphFile(const std::string& path,
                                       const MappedLoadOptions& options) {
  Result<std::shared_ptr<MappedGraphFile>> opened = MappedGraphFile::Open(
      path, kMagic, kVersionMapped, options, GraphSectionKindName);
  if (!opened.ok()) return opened.status();
  std::shared_ptr<MappedGraphFile> file = std::move(opened).value();
  // verify_checksums doubles as the "validate structure" knob: with the
  // section checksums verified the payload bytes are exactly what the
  // writer produced, and the structural scan guards against a writer bug
  // or a deliberately crafted file; trusted mode skips both.
  const bool validate = options.verify_checksums;

  auto require = [&file](uint32_t kind, auto& out) -> Status {
    using Span = std::remove_reference_t<decltype(out)>;
    Result<Span> section =
        file->template SectionAs<typename Span::value_type>(kind);
    if (!section.ok()) return section.status();
    out = section.value();
    return Status::Ok();
  };

  std::span<const EdgeId> offsets, rev_offsets;
  std::span<const OutEdge> adj, rev_adj;
  KPJ_RETURN_IF_ERROR(require(kSecFwdOffsets, offsets));
  KPJ_RETURN_IF_ERROR(require(kSecFwdAdj, adj));
  KPJ_RETURN_IF_ERROR(require(kSecRevOffsets, rev_offsets));
  KPJ_RETURN_IF_ERROR(require(kSecRevAdj, rev_adj));

  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != adj.size()) {
    return Status::Corruption(path + ": inconsistent CSR header");
  }
  if (rev_offsets.size() != offsets.size() || rev_adj.size() != adj.size() ||
      rev_offsets.front() != 0 || rev_offsets.back() != rev_adj.size()) {
    return Status::Corruption(path + ": inconsistent reverse CSR");
  }
  const NodeId n = static_cast<NodeId>(offsets.size() - 1);
  if (validate) {
    Status fwd = ValidateMappedCsr(offsets, adj, "graph");
    if (!fwd.ok()) return Status::Corruption(path + ": " + fwd.message());
    Status rev = ValidateMappedCsr(rev_offsets, rev_adj, "reverse");
    if (!rev.ok()) return Status::Corruption(path + ": " + rev.message());
  }

  MappedGraphBundle bundle;
  bundle.graph = Graph::Borrowed(offsets, adj);
  bundle.reverse = Graph::Borrowed(rev_offsets, rev_adj);

  if (file->FindSection(kSecPermOldToNew) != nullptr ||
      file->FindSection(kSecPermNewToOld) != nullptr) {
    std::span<const NodeId> old_to_new, new_to_old;
    KPJ_RETURN_IF_ERROR(require(kSecPermOldToNew, old_to_new));
    KPJ_RETURN_IF_ERROR(require(kSecPermNewToOld, new_to_old));
    if (old_to_new.size() != n || new_to_old.size() != n) {
      return Status::Corruption(path + ": permutation size mismatch");
    }
    if (validate) {
      // Mutual-inverse scan proves both directions are bijections without
      // allocating a seen-bitmap.
      for (NodeId i = 0; i < n; ++i) {
        if (old_to_new[i] >= n || new_to_old[old_to_new[i]] != i) {
          return Status::Corruption(path +
                                    ": permutation directions inconsistent");
        }
      }
    }
    bundle.permutation = Permutation::Borrowed(old_to_new, new_to_old);
  }

  if (file->FindSection(kSecLandmarkIds) != nullptr) {
    std::span<const NodeId> landmark_ids;
    std::span<const uint32_t> dist_from, dist_to;
    KPJ_RETURN_IF_ERROR(require(kSecLandmarkIds, landmark_ids));
    KPJ_RETURN_IF_ERROR(require(kSecLmDistFrom, dist_from));
    KPJ_RETURN_IF_ERROR(require(kSecLmDistTo, dist_to));
    Result<LandmarkIndex> landmarks = LandmarkIndex::FromParts(
        n, std::vector<NodeId>(landmark_ids.begin(), landmark_ids.end()),
        ArrayRef<uint32_t>::Borrowed(dist_from),
        ArrayRef<uint32_t>::Borrowed(dist_to));
    if (!landmarks.ok()) {
      return Status::Corruption(path + ": " + landmarks.status().message());
    }
    bundle.landmarks = std::move(landmarks).value();
  }

  if (file->FindSection(kSecCatNameOffsets) != nullptr) {
    std::span<const uint64_t> name_offsets, nodes_offsets, of_node_offsets;
    std::span<const NodeId> nodes;
    std::span<const CategoryId> of_node_entries;
    Result<std::span<const char>> blob =
        file->SectionAs<char>(kSecCatNamesBlob);
    if (!blob.ok()) return blob.status();
    KPJ_RETURN_IF_ERROR(require(kSecCatNameOffsets, name_offsets));
    KPJ_RETURN_IF_ERROR(require(kSecCatNodesOffsets, nodes_offsets));
    KPJ_RETURN_IF_ERROR(require(kSecCatNodes, nodes));
    KPJ_RETURN_IF_ERROR(require(kSecCatOfNodeOffsets, of_node_offsets));
    KPJ_RETURN_IF_ERROR(require(kSecCatOfNodeEntries, of_node_entries));
    Result<CategoryIndex> categories = CategoryIndex::FromParts(
        n, blob.value(), name_offsets,
        ArrayRef<uint64_t>::Borrowed(nodes_offsets),
        ArrayRef<NodeId>::Borrowed(nodes),
        ArrayRef<uint64_t>::Borrowed(of_node_offsets),
        ArrayRef<CategoryId>::Borrowed(of_node_entries), validate);
    if (!categories.ok()) {
      return Status::Corruption(path + ": " + categories.status().message());
    }
    bundle.categories = std::move(categories).value();
  }

  bundle.file = std::move(file);
  return bundle;
}

namespace {

Result<GraphFile> LoadV4Owned(const std::string& path) {
  Result<MappedGraphBundle> mapped = MapGraphFile(path, MappedLoadOptions{});
  if (!mapped.ok()) return mapped.status();
  MappedGraphBundle& bundle = mapped.value();
  GraphFile file;
  auto offsets = bundle.graph.offsets();
  auto adj = bundle.graph.adjacency();
  file.graph = Graph(std::vector<EdgeId>(offsets.begin(), offsets.end()),
                     std::vector<OutEdge>(adj.begin(), adj.end()));
  if (!bundle.permutation.empty()) {
    auto old_to_new = bundle.permutation.old_to_new();
    Result<Permutation> perm = Permutation::FromOldToNew(
        std::vector<NodeId>(old_to_new.begin(), old_to_new.end()));
    if (!perm.ok()) {
      return Status::Corruption(path + ": " + perm.status().message());
    }
    file.permutation = std::move(perm).value();
  }
  if (bundle.landmarks.has_value()) {
    const LandmarkIndex& lm = *bundle.landmarks;
    Result<LandmarkIndex> owned = LandmarkIndex::FromParts(
        lm.num_nodes(), lm.landmarks(),
        std::vector<uint32_t>(lm.dist_from().begin(), lm.dist_from().end()),
        std::vector<uint32_t>(lm.dist_to().begin(), lm.dist_to().end()));
    if (!owned.ok()) {
      return Status::Corruption(path + ": " + owned.status().message());
    }
    file.landmarks = std::move(owned).value();
  }
  if (bundle.categories.has_value()) {
    // Remap through the empty permutation thaws into owned mutable storage.
    file.categories = bundle.categories->Remap(Permutation());
  }
  return file;
}

}  // namespace

Result<uint32_t> PeekGraphFileVersion(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!ReadPod(in, magic) || magic != kMagic || !ReadPod(in, version)) {
    return Status::Corruption(path + ": not a kpj graph file");
  }
  return version;
}

}  // namespace kpj
