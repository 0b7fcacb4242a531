#include "index/category_index.h"

#include <algorithm>
#include <fstream>

#include "util/logging.h"

namespace kpj {
namespace {

constexpr uint64_t kMagic = 0x4b504a4341543031ULL;  // "KPJCAT01"

template <typename T>
bool WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  return static_cast<bool>(out);
}

template <typename T>
bool ReadPod(std::ifstream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

CategoryIndex::CategoryIndex(NodeId num_nodes) : num_nodes_(num_nodes) {
  categories_by_node_.resize(num_nodes);
}

CategoryId CategoryIndex::AddCategory(std::string name) {
  KPJ_CHECK(!frozen_) << "cannot add categories to a frozen index";
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  CategoryId id = static_cast<CategoryId>(names_.size());
  by_name_.emplace(name, id);
  names_.push_back(std::move(name));
  nodes_by_category_.emplace_back();
  return id;
}

std::optional<CategoryId> CategoryIndex::Find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

const std::string& CategoryIndex::Name(CategoryId category) const {
  KPJ_CHECK(category < names_.size());
  return names_[category];
}

void CategoryIndex::Assign(NodeId node, CategoryId category) {
  KPJ_CHECK(!frozen_) << "cannot assign nodes in a frozen index";
  KPJ_CHECK(node < num_nodes_);
  KPJ_CHECK(category < names_.size());
  auto& cats = categories_by_node_[node];
  auto cit = std::lower_bound(cats.begin(), cats.end(), category);
  if (cit != cats.end() && *cit == category) return;  // Already assigned.
  cats.insert(cit, category);
  auto& nodes = nodes_by_category_[category];
  auto nit = std::lower_bound(nodes.begin(), nodes.end(), node);
  nodes.insert(nit, node);
}

std::span<const NodeId> CategoryIndex::Nodes(CategoryId category) const {
  if (frozen_) {
    KPJ_CHECK(category < names_.size());
    return {cat_nodes_.data() + cat_offsets_[category],
            cat_nodes_.data() + cat_offsets_[category + 1]};
  }
  KPJ_CHECK(category < nodes_by_category_.size());
  return nodes_by_category_[category];
}

std::span<const CategoryId> CategoryIndex::CategoriesOf(NodeId node) const {
  KPJ_CHECK(node < num_nodes_);
  if (frozen_) {
    return {node_cats_.data() + node_offsets_[node],
            node_cats_.data() + node_offsets_[node + 1]};
  }
  return categories_by_node_[node];
}

bool CategoryIndex::Belongs(NodeId node, CategoryId category) const {
  auto cats = CategoriesOf(node);
  return std::binary_search(cats.begin(), cats.end(), category);
}

CategoryIndex CategoryIndex::Remap(const Permutation& permutation) const {
  const bool identity = permutation.empty();
  KPJ_CHECK(identity || permutation.size() == num_nodes_)
      << "permutation size " << permutation.size() << " != node universe "
      << num_nodes_;
  // Built from the read accessors so frozen sources thaw into owned
  // storage (Remap's result must be mutable and mapping-independent).
  CategoryIndex out(num_nodes_);
  out.names_ = names_;
  out.by_name_ = by_name_;
  out.nodes_by_category_.resize(names_.size());
  for (CategoryId c = 0; c < names_.size(); ++c) {
    auto nodes = Nodes(c);
    auto& remapped = out.nodes_by_category_[c];
    remapped.reserve(nodes.size());
    for (NodeId v : nodes) remapped.push_back(permutation.ToNew(v));
    std::sort(remapped.begin(), remapped.end());
  }
  for (NodeId old_id = 0; old_id < num_nodes_; ++old_id) {
    auto cats = CategoriesOf(old_id);
    out.categories_by_node_[permutation.ToNew(old_id)].assign(cats.begin(),
                                                              cats.end());
  }
  return out;
}

bool CategoryIndex::Equals(const CategoryIndex& other) const {
  if (num_nodes_ != other.num_nodes_ || names_ != other.names_) return false;
  for (CategoryId c = 0; c < names_.size(); ++c) {
    auto a = Nodes(c);
    auto b = other.Nodes(c);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) return false;
  }
  return true;
}

Status CategoryIndex::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  uint64_t num_categories = names_.size();
  if (!WritePod(out, kMagic) || !WritePod(out, num_nodes_) ||
      !WritePod(out, num_categories)) {
    return Status::IoError("write failed for " + path);
  }
  for (CategoryId c = 0; c < names_.size(); ++c) {
    auto nodes = Nodes(c);
    uint64_t name_len = names_[c].size();
    uint64_t count = nodes.size();
    if (!WritePod(out, name_len)) return Status::IoError("write failed");
    out.write(names_[c].data(), static_cast<std::streamsize>(name_len));
    if (!WritePod(out, count)) return Status::IoError("write failed");
    out.write(reinterpret_cast<const char*>(nodes.data()),
              static_cast<std::streamsize>(count * sizeof(NodeId)));
    if (!out) return Status::IoError("write failed for " + path);
  }
  return Status::Ok();
}

Result<CategoryIndex> CategoryIndex::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  uint64_t magic = 0;
  NodeId num_nodes = 0;
  uint64_t num_categories = 0;
  if (!ReadPod(in, magic) || magic != kMagic) {
    return Status::Corruption(path + ": bad magic");
  }
  if (!ReadPod(in, num_nodes) || !ReadPod(in, num_categories) ||
      num_categories > (1ULL << 32)) {
    return Status::Corruption(path + ": bad header");
  }
  CategoryIndex index(num_nodes);
  for (uint64_t c = 0; c < num_categories; ++c) {
    uint64_t name_len = 0;
    if (!ReadPod(in, name_len) || name_len > (1ULL << 20)) {
      return Status::Corruption(path + ": bad category name length");
    }
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    uint64_t count = 0;
    if (!in || !ReadPod(in, count) || count > num_nodes) {
      return Status::Corruption(path + ": bad category size");
    }
    std::vector<NodeId> nodes(count);
    in.read(reinterpret_cast<char*>(nodes.data()),
            static_cast<std::streamsize>(count * sizeof(NodeId)));
    if (!in) return Status::Corruption(path + ": truncated");
    CategoryId id = index.AddCategory(std::move(name));
    for (NodeId v : nodes) {
      if (v >= num_nodes) {
        return Status::Corruption(path + ": node id out of range");
      }
      index.Assign(v, id);
    }
  }
  return index;
}

Result<CategoryIndex> CategoryIndex::FromParts(
    NodeId num_nodes, std::span<const char> names_blob,
    std::span<const uint64_t> name_offsets, ArrayRef<uint64_t> cat_offsets,
    ArrayRef<NodeId> cat_nodes, ArrayRef<uint64_t> node_offsets,
    ArrayRef<CategoryId> node_cats, bool validate) {
  if (name_offsets.empty()) {
    return Status::Corruption("category section: missing name offsets");
  }
  const size_t num_categories = name_offsets.size() - 1;
  if (name_offsets.front() != 0 ||
      name_offsets.back() != names_blob.size()) {
    return Status::Corruption("category section: name offsets out of range");
  }
  if (cat_offsets.size() != num_categories + 1 ||
      node_offsets.size() != static_cast<size_t>(num_nodes) + 1) {
    return Status::Corruption("category section: offset array size mismatch");
  }
  if (cat_offsets.front() != 0 || cat_offsets.back() != cat_nodes.size() ||
      node_offsets.front() != 0 || node_offsets.back() != node_cats.size()) {
    return Status::Corruption("category section: offsets/entries disagree");
  }

  // Frozen mode reads the CSR arrays, so no per-node vectors are built:
  // a trusted mapped open stays O(1) in the node count.
  CategoryIndex index;
  index.num_nodes_ = num_nodes;
  index.names_.reserve(num_categories);
  for (size_t c = 0; c < num_categories; ++c) {
    if (name_offsets[c] > name_offsets[c + 1]) {
      return Status::Corruption("category section: name offsets not monotone");
    }
    std::string name(names_blob.data() + name_offsets[c],
                     name_offsets[c + 1] - name_offsets[c]);
    if (index.by_name_.count(name) != 0) {
      return Status::Corruption("category section: duplicate category name");
    }
    index.by_name_.emplace(name, static_cast<CategoryId>(c));
    index.names_.push_back(std::move(name));
  }

  if (validate) {
    auto check_csr = [](std::span<const uint64_t> offsets,
                        size_t id_bound, auto ids) {
      for (size_t i = 0; i + 1 < offsets.size(); ++i) {
        if (offsets[i] > offsets[i + 1]) return false;
        for (uint64_t j = offsets[i]; j < offsets[i + 1]; ++j) {
          if (ids[j] >= id_bound) return false;
          if (j > offsets[i] && ids[j - 1] >= ids[j]) {
            return false;  // Rows must be strictly ascending (sorted sets).
          }
        }
      }
      return true;
    };
    if (!check_csr(cat_offsets.view(), num_nodes, cat_nodes.view()) ||
        !check_csr(node_offsets.view(), num_categories, node_cats.view())) {
      return Status::Corruption("category section: malformed CSR rows");
    }
  }

  index.frozen_ = true;
  index.cat_offsets_ = std::move(cat_offsets);
  index.cat_nodes_ = std::move(cat_nodes);
  index.node_offsets_ = std::move(node_offsets);
  index.node_cats_ = std::move(node_cats);
  return index;
}

}  // namespace kpj
