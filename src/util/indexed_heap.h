#ifndef KPJ_UTIL_INDEXED_HEAP_H_
#define KPJ_UTIL_INDEXED_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace kpj {

/// What IndexedHeap::PushOrDecrease did with an item.
enum class HeapUpdate : uint8_t {
  kPushed,     // The item was absent and is now in the heap.
  kDecreased,  // The item was present and its key fell.
  kUnchanged,  // The item was present with a key no larger than the new one.
};

/// Indexed d-ary min-heap over item ids `[0, capacity)` with decrease-key.
///
/// This is the priority queue used by all Dijkstra/A* style searches: items
/// are node ids, keys are (estimated) distances. `d = 4` trades a slightly
/// deeper sift-up for much cheaper sift-down, which wins on the
/// relax-dominated workloads of sparse road networks.
///
/// All operations are O(log n); `Contains`/`KeyOf` are O(1).
template <typename Key, int kArity = 4>
class IndexedHeap {
 public:
  /// Creates a heap able to hold ids in `[0, capacity)`.
  explicit IndexedHeap(size_t capacity = 0) { Reset(capacity); }

  /// Resizes and clears. Existing contents are discarded.
  void Reset(size_t capacity) {
    pos_.assign(capacity, kAbsent);
    heap_.clear();
  }

  /// Removes all items but keeps capacity. O(size).
  void Clear() {
    for (const Entry& e : heap_) pos_[e.id] = kAbsent;
    heap_.clear();
  }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  size_t capacity() const { return pos_.size(); }

  bool Contains(uint32_t id) const {
    KPJ_DCHECK(id < pos_.size());
    return pos_[id] != kAbsent;
  }

  /// Current key of a contained item.
  Key KeyOf(uint32_t id) const {
    KPJ_DCHECK(Contains(id));
    return heap_[pos_[id]].key;
  }

  /// Inserts a new item; `id` must not be contained.
  void Push(uint32_t id, Key key) {
    KPJ_DCHECK(id < pos_.size());
    KPJ_DCHECK(!Contains(id));
    heap_.push_back(Entry{key, id});
    pos_[id] = heap_.size() - 1;
    SiftUp(heap_.size() - 1);
  }

  /// Lowers the key of a contained item; `key` must be <= current key.
  void DecreaseKey(uint32_t id, Key key) {
    KPJ_DCHECK(Contains(id));
    DecreaseAt(pos_[id], key);
  }

  /// Inserts an absent item, or lowers a contained item's key to `key` if
  /// that is smaller, and reports which case applied — one position probe
  /// answers both the update and the caller's push/decrease accounting.
  HeapUpdate PushOrDecrease(uint32_t id, Key key) {
    KPJ_DCHECK(id < pos_.size());
    const size_t i = pos_[id];
    if (i == kAbsent) {
      Push(id, key);
      return HeapUpdate::kPushed;
    }
    if (key < heap_[i].key) {
      DecreaseAt(i, key);
      return HeapUpdate::kDecreased;
    }
    return HeapUpdate::kUnchanged;
  }

  /// Minimum key; heap must be non-empty.
  Key TopKey() const {
    KPJ_DCHECK(!empty());
    return heap_[0].key;
  }

  /// Id of the minimum item; heap must be non-empty.
  uint32_t TopId() const {
    KPJ_DCHECK(!empty());
    return heap_[0].id;
  }

  /// Removes and returns the id of the minimum item.
  uint32_t Pop() {
    KPJ_DCHECK(!empty());
    uint32_t top = heap_[0].id;
    pos_[top] = kAbsent;
    Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = last;
      pos_[last.id] = 0;
      SiftDown(0);
    }
    return top;
  }

  /// Removes and returns the minimum (id, key) pair.
  std::pair<uint32_t, Key> PopWithKey() {
    Key k = TopKey();
    return {Pop(), k};
  }

  /// Copies the internal entries in slot order into `out` as (id, key)
  /// pairs. RestoreRaw with the same sequence reproduces the identical
  /// array layout — and therefore the identical future pop order, ties
  /// included.
  void ExportRaw(std::vector<std::pair<uint32_t, Key>>* out) const {
    out->clear();
    out->reserve(heap_.size());
    for (const Entry& e : heap_) out->emplace_back(e.id, e.key);
  }

  /// Replaces the contents with entries previously obtained from
  /// ExportRaw, preserving slot order exactly. The sequence must be a
  /// valid heap over distinct ids within capacity.
  void RestoreRaw(std::span<const std::pair<uint32_t, Key>> entries) {
    Clear();
    heap_.reserve(entries.size());
    for (const auto& [id, key] : entries) {
      KPJ_DCHECK(id < pos_.size());
      KPJ_DCHECK(pos_[id] == kAbsent);
      pos_[id] = heap_.size();
      heap_.push_back(Entry{key, id});
    }
  }

 private:
  struct Entry {
    Key key;
    uint32_t id;
  };

  static constexpr size_t kAbsent = static_cast<size_t>(-1);

  void DecreaseAt(size_t i, Key key) {
    KPJ_DCHECK(!(heap_[i].key < key));
    heap_[i].key = key;
    SiftUp(i);
  }

  void SiftUp(size_t i) {
    Entry e = heap_[i];
    while (i > 0) {
      size_t parent = (i - 1) / kArity;
      if (!(e.key < heap_[parent].key)) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i].id] = i;
      i = parent;
    }
    heap_[i] = e;
    pos_[e.id] = i;
  }

  void SiftDown(size_t i) {
    Entry e = heap_[i];
    const size_t n = heap_.size();
    for (;;) {
      size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      size_t best = first_child;
      size_t end = std::min(first_child + kArity, n);
      for (size_t c = first_child + 1; c < end; ++c) {
        if (heap_[c].key < heap_[best].key) best = c;
      }
      if (!(heap_[best].key < e.key)) break;
      heap_[i] = heap_[best];
      pos_[heap_[i].id] = i;
      i = best;
    }
    heap_[i] = e;
    pos_[e.id] = i;
  }

  std::vector<size_t> pos_;   // id -> heap slot (kAbsent if not contained)
  std::vector<Entry> heap_;   // slot -> (key, id)
};

}  // namespace kpj

#endif  // KPJ_UTIL_INDEXED_HEAP_H_
