#include "util/indexed_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "util/rng.h"

namespace kpj {
namespace {

TEST(IndexedHeapTest, EmptyAfterConstruction) {
  IndexedHeap<uint64_t> heap(10);
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_EQ(heap.capacity(), 10u);
  EXPECT_FALSE(heap.Contains(3));
}

TEST(IndexedHeapTest, PushPopSingle) {
  IndexedHeap<uint64_t> heap(4);
  heap.Push(2, 42);
  EXPECT_TRUE(heap.Contains(2));
  EXPECT_EQ(heap.KeyOf(2), 42u);
  EXPECT_EQ(heap.TopId(), 2u);
  EXPECT_EQ(heap.TopKey(), 42u);
  EXPECT_EQ(heap.Pop(), 2u);
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.Contains(2));
}

TEST(IndexedHeapTest, PopsInKeyOrder) {
  IndexedHeap<uint64_t> heap(8);
  uint64_t keys[] = {5, 1, 9, 3, 7, 2, 8, 4};
  for (uint32_t i = 0; i < 8; ++i) heap.Push(i, keys[i]);
  uint64_t prev = 0;
  while (!heap.empty()) {
    uint64_t k = heap.TopKey();
    EXPECT_GE(k, prev);
    prev = k;
    heap.Pop();
  }
}

TEST(IndexedHeapTest, DecreaseKeyReordersTop) {
  IndexedHeap<uint64_t> heap(4);
  heap.Push(0, 10);
  heap.Push(1, 20);
  heap.Push(2, 30);
  heap.DecreaseKey(2, 5);
  EXPECT_EQ(heap.TopId(), 2u);
  EXPECT_EQ(heap.KeyOf(2), 5u);
}

TEST(IndexedHeapTest, PushOrDecreaseSemantics) {
  IndexedHeap<uint64_t> heap(4);
  EXPECT_EQ(heap.PushOrDecrease(1, 10), HeapUpdate::kPushed);
  EXPECT_EQ(heap.PushOrDecrease(1, 15), HeapUpdate::kUnchanged);  // Larger.
  EXPECT_EQ(heap.KeyOf(1), 10u);
  EXPECT_EQ(heap.PushOrDecrease(1, 10), HeapUpdate::kUnchanged);  // Equal.
  EXPECT_EQ(heap.PushOrDecrease(1, 4), HeapUpdate::kDecreased);
  EXPECT_EQ(heap.KeyOf(1), 4u);
  EXPECT_EQ(heap.PushOrDecrease(2, 6), HeapUpdate::kPushed);
  EXPECT_EQ(heap.Pop(), 1u);
  EXPECT_EQ(heap.Pop(), 2u);
}

TEST(IndexedHeapTest, ClearKeepsCapacityAndEmpties) {
  IndexedHeap<uint64_t> heap(6);
  for (uint32_t i = 0; i < 6; ++i) heap.Push(i, i);
  heap.Clear();
  EXPECT_TRUE(heap.empty());
  for (uint32_t i = 0; i < 6; ++i) EXPECT_FALSE(heap.Contains(i));
  heap.Push(3, 1);  // Reusable after Clear.
  EXPECT_EQ(heap.Pop(), 3u);
}

TEST(IndexedHeapTest, ReinsertAfterPop) {
  IndexedHeap<uint64_t> heap(4);
  heap.Push(1, 5);
  EXPECT_EQ(heap.Pop(), 1u);
  heap.Push(1, 2);  // Same id again (A* reopening relies on this).
  EXPECT_EQ(heap.TopId(), 1u);
  EXPECT_EQ(heap.KeyOf(1), 2u);
}

TEST(IndexedHeapTest, RandomizedAgainstMultimap) {
  Rng rng(123);
  IndexedHeap<uint64_t> heap(200);
  std::map<uint32_t, uint64_t> model;  // id -> key
  for (int round = 0; round < 5000; ++round) {
    int op = static_cast<int>(rng.NextBounded(3));
    if (op == 0) {
      uint32_t id = static_cast<uint32_t>(rng.NextBounded(200));
      uint64_t key = rng.NextBounded(1000);
      if (model.count(id) == 0) {
        heap.Push(id, key);
        model[id] = key;
      }
    } else if (op == 1 && !model.empty()) {
      // Decrease a random contained key.
      auto it = model.begin();
      std::advance(it, rng.NextBounded(model.size()));
      uint64_t nk = rng.NextBounded(it->second + 1);
      heap.DecreaseKey(it->first, nk);
      it->second = nk;
    } else if (!model.empty()) {
      uint64_t min_key = UINT64_MAX;
      for (const auto& [id, key] : model) min_key = std::min(min_key, key);
      auto [id, key] = heap.PopWithKey();
      EXPECT_EQ(key, min_key);
      EXPECT_EQ(model.at(id), key);
      model.erase(id);
    }
  }
  // Drain fully, expecting sorted keys.
  uint64_t prev = 0;
  while (!heap.empty()) {
    auto [id, key] = heap.PopWithKey();
    EXPECT_GE(key, prev);
    EXPECT_EQ(model.at(id), key);
    model.erase(id);
    prev = key;
  }
  EXPECT_TRUE(model.empty());
}

}  // namespace
}  // namespace kpj
