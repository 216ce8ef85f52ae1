// UnionFind and IndexedHeap unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "pprim/rng.hpp"
#include "seq/indexed_heap.hpp"
#include "seq/union_find.hpp"

namespace {

using namespace smp;
using seq::IndexedHeap;
using seq::UnionFind;

TEST(UnionFind, StartsFullyDisjoint) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(uf.find(i), i);
    for (std::uint32_t j = i + 1; j < 5; ++j) EXPECT_FALSE(uf.connected(i, j));
  }
}

TEST(UnionFind, UniteTracksSetsAndIdempotence) {
  UnionFind uf(6);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_FALSE(uf.unite(1, 0)) << "already merged";
  EXPECT_EQ(uf.num_sets(), 4u);
  EXPECT_TRUE(uf.unite(0, 2));
  EXPECT_TRUE(uf.connected(1, 3));
  EXPECT_EQ(uf.num_sets(), 3u);
}

TEST(UnionFind, ChainMergesCompress) {
  const std::uint32_t n = 10000;
  UnionFind uf(n);
  for (std::uint32_t i = 1; i < n; ++i) EXPECT_TRUE(uf.unite(i - 1, i));
  EXPECT_EQ(uf.num_sets(), 1u);
  const std::uint32_t root = uf.find(0);
  for (std::uint32_t i = 0; i < n; i += 97) EXPECT_EQ(uf.find(i), root);
}

TEST(UnionFind, RandomOperationsMatchNaiveLabels) {
  const std::uint32_t n = 300;
  UnionFind uf(n);
  std::vector<std::uint32_t> label(n);
  for (std::uint32_t i = 0; i < n; ++i) label[i] = i;
  Rng rng(99);
  for (int op = 0; op < 2000; ++op) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(n));
    const auto b = static_cast<std::uint32_t>(rng.next_below(n));
    const bool naive_merged = label[a] != label[b];
    EXPECT_EQ(uf.unite(a, b), naive_merged);
    if (naive_merged) {
      const auto from = label[b], to = label[a];
      for (auto& l : label) {
        if (l == from) l = to;
      }
    }
    if (op % 100 == 0) {
      for (std::uint32_t i = 0; i < n; i += 31) {
        for (std::uint32_t j = 0; j < n; j += 37) {
          EXPECT_EQ(uf.connected(i, j), label[i] == label[j]);
        }
      }
    }
  }
}

TEST(MinRootUnionFind, DenseLabelsNumberSetsByTheirMinimum) {
  seq::MinRootUnionFind uf(8);
  EXPECT_TRUE(uf.unite(5, 7));
  EXPECT_TRUE(uf.unite(6, 1));
  EXPECT_TRUE(uf.unite(3, 6));
  EXPECT_TRUE(uf.unite(7, 2));
  EXPECT_FALSE(uf.unite(1, 3));
  // Sets {0}, {1, 3, 6}, {2, 5, 7}, {4}, numbered in order of their minimum.
  EXPECT_EQ(std::move(uf).dense_labels(),
            (std::vector<std::uint32_t>{0, 1, 2, 1, 3, 2, 1, 2}));
}

TEST(MinRootUnionFind, RandomDenseLabelsMatchNaiveLabels) {
  const std::uint32_t n = 300;
  seq::MinRootUnionFind uf(n);
  std::vector<std::uint32_t> label(n);
  for (std::uint32_t i = 0; i < n; ++i) label[i] = i;
  Rng rng(98);
  for (int op = 0; op < 250; ++op) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(n));
    const auto b = static_cast<std::uint32_t>(rng.next_below(n));
    EXPECT_EQ(uf.unite(a, b), label[a] != label[b]);
    const auto from = std::max(label[a], label[b]);
    const auto to = std::min(label[a], label[b]);
    for (auto& l : label) {
      if (l == from) l = to;
    }
  }
  // label[x] is now the minimum of x's set; number those densely.
  std::vector<std::uint32_t> dense(n);
  std::uint32_t next = 0;
  for (std::uint32_t x = 0; x < n; ++x) dense[x] = label[x] == x ? next++ : dense[label[x]];
  EXPECT_EQ(std::move(uf).dense_labels(), dense);
}

TEST(IndexedHeap, PopsInSortedOrder) {
  IndexedHeap<int> h(100);
  Rng rng(7);
  std::vector<int> keys;
  for (std::uint32_t i = 0; i < 100; ++i) {
    const int k = static_cast<int>(rng.next_below(1000000));
    h.push(i, k);
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  for (const int expect : keys) {
    ASSERT_FALSE(h.empty());
    EXPECT_EQ(h.pop().key, expect);
  }
  EXPECT_TRUE(h.empty());
}

TEST(IndexedHeap, DecreaseKeyMovesElementUp) {
  IndexedHeap<int> h(10);
  for (std::uint32_t i = 0; i < 10; ++i) h.push(i, 100 + static_cast<int>(i));
  EXPECT_TRUE(h.decrease(7, 1));
  EXPECT_FALSE(h.decrease(7, 50)) << "not smaller than current key";
  const auto top = h.pop();
  EXPECT_EQ(top.id, 7u);
  EXPECT_EQ(top.key, 1);
}

TEST(IndexedHeap, ContainsAndKeyOfTrackMembership) {
  IndexedHeap<int> h(5);
  EXPECT_FALSE(h.contains(3));
  h.push(3, 42);
  EXPECT_TRUE(h.contains(3));
  EXPECT_EQ(h.key_of(3), 42);
  (void)h.pop();
  EXPECT_FALSE(h.contains(3));
}

TEST(IndexedHeap, PushOrDecrease) {
  IndexedHeap<int> h(4);
  h.push_or_decrease(0, 10);
  h.push_or_decrease(0, 5);
  h.push_or_decrease(0, 8);  // no-op
  EXPECT_EQ(h.key_of(0), 5);
}

TEST(IndexedHeap, ClearRetainsCapacity) {
  IndexedHeap<int> h(8);
  for (std::uint32_t i = 0; i < 8; ++i) h.push(i, static_cast<int>(i));
  h.clear();
  EXPECT_TRUE(h.empty());
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_FALSE(h.contains(i));
  h.push(2, -1);
  EXPECT_EQ(h.pop().id, 2u);
}

TEST(IndexedHeap, RandomizedAgainstMultiset) {
  IndexedHeap<std::uint64_t> h(500);
  std::vector<std::uint64_t> key(500);
  std::vector<bool> present(500, false);
  Rng rng(31);
  for (int op = 0; op < 20000; ++op) {
    const auto id = static_cast<std::uint32_t>(rng.next_below(500));
    const auto action = rng.next_below(3);
    if (action == 0 && !present[id]) {
      key[id] = rng.next();
      h.push(id, key[id]);
      present[id] = true;
    } else if (action == 1 && present[id]) {
      const std::uint64_t nk = rng.next();
      if (nk < key[id]) {
        EXPECT_TRUE(h.decrease(id, nk));
        key[id] = nk;
      } else {
        EXPECT_FALSE(h.decrease(id, nk));
      }
    } else if (action == 2 && !h.empty()) {
      const auto top = h.pop();
      // Must be the minimum among present keys.
      std::uint64_t mn = UINT64_MAX;
      for (std::uint32_t i = 0; i < 500; ++i) {
        if (present[i]) mn = std::min(mn, key[i]);
      }
      EXPECT_EQ(top.key, mn);
      present[top.id] = false;
    }
  }
}

}  // namespace
