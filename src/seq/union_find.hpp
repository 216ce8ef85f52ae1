#pragma once

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "pprim/huge_pages.hpp"

namespace smp::seq {

/// Disjoint-set forest with union by rank and path halving.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), rank_(n, 0), num_sets_(n) {
    std::iota(parent_.begin(), parent_.end(), std::uint32_t{0});
  }

  [[nodiscard]] std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Merge the sets of a and b; returns false if already joined.
  bool unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b]) ++rank_[a];
    --num_sets_;
    return true;
  }

  [[nodiscard]] bool connected(std::uint32_t a, std::uint32_t b) {
    return find(a) == find(b);
  }

  /// Raw parent pointer, read without the path-halving writes of find()
  /// (Dendrogram's run layout uses it to test for roots).
  [[nodiscard]] std::uint32_t parent_of(std::uint32_t x) const { return parent_[x]; }

  [[nodiscard]] std::size_t num_sets() const { return num_sets_; }
  [[nodiscard]] std::size_t size() const { return parent_.size(); }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
  std::size_t num_sets_;
};

/// Disjoint-set forest that links the larger root under the smaller one,
/// with path halving.  Every root is its set's minimum element, so the
/// flattened labels depend only on the partition, never on the order of the
/// unions.
class MinRootUnionFind {
 public:
  explicit MinRootUnionFind(std::size_t n) {
    reserve_huge(parent_, n);
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), std::uint32_t{0});
  }

  [[nodiscard]] std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Merge the sets of a and b; returns false if already joined.
  bool unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (a < b) {
      parent_[b] = a;
    } else {
      parent_[a] = b;
    }
    return true;
  }

  /// Points every element straight at its root (the set minimum) and hands
  /// the array over as labels; the structure is empty afterwards.
  [[nodiscard]] std::vector<std::uint32_t> flatten() && {
    for (std::uint32_t x = 0; x < parent_.size(); ++x) {
      parent_[x] = parent_[parent_[x]];  // parent_[x] <= x is already flat
    }
    return std::move(parent_);
  }

  /// Numbers the sets densely, in ascending order of their minimum, and
  /// hands the array over as labels in [0, number of sets); the structure
  /// is empty afterwards.  One ascending pass: parent_[x] <= x, so x's
  /// parent already holds its set's label when x is reached.
  [[nodiscard]] std::vector<std::uint32_t> dense_labels() && {
    std::uint32_t next = 0;
    for (std::uint32_t x = 0; x < parent_.size(); ++x) {
      const std::uint32_t p = parent_[x];
      parent_[x] = p == x ? next++ : parent_[p];
    }
    return std::move(parent_);
  }

  /// Hints x's parent slot into the cache ahead of a find on x.
  void prefetch(std::uint32_t x) const { __builtin_prefetch(&parent_[x]); }

 private:
  std::vector<std::uint32_t> parent_;
};

}  // namespace smp::seq
