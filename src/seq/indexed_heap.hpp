#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

namespace smp::seq {

/// Binary min-heap over items identified by dense ids 0..n-1 with
/// decrease-key — the heap behind both sequential Prim and each processor's
/// private heap in MST-BC (Alg. 2 of the paper uses heap_insert /
/// heap_extract_min / heap_decrease_key on exactly this structure).
///
/// `Key` must be strict-weak-ordered by `Less`.
template <class Key, class Less = std::less<Key>>
class IndexedHeap {
 public:
  explicit IndexedHeap(std::uint32_t capacity, Less less = Less())
      : pos_(capacity, kAbsent), less_(less) {}

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] bool contains(std::uint32_t id) const { return pos_[id] != kAbsent; }

  [[nodiscard]] const Key& key_of(std::uint32_t id) const {
    assert(contains(id));
    return heap_[pos_[id]].key;
  }

  /// Insert a new id (must not be present).
  void push(std::uint32_t id, const Key& key) {
    assert(!contains(id));
    heap_.push_back(Node{key, id});
    pos_[id] = static_cast<std::uint32_t>(heap_.size() - 1);
    sift_up(heap_.size() - 1);
  }

  /// Lower the key of a present id; no-op if the new key is not smaller.
  bool decrease(std::uint32_t id, const Key& key) {
    assert(contains(id));
    const std::uint32_t i = pos_[id];
    if (!less_(key, heap_[i].key)) return false;
    heap_[i].key = key;
    sift_up(i);
    return true;
  }

  /// Insert or decrease, whichever applies.
  void push_or_decrease(std::uint32_t id, const Key& key) {
    if (contains(id)) {
      decrease(id, key);
    } else {
      push(id, key);
    }
  }

  struct Entry {
    std::uint32_t id;
    Key key;
  };

  /// Remove and return the minimum element.
  Entry pop() {
    assert(!heap_.empty());
    Entry top{heap_[0].id, heap_[0].key};
    pos_[top.id] = kAbsent;
    if (heap_.size() > 1) {
      heap_[0] = heap_.back();
      pos_[heap_[0].id] = 0;
      heap_.pop_back();
      sift_down(0);
    } else {
      heap_.pop_back();
    }
    return top;
  }

  /// Drop all contents (capacity retained).
  void clear() {
    for (const auto& nd : heap_) pos_[nd.id] = kAbsent;
    heap_.clear();
  }

 private:
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

  struct Node {
    Key key;
    std::uint32_t id;
  };

  void sift_up(std::size_t i) {
    Node nd = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less_(nd.key, heap_[parent].key)) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i].id] = static_cast<std::uint32_t>(i);
      i = parent;
    }
    heap_[i] = nd;
    pos_[nd.id] = static_cast<std::uint32_t>(i);
  }

  void sift_down(std::size_t i) {
    Node nd = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && less_(heap_[child + 1].key, heap_[child].key)) {
        ++child;
      }
      if (!less_(heap_[child].key, nd.key)) break;
      heap_[i] = heap_[child];
      pos_[heap_[i].id] = static_cast<std::uint32_t>(i);
      i = child;
    }
    heap_[i] = nd;
    pos_[nd.id] = static_cast<std::uint32_t>(i);
  }

  std::vector<Node> heap_;
  std::vector<std::uint32_t> pos_;
  Less less_;
};

}  // namespace smp::seq
