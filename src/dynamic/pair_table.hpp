#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace smp::dynamic {

/// The key of an unordered endpoint pair {u, v}: the smaller endpoint in the
/// high word.  Never PairTable::kEmpty, since u != v.
inline std::uint64_t pair_key(graph::VertexId u, graph::VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Flat open-addressing multimap from a 64-bit key to an EdgeId: the pair
/// index of EdgeStore, (through insert_unique) the pair and id sets of
/// WriteGroup and of the serve flusher's duplicate check, and (through
/// try_emplace) the index of DynamicMsf's lightest crossing edge per pair
/// of pieces.  One array of 16-byte slots and linear probing, so an insert
/// or lookup touches one or two cache lines and allocates nothing per
/// entry.  The capacity is a power of two and doubles only when an insert
/// would push the load above 3/4; erase shifts the rest of the probe run
/// back instead of leaving a tombstone, so a long insert/erase workload
/// never degrades the probes.  Key kEmpty (~0) marks a free slot and may not be inserted; neither a
/// pair_key nor a store id (kInvalidEdge aside) is ever equal to it.
class PairTable {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Bytes the slot array holds.
  [[nodiscard]] std::size_t bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

  /// Sizes the table so that `n` entries fit without growth.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (4 * n > 3 * cap) cap *= 2;
    if (cap > slots_.size()) rehash(cap);
  }

  /// Adds (key, value), beside any entries already under `key`.
  void insert(std::uint64_t key, graph::EdgeId value) { place(key, value); }

  /// The value under `key`, after adding (key, value) if `key` is absent:
  /// for a table that holds one entry per key.  The reference lasts until
  /// the next insert.
  graph::EdgeId& try_emplace(std::uint64_t key, graph::EdgeId value) {
    if (size_ > 0) {
      for (std::size_t i = home(key); slots_[i].key != kEmpty;
           i = (i + 1) & mask_) {
        if (slots_[i].key == key) return slots_[i].value;
      }
    }
    return slots_[place(key, value)].value;
  }

  /// Adds (key, value) unless `key` is present; returns whether it added.
  bool insert_unique(std::uint64_t key, graph::EdgeId value = 0) {
    if (contains(key)) return false;
    insert(key, value);
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    if (size_ == 0) return false;
    for (std::size_t i = home(key); slots_[i].key != kEmpty;
         i = (i + 1) & mask_) {
      if (slots_[i].key == key) return true;
    }
    return false;
  }

  /// Calls f(value) for every entry under `key`, in no particular order.
  template <class F>
  void for_each(std::uint64_t key, F&& f) const {
    if (size_ == 0) return;
    for (std::size_t i = home(key); slots_[i].key != kEmpty;
         i = (i + 1) & mask_) {
      if (slots_[i].key == key) f(slots_[i].value);
    }
  }

  /// Removes one entry equal to (key, value); returns whether there was one.
  bool erase(std::uint64_t key, graph::EdgeId value) {
    if (size_ == 0) return false;
    std::size_t i = home(key);
    for (;; i = (i + 1) & mask_) {
      if (slots_[i].key == kEmpty) return false;
      if (slots_[i].key == key && slots_[i].value == value) break;
    }
    // Backward shift: pull each later entry of the probe run into the hole
    // when its home lies at or before the hole, so every entry stays
    // reachable from its home without crossing a free slot.
    for (std::size_t j = (i + 1) & mask_; slots_[j].key != kEmpty;
         j = (j + 1) & mask_) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i].key = kEmpty;
    --size_;
    return true;
  }

  /// Removes every entry and returns the slot array to the allocator.
  void clear() {
    std::vector<Slot>().swap(slots_);
    mask_ = 0;
    size_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t key;
    graph::EdgeId value;
  };
  static constexpr std::size_t kMinCapacity = 16;

  /// murmur3's 64-bit finalizer: every key bit reaches the low bits the mask
  /// keeps (a pair_key's low word alone is just the larger endpoint).
  [[nodiscard]] std::size_t home(std::uint64_t k) const {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return static_cast<std::size_t>(k) & mask_;
  }

  /// Adds (key, value) and returns its slot.
  std::size_t place(std::uint64_t key, graph::EdgeId value) {
    if (4 * (size_ + 1) > 3 * slots_.size()) {
      rehash(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    }
    std::size_t i = home(key);
    while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
    slots_[i] = Slot{key, value};
    ++size_;
    return i;
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity, Slot{kEmpty, 0});
    old.swap(slots_);
    mask_ = capacity - 1;
    for (const Slot& s : old) {
      if (s.key == kEmpty) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace smp::dynamic
