#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace smp::dynamic {

/// Store slots per block of a forest membership bitmap.
inline constexpr std::size_t kForestBlockSlots = std::size_t{1} << 15;

/// A forest as one membership bit per store slot, kept in blocks of
/// kForestBlockSlots slots, each held by a shared pointer; a null block
/// holds no forest edge.  DynamicMsf writes its table and blocks in place
/// until it shares them (DynamicMsf::share_forest).  Sharing seals every
/// block: a later write copies the table and each sealed block it touches
/// first, so a ForestView keeps reading the bits it was given and still
/// shares every block the writer did not touch.
struct ForestBits {
  struct Block {
    /// The owner's seal count when the block was made: it may be written
    /// in place only while that count is unchanged.
    std::uint64_t seal = 0;
    std::array<std::uint64_t, kForestBlockSlots / 64> words{};
  };
  std::uint64_t seal = 0;  ///< as Block::seal, for the table
  std::vector<std::shared_ptr<Block>> blocks;

  [[nodiscard]] bool contains(graph::EdgeId id) const {
    const std::size_t b = static_cast<std::size_t>(id / kForestBlockSlots);
    if (b >= blocks.size() || blocks[b] == nullptr) return false;
    const std::size_t s = static_cast<std::size_t>(id % kForestBlockSlots);
    return (blocks[b]->words[s / 64] >> (s % 64) & 1) != 0;
  }

  /// Calls fn(id) for every member, in ascending id order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      if (blocks[b] == nullptr) continue;
      const auto& words = blocks[b]->words;
      for (std::size_t w = 0; w < words.size(); ++w) {
        for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
          fn(graph::EdgeId{b * kForestBlockSlots + 64 * w +
                           static_cast<std::size_t>(std::countr_zero(bits))});
        }
      }
    }
  }
};

/// An immutable forest shared out of a DynamicMsf: its membership bits, its
/// edge count and its version.  Two views with the same version hold the
/// same forest, edge for edge and id for id; versions are unique across
/// every DynamicMsf of the process.  Copying a view is O(1).
class ForestView {
 public:
  ForestView() = default;
  ForestView(std::shared_ptr<const ForestBits> bits, std::size_t size,
             std::uint64_t version)
      : bits_(std::move(bits)), size_(size), version_(version) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] bool contains(graph::EdgeId id) const {
    return bits_ != nullptr && bits_->contains(id);
  }
  /// The forest as ascending store ids.  O(slots / 64 + size).
  [[nodiscard]] std::vector<graph::EdgeId> ids() const {
    std::vector<graph::EdgeId> out;
    out.reserve(size_);
    if (bits_ != nullptr) bits_->for_each([&](graph::EdgeId id) { out.push_back(id); });
    return out;
  }

 private:
  std::shared_ptr<const ForestBits> bits_;
  std::size_t size_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace smp::dynamic
