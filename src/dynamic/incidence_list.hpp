#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "dynamic/edge_store.hpp"
#include "graph/types.hpp"
#include "pprim/thread_team.hpp"

namespace smp::dynamic {

/// Per-vertex incidence lists of an EdgeStore's slots, as 32-bit store ids:
/// each slot [0, covered()) appears once in the list of each endpoint.
///
/// The lists are a CSR over the slots present when they were built, plus a
/// tail per vertex for the slots appended since: chunk-linked arrays, newest
/// chunk first, in the manner of the flexible adjacency list (§2.3 of the
/// paper).  Slots are listed live or dead; a reader takes liveness from the
/// store's slot stamps.  Ids stay valid until the store is compacted, which
/// is when the owner clears the lists.
class IncidenceList {
 public:
  /// Largest slot count the lists can hold: ids are stored in 32 bits.
  static constexpr graph::EdgeId kMaxSlots =
      std::numeric_limits<std::uint32_t>::max();

  /// Brings the lists up to slots [0, end) of `store`, covered() <= end <=
  /// kMaxSlots.  Builds the CSR on `team` on first use, and again once the
  /// tails would hold more arcs than it; otherwise appends [covered(), end)
  /// to the tails.  On an exception the lists are left empty, never
  /// half-written.
  void sync(ThreadTeam& team, const EdgeStore& store, graph::EdgeId end);
  /// Drops the lists and their memory.
  void clear();
  [[nodiscard]] graph::EdgeId covered() const { return covered_; }

  /// The arcs of one vertex, read one at a time.
  struct Cursor {
    const std::uint32_t* pos;
    const std::uint32_t* end;
    std::uint32_t chunk;  ///< the next tail chunk, or kNoChunk
    graph::VertexId x;
  };
  [[nodiscard]] Cursor arcs(graph::VertexId x) const {
    const std::uint32_t* base = arcs_.data();
    return Cursor{base + start_[x], base + start_[x + 1], tail_[x], x};
  }
  /// Starts loading what arcs(x) reads into the cache.
  void prefetch(graph::VertexId x) const {
    __builtin_prefetch(start_.data() + x);
    __builtin_prefetch(tail_.data() + x);
  }
  /// Starts loading the first of x's arcs into the cache.
  void prefetch_arcs(graph::VertexId x) const {
    __builtin_prefetch(arcs_.data() + start_[x]);
  }
  /// Steps `c` to its next arc, storing the store id in `id`; false when the
  /// vertex has no arcs left.
  bool next(Cursor& c, std::uint32_t& id) const {
    while (c.pos == c.end) {
      if (c.chunk == kNoChunk) return false;
      const Chunk& k = chunks_[c.chunk];
      c.pos = k.ids;
      c.end = k.ids + k.count;
      c.chunk = k.next;
    }
    id = *c.pos++;
    return true;
  }

 private:
  static constexpr std::uint32_t kNoChunk =
      std::numeric_limits<std::uint32_t>::max();
  struct Chunk {
    std::uint32_t next;  ///< the vertex's next older chunk, or kNoChunk
    std::uint32_t count;
    std::uint32_t ids[6];
  };

  void build(ThreadTeam& team, const EdgeStore& store, graph::EdgeId end);
  void append(graph::VertexId x, std::uint32_t id);

  std::vector<std::size_t> start_;    ///< n + 1 CSR offsets; empty if unbuilt
  std::vector<std::uint32_t> arcs_;   ///< the CSR's store ids
  std::vector<std::uint32_t> tail_;   ///< n newest-chunk indices
  std::vector<Chunk> chunks_;
  std::size_t tail_arcs_ = 0;
  graph::EdgeId covered_ = 0;
};

}  // namespace smp::dynamic
