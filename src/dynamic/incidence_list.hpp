#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "dynamic/edge_store.hpp"
#include "graph/types.hpp"
#include "pprim/huge_pages.hpp"
#include "pprim/partition.hpp"
#include "pprim/thread_team.hpp"

namespace smp::dynamic {

/// Lists `m` edges under both of their ends, on `team`: a CSR over `n`
/// vertices whose run for vertex x holds one arc per edge at x, in
/// ascending edge index.  `edge(i)` returns edge i (a graph::WEdge), and
/// `put(at, i, e, y)` writes the arc of edge i = e toward its end y at
/// position `at` of the caller's array of 2m arcs, which need not be
/// initialized.  Writes `start[0, n]`, the runs' offsets, which need not be
/// initialized either.  Each thread counts, and then places, the arcs of
/// one block of edges in a row of n counters it clears itself, so nothing
/// is filled on the calling thread.
template <class EdgeAt, class Put>
void build_team_csr(ThreadTeam& team, std::size_t n, std::size_t m,
                    std::size_t* start, EdgeAt&& edge, Put&& put) {
  const auto p = static_cast<std::size_t>(team.size());
  // count[t * n + x]: thread t's arcs at x, then where they start in x's run.
  const auto count = make_huge_for_overwrite<std::uint32_t>(p * n);
  std::vector<std::size_t> block_sum(p + 1, 0);
  team.run([&](TeamCtx& ctx) {
    const auto t = static_cast<std::size_t>(ctx.tid());
    std::uint32_t* mine = count.get() + t * n;
    std::fill(mine, mine + n, 0u);
    const IndexRange items = block_range(m, ctx.tid(), ctx.nthreads());
    for (std::size_t i = items.begin; i < items.end; ++i) {
      const graph::WEdge& e = edge(i);
      ++mine[e.u];
      ++mine[e.v];
    }
    ctx.barrier();
    // Per vertex, turn the threads' counts into offsets within its run, and
    // sum the run lengths of this thread's block of vertices.
    const IndexRange verts = block_range(n, ctx.tid(), ctx.nthreads());
    std::size_t sum = 0;
    for (std::size_t x = verts.begin; x < verts.end; ++x) {
      std::uint32_t run = 0;
      for (std::size_t u = 0; u < p; ++u) {
        const std::uint32_t c = count[u * n + x];
        count[u * n + x] = run;
        run += c;
      }
      start[x] = sum;
      sum += run;
    }
    block_sum[t + 1] = sum;
    ctx.barrier();
    std::size_t base = 0;
    for (std::size_t u = 0; u <= t; ++u) base += block_sum[u];
    for (std::size_t x = verts.begin; x < verts.end; ++x) start[x] += base;
    if (t + 1 == p) start[n] = base + sum;
    ctx.barrier();
    for (std::size_t i = items.begin; i < items.end; ++i) {
      const graph::WEdge& e = edge(i);
      put(start[e.u] + mine[e.u]++, i, e, e.v);
      put(start[e.v] + mine[e.v]++, i, e, e.u);
    }
  });
}

/// Per-vertex incidence lists of an EdgeStore's slots, as 32-bit store ids:
/// each slot [0, covered()) appears once in the list of each endpoint.
///
/// The lists are a CSR over the slots present when they were built, plus a
/// tail per vertex for the slots appended since: chunk-linked arrays, newest
/// chunk first, in the manner of the flexible adjacency list (§2.3 of the
/// paper).  The CSR is built by build_team_csr, its arrays advised for huge
/// pages.  Slots are listed live or dead; a reader takes liveness from the
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
    const std::uint32_t* base = arcs_.get();
    return Cursor{base + start_[x], base + start_[x + 1], tail_[x], x};
  }
  /// Starts loading what arcs(x) reads into the cache.
  void prefetch(graph::VertexId x) const {
    __builtin_prefetch(start_.get() + x);
    __builtin_prefetch(tail_.data() + x);
  }
  /// Starts loading the first of x's arcs into the cache.
  void prefetch_arcs(graph::VertexId x) const {
    __builtin_prefetch(arcs_.get() + start_[x]);
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

  std::unique_ptr<std::size_t[]> start_;  ///< n + 1 CSR offsets; null if unbuilt
  std::unique_ptr<std::uint32_t[]> arcs_;  ///< the CSR's store ids
  std::size_t csr_arcs_ = 0;               ///< how many
  std::vector<std::uint32_t> tail_;        ///< n newest-chunk indices
  std::vector<Chunk> chunks_;
  std::size_t tail_arcs_ = 0;
  graph::EdgeId covered_ = 0;
};

}  // namespace smp::dynamic
