#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/dir_edge.hpp"
#include "core/error.hpp"
#include "core/msf.hpp"
#include "graph/edge_list.hpp"
#include "graph/msf_result.hpp"
#include "pprim/cacheline.hpp"
#include "pprim/huge_pages.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/partition.hpp"
#include "pprim/prefix_sum.hpp"
#include "pprim/radix_sort.hpp"
#include "pprim/thread_team.hpp"
#include "seq/seq_msf.hpp"

namespace smp::core::detail {

/// Per-thread buffers for MSF edge ids found during parallel phases; avoids
/// any synchronization on the hot path and concatenates once at the end.
class EdgeCollector {
 public:
  explicit EdgeCollector(int nthreads) : slots_(static_cast<std::size_t>(nthreads)) {}

  void add(int tid, graph::EdgeId orig) {
    slots_[static_cast<std::size_t>(tid)].value.push_back(orig);
  }

  [[nodiscard]] std::size_t total() const {
    std::size_t s = 0;
    for (const auto& sl : slots_) s += sl.value.size();
    return s;
  }

  /// Move all buffers into one vector (tid order; within a tid, find order).
  std::vector<graph::EdgeId> gather() {
    std::vector<graph::EdgeId> out;
    out.reserve(total());
    for (auto& sl : slots_) {
      out.insert(out.end(), sl.value.begin(), sl.value.end());
      sl.value.clear();
    }
    return out;
  }

 private:
  std::vector<Padded<std::vector<graph::EdgeId>>> slots_;
};

/// Graceful degradation, run when a parallel solve threw std::bad_alloc
/// (heap exhaustion or the budget's arena cap).  The whole team has unwound,
/// so the request is recomputed sequentially rather than failed: Kruskal's
/// working set is the smallest of any algorithm here.  `edges()` yields the
/// input as an edge list and is called only once the fallback runs.  The
/// result is flagged degraded_to_sequential.  Throws Error{kOutOfMemory}
/// when opts.allow_sequential_fallback is false or Kruskal runs out too.
template <class Edges>
graph::MsfResult sequential_fallback(const MsfOptions& opts, Edges&& edges) {
  if (!opts.allow_sequential_fallback) {
    throw Error(ErrorCode::kOutOfMemory,
                std::string(to_string(opts.algorithm)) +
                    " exhausted its memory budget (fallback disabled)");
  }
  iteration_checkpoint(opts, "sequential fallback");
  try {
    graph::MsfResult r = seq::kruskal_msf(edges());
    r.degraded_to_sequential = true;
    return r;
  } catch (const std::bad_alloc&) {
    throw Error(ErrorCode::kOutOfMemory,
                "sequential fallback also exhausted memory");
  }
}

/// Ids per dynamically claimed chunk of assemble_result's flag pass.
inline constexpr std::size_t kAssembleMarkChunk = 4096;

/// Builds the public result from the selected input-edge ids of a graph
/// with n vertices and m edges, in ascending id order: the canonical order
/// that makes the result bit-identical across thread counts and
/// scheduling.  The team flags the ids in an m-byte map, counts the flags
/// per block of the id space, and emits each block's ids and edges at its
/// scanned offset; every pass claims its blocks dynamically
/// (dynamic_block_count).  Each thread sums the weights it emits in an
/// ExactSum of its own, and the merged sum rounds once, so total_weight does
/// not depend on which thread took which block.  `walk(begin, end, fn)` calls
/// fn(e, edge) for every input edge e in [begin, end) in ascending order;
/// `ids` must be distinct and below m.  Fork-join.
template <class Walk>
graph::MsfResult assemble_result(ThreadTeam& team, graph::VertexId n,
                                 std::size_t m, std::vector<graph::EdgeId> ids,
                                 Walk walk) {
  graph::MsfResult res;
  const std::size_t k = ids.size();
  res.edge_ids = std::move(ids);
  reserve_huge(res.edges, k);
  res.edges.resize(k);
  auto flags = make_huge_for_overwrite<std::uint8_t>(m);
  const std::size_t blocks = dynamic_block_count(m, team.size());
  std::vector<std::size_t> at(blocks);
  std::atomic<std::size_t> clear_cursor{0};
  std::atomic<std::size_t> mark_cursor{0};
  std::atomic<std::size_t> count_cursor{0};
  std::atomic<std::size_t> emit_cursor{0};
  std::vector<graph::ExactSum> sums(static_cast<std::size_t>(team.size()));
  team.run([&](TeamCtx& ctx) {
    for_range_dynamic(ctx, clear_cursor, blocks, 1, [&](std::size_t b) {
      const IndexRange r = dynamic_block(m, b, blocks);
      std::fill(flags.get() + r.begin, flags.get() + r.end, std::uint8_t{0});
    });
    ctx.barrier();
    for_range_dynamic(ctx, mark_cursor, k, kAssembleMarkChunk,
                      [&](std::size_t i) { flags[res.edge_ids[i]] = 1; });
    ctx.barrier();
    for_range_dynamic(ctx, count_cursor, blocks, 1, [&](std::size_t b) {
      const IndexRange r = dynamic_block(m, b, blocks);
      std::size_t c = 0;
      for (std::size_t e = r.begin; e < r.end; ++e) c += flags[e];
      at[b] = c;
    });
    ctx.barrier();
    if (ctx.tid() == 0) exclusive_scan_seq(std::span<std::size_t>(at));
    ctx.barrier();
    for_range_dynamic(ctx, emit_cursor, blocks, 1, [&](std::size_t b) {
      const IndexRange r = dynamic_block(m, b, blocks);
      std::size_t pos = at[b];
      graph::ExactSum& sum = sums[static_cast<std::size_t>(ctx.tid())];
      walk(graph::EdgeId{r.begin}, graph::EdgeId{r.end},
           [&](graph::EdgeId e, const graph::WEdge& edge) {
             if (flags[e] == 0) return;
             res.edge_ids[pos] = e;
             res.edges[pos] = edge;
             sum.add(edge.w);
             ++pos;
           });
    });
  });
  for (std::size_t t = 1; t < sums.size(); ++t) sums[0].add(sums[t]);
  res.total_weight = sums[0].value();
  res.num_trees = n - res.edges.size();
  return res;
}

/// assemble_result over an edge list (every engine's epilogue).
graph::MsfResult assemble_result(ThreadTeam& team, const graph::EdgeList& input,
                                 std::vector<graph::EdgeId> ids);

/// Team-shared scratch for compact_arcs_in_region.  Grow-only within a
/// plateau: the fused Borůvka loop allocates once and later iterations
/// (whose arc count only shrinks) reuse the capacity — until the arc count
/// collapses far below it, at which point maybe_release() returns the peak
/// slabs to the allocator (and thus to the arena memory-cap headroom)
/// instead of pinning iteration-1-sized buffers until solve end.
struct CompactScratch {
  std::vector<graph::EdgeId> keep;
  std::vector<DirEdge> filtered;
  std::vector<graph::EdgeId> head;
  std::vector<DirEdge> out;
  RadixSortScratch<DirEdge> radix;
  ScanScratch<graph::EdgeId> scan;
  /// Per-⟨u,v⟩-group index of the lightest arc (atomics are not movable,
  /// hence the manual grow-only buffer instead of a vector).
  std::unique_ptr<std::atomic<graph::EdgeId>[]> winner;
  std::size_t winner_cap = 0;

  /// Bytes currently retained across all member buffers (capacity, not size).
  [[nodiscard]] std::size_t footprint_bytes() const;

  /// Release every retained buffer when `need` (the arc count about to be
  /// compacted) has dropped below 1/kShrinkDivisor of the largest retained
  /// capacity — the next compact re-allocates at the new, smaller scale.
  /// Single-threaded: call on tid 0 behind a barrier (compact_arcs_in_region
  /// does) or outside any region.
  void maybe_release(std::size_t need);

  /// Capacity ratio that triggers maybe_release.  4x means a release can
  /// recoup at least ~75% of the retained bytes.
  static constexpr std::size_t kShrinkDivisor = 4;
  /// Never bother releasing below this many retained arcs' worth of buffers.
  static constexpr std::size_t kShrinkFloor = std::size_t{1} << 14;
};

/// In-region compact-graph (Bor-EL §2.1; also MST-BC's between-rounds
/// contraction): relabel endpoints through `labels`, drop self-loops, sort
/// so multi-edges between the same supervertex pair become consecutive, and
/// keep only the lightest arc of every ⟨u, v⟩ group.  Replaces `arcs` in
/// place.  All team threads call it inside an open SPMD region with
/// identical arguments; the final barrier publishes the result.
///
/// ⟨u, v⟩ packs into one uint64_t (VertexId is 32 bits), so the sort is a
/// packed-key LSD radix sort; group minima are then resolved by atomic
/// write-min under the WeightOrder total order — the same deduplicated
/// output the paper's three-field comparator sort (§2.1) produces.
void compact_arcs_in_region(TeamCtx& ctx, std::vector<DirEdge>& arcs,
                            std::span<const graph::VertexId> labels,
                            CompactScratch& scratch);

}  // namespace smp::core::detail
