#include "core/detail.hpp"

#include <algorithm>

#include "core/atomic_min.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/prefix_sum.hpp"
#include "pprim/radix_sort.hpp"

namespace smp::core::detail {

using graph::EdgeId;
using graph::EdgeList;
using graph::kInvalidEdge;
using graph::MsfResult;
using graph::VertexId;

MsfResult assemble_result(ThreadTeam& team, const EdgeList& input,
                          std::vector<EdgeId> ids) {
  return assemble_result(team, input.num_vertices, input.edges.size(),
                         std::move(ids), [&](EdgeId begin, EdgeId end, auto&& fn) {
                           for (EdgeId e = begin; e < end; ++e) fn(e, input.edges[e]);
                         });
}

std::size_t CompactScratch::footprint_bytes() const {
  std::size_t b = 0;
  b += keep.capacity() * sizeof(EdgeId);
  b += filtered.capacity() * sizeof(DirEdge);
  b += head.capacity() * sizeof(EdgeId);
  b += out.capacity() * sizeof(DirEdge);
  b += radix.aux.capacity() * sizeof(DirEdge);
  b += (radix.keys.capacity() + radix.keys_aux.capacity() +
        radix.counts.capacity() + radix.scan.capacity()) *
       sizeof(std::uint64_t);
  b += winner_cap * sizeof(std::atomic<EdgeId>);
  return b;
}

void CompactScratch::maybe_release(std::size_t need) {
  // The largest per-arc buffer tracks the biggest compact seen so far; once
  // the current arc count is a small fraction of that, re-allocating at the
  // new scale is cheaper than pinning the peak slabs until solve end.
  const std::size_t retained =
      std::max({keep.capacity(), filtered.capacity(), out.capacity()});
  if (retained < kShrinkFloor) return;
  if (need >= retained / kShrinkDivisor) return;
  std::vector<EdgeId>().swap(keep);
  std::vector<DirEdge>().swap(filtered);
  std::vector<EdgeId>().swap(head);
  std::vector<DirEdge>().swap(out);
  radix = RadixSortScratch<DirEdge>{};
  winner.reset();
  winner_cap = 0;
}

void compact_arcs_in_region(TeamCtx& ctx, std::vector<DirEdge>& arcs,
                            std::span<const VertexId> labels,
                            CompactScratch& s) {
  const std::size_t m = arcs.size();
  const int p = ctx.nthreads();

  if (ctx.tid() == 0) {
    s.maybe_release(m);
    if (s.keep.size() < m) s.keep.resize(m);
    s.scan.ensure(p);
  }
  ctx.barrier();

  // Relabel and mark survivors (non-self-loops) in one pass.
  for_range(ctx, m, [&](std::size_t i) {
    DirEdge& e = arcs[i];
    e.u = labels[e.u];
    e.v = labels[e.v];
    s.keep[i] = e.u != e.v ? 1 : 0;
  });
  ctx.barrier();
  const EdgeId survivors =
      prefix_sum_in_region(ctx, std::span<EdgeId>(s.keep.data(), m), s.scan);
  if (ctx.tid() == 0) s.filtered.resize(survivors);
  ctx.barrier();
  for_range(ctx, m, [&](std::size_t i) {
    const bool live = (i + 1 < m ? s.keep[i + 1] : survivors) != s.keep[i];
    if (live) s.filtered[s.keep[i]] = arcs[i];
  });
  ctx.barrier();

  // Sort so that multi-edges between the same supervertex pair become
  // consecutive: ⟨u, v⟩ packs into one 64-bit radix key.
  static_assert(sizeof(VertexId) <= 4, "⟨u, v⟩ must pack into 64 bits");
  radix_sort_in_region(ctx, s.filtered, s.radix, [](const DirEdge& e) {
    return (static_cast<std::uint64_t>(e.u) << 32) |
           static_cast<std::uint64_t>(e.v);
  });

  // Mark ⟨u, v⟩ group heads and prefix-sum them into dense group ids.
  const std::size_t f = s.filtered.size();
  if (ctx.tid() == 0) {
    if (s.head.size() < f) s.head.resize(f);
  }
  ctx.barrier();
  for_range(ctx, f, [&](std::size_t i) {
    s.head[i] = (i == 0 || s.filtered[i].u != s.filtered[i - 1].u ||
                 s.filtered[i].v != s.filtered[i - 1].v)
                    ? 1
                    : 0;
  });
  ctx.barrier();
  const EdgeId uniques =
      prefix_sum_in_region(ctx, std::span<EdgeId>(s.head.data(), f), s.scan);
  if (ctx.tid() == 0) {
    s.out.resize(uniques);
    if (s.winner_cap < uniques) {
      s.winner = std::make_unique<std::atomic<EdgeId>[]>(uniques);
      s.winner_cap = uniques;
    }
  }
  ctx.barrier();

  // The radix sort grouped by ⟨u, v⟩ but (being stable on the packed key
  // alone) did not order groups by weight — resolve each group's lightest
  // arc by atomic write-min under the WeightOrder total order, which is
  // deterministic regardless of scheduling.
  for_range(ctx, uniques, [&](std::size_t g) {
    s.winner[g].store(kInvalidEdge, std::memory_order_relaxed);
  });
  ctx.barrier();
  const auto better = [&](EdgeId a, EdgeId b) {
    return s.filtered[a].order() < s.filtered[b].order();
  };
  for_range(ctx, f, [&](std::size_t i) {
    // After the exclusive scan, head[i] equals the group id only at head
    // positions; for every element the group id is the inclusive scan
    // (head[i+1], or `uniques` at the end) minus one.
    const EdgeId grp = (i + 1 < f ? s.head[i + 1] : uniques) - 1;
    atomic_write_min(s.winner[grp], static_cast<EdgeId>(i), better);
  });
  ctx.barrier();
  for_range(ctx, uniques, [&](std::size_t g) {
    s.out[g] = s.filtered[s.winner[g].load(std::memory_order_relaxed)];
  });
  ctx.barrier();
  if (ctx.tid() == 0) arcs.swap(s.out);
  ctx.barrier();
}

}  // namespace smp::core::detail
