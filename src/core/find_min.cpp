#include "core/find_min.hpp"

#include <algorithm>
#include <memory>

#include "core/weight_sort.hpp"
#include "pprim/huge_pages.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/partition.hpp"
#include "pprim/timer.hpp"

namespace smp::core {

namespace {

using graph::EdgeId;
using graph::VertexId;

/// build_weight_ranks over `walk`'s m edges (see gather_buckets): the
/// weight sort writes rank_to_edge, then one team pass inverts it.
template <class WeightAt, class Walk>
std::vector<std::uint32_t> build_weight_ranks_impl(
    ThreadTeam& team, std::size_t m, WeightAt w_at, Walk walk,
    std::vector<std::uint32_t>* rank_to_edge) {
  std::vector<std::uint32_t> r2e;
  std::vector<std::uint32_t>& order = rank_to_edge != nullptr ? *rank_to_edge : r2e;
  order.resize(m);
  sort_by_weight(team, m, w_at, walk, {nullptr, order.data()});
  std::vector<std::uint32_t> rank(m);
  parallel_for(team, m, [&](std::size_t r) {
    rank[order[r]] = static_cast<std::uint32_t>(r);
  });
  return rank;
}

/// The counting scatter behind every packed build: ends[r] holds the
/// endpoints of the edge of rank r (pack_ends), and each edge's two arcs go
/// to its endpoints' slices as pack_key(r, other endpoint).
///
/// Each counting thread owns one contiguous rank block: it counts the
/// degrees of its block into a private n-slot slab, a (vertex, thread)-
/// ordered scan turns the slabs into offsets plus per-thread cursors, and
/// each thread scatters its own block.  Vertex x's arcs therefore land in
/// ascending rank order, exactly as one sequential cursor scatter over the
/// ranks would place them.  The slabs are capped at the size of the 2m-key
/// array they build: at most 2m / n counting threads (at least one), so a
/// graph with n ≫ m counts on one thread instead of allocating p·n slots.
/// Slab entries are 32-bit: a degree is at most m ≤ 2^31 (find_min_packable),
/// and every cursor that is written through indexes an arc slot below
/// 2m ≤ 2^32.  Only a cursor past its vertex's last arc can reach 2^32, and
/// it is never used.
void scatter_arcs(ThreadTeam& team, VertexId n, EdgeId m,
                  const std::uint64_t* ends, std::vector<EdgeId>& offsets,
                  std::unique_ptr<std::uint64_t[]>& keys) {
  const int p = team.size();
  const auto N = static_cast<std::size_t>(n);
  const std::size_t num_arcs = 2 * static_cast<std::size_t>(m);
  const int q = static_cast<int>(std::clamp<std::size_t>(
      N == 0 ? 1 : num_arcs / N, 1, static_cast<std::size_t>(p)));
  auto slabs = std::make_unique_for_overwrite<std::uint32_t[]>(
      static_cast<std::size_t>(q) * N);
  std::vector<Padded<EdgeId>> partial(static_cast<std::size_t>(p));
  offsets.resize(N + 1);
  keys = make_huge_for_overwrite<std::uint64_t>(num_arcs);

  team.run([&](TeamCtx& ctx) {
    const int t = ctx.tid();
    const bool counts = t < q;
    std::uint32_t* const mine =
        counts ? slabs.get() + static_cast<std::size_t>(t) * N : nullptr;
    const IndexRange rb = counts ? block_range(m, t, q) : IndexRange{};
    if (counts) {
      std::fill(mine, mine + N, std::uint32_t{0});
      for (std::size_t r = rb.begin; r < rb.end; ++r) {
        ++mine[ends[r] >> 32];
        ++mine[ends[r] & 0xffffffffULL];
      }
    }
    ctx.barrier();

    const IndexRange vr = block_range(N, t, p);
    EdgeId sum = 0;
    for (std::size_t x = vr.begin; x < vr.end; ++x) {
      for (int t2 = 0; t2 < q; ++t2) sum += slabs[static_cast<std::size_t>(t2) * N + x];
    }
    partial[static_cast<std::size_t>(t)].value = sum;
    ctx.barrier();
    EdgeId run = 0;
    for (int t2 = 0; t2 < t; ++t2) run += partial[static_cast<std::size_t>(t2)].value;
    for (std::size_t x = vr.begin; x < vr.end; ++x) {
      offsets[x] = run;
      for (int t2 = 0; t2 < q; ++t2) {
        std::uint32_t& c = slabs[static_cast<std::size_t>(t2) * N + x];
        const EdgeId d = c;
        c = static_cast<std::uint32_t>(run);
        run += d;
      }
    }
    if (t == p - 1) offsets[N] = run;
    ctx.barrier();

    for (std::size_t r = rb.begin; r < rb.end; ++r) {
      const auto u = static_cast<VertexId>(ends[r] >> 32);
      const auto v = static_cast<VertexId>(ends[r]);
      const auto rank = static_cast<std::uint32_t>(r);
      keys[mine[u]++] = pack_key(rank, v);
      keys[mine[v]++] = pack_key(rank, u);
    }
  });
}

/// The packed prologue behind both build_packed_input overloads: the
/// weight sort writes rank_to_edge plus the endpoints at each rank, then
/// the arc scatter runs over them.
template <class WeightAt, class Walk>
PackedSolveInput build_packed_input_impl(ThreadTeam& team, VertexId n, std::size_t m,
                                         WeightAt w_at, Walk walk, StepTimes& st) {
  WallTimer phase;
  PackedSolveInput in;
  in.n = n;
  reserve_huge(in.rank_to_edge, m);
  in.rank_to_edge.resize(m);
  auto ends = make_huge_for_overwrite<std::uint64_t>(m);
  sort_by_weight(team, m, w_at, walk, {ends.get(), in.rank_to_edge.data()});
  st.rank_build += phase.elapsed_s();
  phase.reset();
  scatter_arcs(team, n, m, ends.get(), in.offsets, in.keys);
  st.arc_build += phase.elapsed_s();
  return in;
}

}  // namespace

std::vector<std::uint32_t> build_weight_ranks(
    ThreadTeam& team, const graph::EdgeList& g,
    std::vector<std::uint32_t>* rank_to_edge) {
  return build_weight_ranks_impl(
      team, g.edges.size(), [&](EdgeId e) { return g.edges[e].w; },
      [&](EdgeId begin, EdgeId end, auto&& fn) {
        for (EdgeId e = begin; e < end; ++e) fn(e, g.edges[e]);
      },
      rank_to_edge);
}

std::vector<std::uint32_t> build_weight_ranks(
    ThreadTeam& team, std::span<const graph::Weight> weights,
    std::vector<std::uint32_t>* rank_to_edge) {
  return build_weight_ranks_impl(
      team, weights.size(), [&](EdgeId e) { return weights[e]; },
      [&](EdgeId begin, EdgeId end, auto&& fn) {
        for (EdgeId e = begin; e < end; ++e) fn(e, graph::WEdge{0, 0, weights[e]});
      },
      rank_to_edge);
}

PackedSolveInput build_packed_input(ThreadTeam& team, const graph::EdgeList& g,
                                    StepTimes& st) {
  return build_packed_input_impl(
      team, g.num_vertices, g.edges.size(), [&](EdgeId e) { return g.edges[e].w; },
      [&](EdgeId begin, EdgeId end, auto&& fn) {
        for (EdgeId e = begin; e < end; ++e) fn(e, g.edges[e]);
      },
      st);
}

PackedSolveInput build_packed_input(ThreadTeam& team, VertexId n,
                                    std::span<const std::uint64_t> ends,
                                    std::span<const graph::Weight> w,
                                    StepTimes& st) {
  return build_packed_input_impl(
      team, n, w.size(), [&](EdgeId e) { return w[e]; },
      [&](EdgeId begin, EdgeId end, auto&& fn) {
        for (EdgeId e = begin; e < end; ++e) {
          fn(e, graph::WEdge{static_cast<VertexId>(ends[e] >> 32),
                             static_cast<VertexId>(ends[e]), w[e]});
        }
      },
      st);
}

void build_packed_arcs(const graph::EdgeList& g, VertexId n,
                       std::span<const std::uint32_t> rank,
                       std::vector<EdgeId>& offsets,
                       std::unique_ptr<std::uint64_t[]>& keys) {
  const std::size_t m = g.edges.size();
  auto ends = std::make_unique_for_overwrite<std::uint64_t[]>(m);
  for (std::size_t e = 0; e < m; ++e) {
    ends[rank[e]] = pack_ends(g.edges[e].u, g.edges[e].v);
  }
  ThreadTeam one(1);
  scatter_arcs(one, n, m, ends.get(), offsets, keys);
}

}  // namespace smp::core
