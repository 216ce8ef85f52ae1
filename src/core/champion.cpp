#include "core/champion.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/bor_fal_packed.hpp"
#include "core/detail.hpp"
#include "core/find_min.hpp"
#include "graph/compressed_csr.hpp"
#include "pprim/fault.hpp"
#include "pprim/huge_pages.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/partition.hpp"
#include "pprim/prefix_sum.hpp"
#include "pprim/timer.hpp"
#include "seq/union_find.hpp"

namespace smp::core {

using graph::CompressedCsr;
using graph::EdgeId;
using graph::EdgeList;
using graph::MsfResult;
using graph::VertexId;
using graph::WEdge;
using graph::Weight;

namespace {

/// Strided sample size for the pivot pick.  Its rank error (about one over
/// the square root of the sampled light count) moves the light set by a
/// percent or so; the pick itself is one nth_element.
constexpr std::size_t kPivotSamples = std::size_t{1} << 14;

/// An edge's place in the rank sort's order: WeightOrder as integers.
using OrderKey = std::pair<std::uint64_t, EdgeId>;

/// The pivot: the sampled edge whose sample rank matches `target` of m.  With
/// no edge to sample any pivot splits the empty edge set, so it is ⟨0, 0⟩.
template <class WeightAt>
OrderKey pick_pivot(std::size_t m, std::size_t target, WeightAt w_at) {
  const std::size_t s = std::min(m, kPivotSamples);
  if (s == 0) return {};
  std::vector<OrderKey> sample(s);
  for (std::size_t i = 0; i < s; ++i) {
    const EdgeId e = i * m / s;
    sample[i] = {monotone_weight_bits(w_at(e)), e};
  }
  const auto nth = sample.begin() + static_cast<std::ptrdiff_t>(target * s / m);
  std::nth_element(sample.begin(), nth, sample.end());
  return *nth;
}

/// One gathered sub-solve: edges over `n` vertices as flat arrays, with
/// their input ids in ascending order.  The arrays are never zero-filled:
/// the gathers write every slot.
struct SubGraph {
  VertexId n = 0;
  std::size_t m = 0;
  std::unique_ptr<std::uint64_t[]> ends;  // pack_ends(u, v)
  std::unique_ptr<Weight[]> w;
  std::unique_ptr<EdgeId[]> ids;

  void allocate(std::size_t count) {
    m = count;
    ends = make_huge_for_overwrite<std::uint64_t>(m);
    w = make_huge_for_overwrite<Weight>(m);
    ids = make_huge_for_overwrite<EdgeId>(m);
  }
  void put(std::size_t at, EdgeId e, const WEdge& edge) {
    ends[at] = pack_ends(edge.u, edge.v);
    w[at] = edge.w;
    ids[at] = e;
  }
};

/// Team-parallel ordered gather over input ids [0, m): every edge for which
/// keep(e, edge, out) returns true lands in the sub-graph as `out`, in
/// ascending id order.  Count per block, scan, scatter: the team claims
/// the id blocks of dynamic_block_count dynamically, walks each block
/// twice, and writes nothing but the result.  Fork-join.
template <class Walk, class Keep>
SubGraph gather_edges(ThreadTeam& team, VertexId n, std::size_t m, Walk walk,
                      Keep keep) {
  SubGraph sub;
  sub.n = n;
  const std::size_t blocks = dynamic_block_count(m, team.size());
  std::vector<std::size_t> at(blocks);
  std::atomic<std::size_t> count_cursor{0};
  std::atomic<std::size_t> put_cursor{0};
  team.run([&](TeamCtx& ctx) {
    WEdge out;
    for_range_dynamic(ctx, count_cursor, blocks, 1, [&](std::size_t b) {
      const IndexRange r = dynamic_block(m, b, blocks);
      std::size_t c = 0;
      walk(EdgeId{r.begin}, EdgeId{r.end},
           [&](EdgeId e, const WEdge& edge) { c += keep(e, edge, out) ? 1 : 0; });
      at[b] = c;
    });
    ctx.barrier();
    if (ctx.tid() == 0) sub.allocate(exclusive_scan_seq(std::span<std::size_t>(at)));
    ctx.barrier();
    for_range_dynamic(ctx, put_cursor, blocks, 1, [&](std::size_t b) {
      const IndexRange r = dynamic_block(m, b, blocks);
      std::size_t pos = at[b];
      walk(EdgeId{r.begin}, EdgeId{r.end}, [&](EdgeId e, const WEdge& edge) {
        if (keep(e, edge, out)) sub.put(pos++, e, out);
      });
    });
  });
  return sub;
}

/// gather_edges for a sparse keep set whose test is the expensive part: one
/// walk per block into a per-block buffer, then a scan and a copy, so each
/// edge is tested once.
template <class Walk, class Keep>
SubGraph gather_sparse(ThreadTeam& team, VertexId n, std::size_t m, Walk walk,
                       Keep keep) {
  SubGraph sub;
  sub.n = n;
  const std::size_t blocks = dynamic_block_count(m, team.size());
  std::vector<std::vector<std::pair<EdgeId, WEdge>>> kept(blocks);
  std::vector<std::size_t> at(blocks);
  std::atomic<std::size_t> test_cursor{0};
  std::atomic<std::size_t> copy_cursor{0};
  team.run([&](TeamCtx& ctx) {
    WEdge out;
    for_range_dynamic(ctx, test_cursor, blocks, 1, [&](std::size_t b) {
      const IndexRange r = dynamic_block(m, b, blocks);
      std::vector<std::pair<EdgeId, WEdge>> mine;
      walk(EdgeId{r.begin}, EdgeId{r.end}, [&](EdgeId e, const WEdge& edge) {
        if (keep(e, edge, out)) mine.emplace_back(e, out);
      });
      at[b] = mine.size();
      kept[b] = std::move(mine);
    });
    ctx.barrier();
    if (ctx.tid() == 0) sub.allocate(exclusive_scan_seq(std::span<std::size_t>(at)));
    ctx.barrier();
    for_range_dynamic(ctx, copy_cursor, blocks, 1, [&](std::size_t b) {
      std::size_t pos = at[b];
      for (const auto& [e, edge] : kept[b]) sub.put(pos++, e, edge);
    });
  });
  return sub;
}

/// The survivor pass over a sub-graph: its rank sort and arc build, then
/// the Borůvka loop.  Returns the forest as input ids.
std::vector<EdgeId> engine_pass(ThreadTeam& team, const SubGraph& sub,
                                const MsfOptions& opts, StepTimes& st) {
  PackedSolveInput in = build_packed_input(
      team, sub.n, std::span<const std::uint64_t>(sub.ends.get(), sub.m),
      std::span<const Weight>(sub.w.get(), sub.m), st);
  std::vector<EdgeId> ids = bor_fal_packed_engine(team, std::move(in), opts, st);
  for (EdgeId& id : ids) id = sub.ids[id];
  return ids;
}

/// Ranks between two budget checks of the light scan.
constexpr std::size_t kLightScanCheckEvery = std::size_t{1} << 16;

/// How many ranks ahead the light scan prefetches the parent slots of an
/// edge's endpoints: the slots are random reads into an n-word array.
constexpr std::size_t kLightScanPrefetch = 16;

/// Picks per dynamically claimed chunk of the light scan's id map.
constexpr std::size_t kLightIdMapChunk = 4096;

/// The light pass: Kruskal over the light sub-graph.  One team rank sort,
/// then one sequential union-find scan in rank order — an edge that joins
/// two sets is a light MSF edge.  Returns those edges as input ids and
/// leaves in `label` one dense label in [0, n − picks) per light component.
/// The scan records ranks and a team pass maps them to input ids
/// afterwards, which keeps two random reads per pick out of the sequential
/// loop.  The sort adds to `st.rank_build`; the scan, the id map and the
/// relabel to `st.connect`.
std::vector<EdgeId> light_scan(ThreadTeam& team, const SubGraph& sub,
                               const MsfOptions& opts, StepTimes& st,
                               std::vector<VertexId>& label) {
  const RankOrder order = build_rank_order(
      team, std::span<const std::uint64_t>(sub.ends.get(), sub.m),
      std::span<const Weight>(sub.w.get(), sub.m), st);
  WallTimer scan;
  fault_point("champion.light-scan");
  const std::uint64_t* const ends = order.ends.get();
  seq::MinRootUnionFind uf(sub.n);
  std::vector<EdgeId> ids;
  reserve_huge(ids, std::min<std::size_t>(sub.m, sub.n));
  for (std::size_t r = 0; r < sub.m; ++r) {
    if (r % kLightScanCheckEvery == 0) {
      iteration_checkpoint(opts, "Champion light scan");
    }
    if (r + kLightScanPrefetch < sub.m) {
      const std::uint64_t ahead = ends[r + kLightScanPrefetch];
      uf.prefetch(static_cast<VertexId>(ahead >> 32));
      uf.prefetch(static_cast<VertexId>(ahead));
    }
    if (uf.unite(static_cast<VertexId>(ends[r] >> 32),
                 static_cast<VertexId>(ends[r]))) {
      ids.push_back(r);
    }
  }
  parallel_for_dynamic(team, ids.size(), kLightIdMapChunk, [&](std::size_t i) {
    ids[i] = sub.ids[order.rank_to_edge[ids[i]]];
  });
  label = std::move(uf).dense_labels();
  st.connect += scan.elapsed_s();
  return ids;
}

/// Champion's five steps (champion.hpp) over any edge source: `w_at(e)` is
/// edge e's weight, `walk(begin, end, fn)` calls fn(e, edge) for every edge
/// e in [begin, end) in ascending order.
template <class WeightAt, class Walk>
MsfResult filtered_solve(ThreadTeam& team, VertexId n, std::size_t m,
                         WeightAt w_at, Walk walk, const MsfOptions& opts) {
  StepTimes st;
  WallTimer wall;
  WallTimer phase;

  // 1–2. Pivot pick and light gather.
  const OrderKey pivot = pick_pivot(m, champion_light_target(n, m), w_at);
  SubGraph sub = gather_edges(
      team, n, m, walk, [&](EdgeId e, const WEdge& edge, WEdge& out) {
        out = edge;
        return !(pivot < OrderKey{monotone_weight_bits(edge.w), e});
      });
  st.filter += phase.elapsed_s();

  // 3. Light pass: rank sort and Kruskal scan.
  std::vector<VertexId> label;
  std::vector<EdgeId> ids = light_scan(team, sub, opts, st, label);
  iteration_checkpoint(opts, "Champion filter");

  // 4. Survivor filter: light edges never survive (their endpoints share a
  // light component), so the label test alone drops every filtered edge.
  phase.reset();
  fault_point("champion.filter");
  sub = gather_sparse(team, static_cast<VertexId>(n - ids.size()), m, walk,
                      [&](EdgeId, const WEdge& edge, WEdge& out) {
                        out = WEdge{label[edge.u], label[edge.v], edge.w};
                        return out.u != out.v;
                      });
  std::vector<VertexId>().swap(label);
  st.filter += phase.elapsed_s();

  // 5. Survivor pass, then one assembly over both id sets.
  const std::vector<EdgeId> heavy_ids = engine_pass(team, sub, opts, st);
  ids.insert(ids.end(), heavy_ids.begin(), heavy_ids.end());
  sub = SubGraph{};
  phase.reset();
  MsfResult res = detail::assemble_result(team, n, m, std::move(ids), walk);
  st.assembly += phase.elapsed_s();

  // `other` takes everything outside the timed steps: the filter, the light
  // sort, the survivor prologue, the assembly and the checkpoints.
  st.other += wall.elapsed_s() - st.total();
  if (opts.step_times) *opts.step_times += st;
  return res;
}

}  // namespace

std::size_t champion_light_target(VertexId n, std::size_t m) {
  return std::min(
      static_cast<std::size_t>(kChampionLightPerVertex * static_cast<double>(n)),
      15 * m / 16);
}

MsfResult champion_msf(ThreadTeam& team, const EdgeList& g,
                       const MsfOptions& opts) {
  return filtered_solve(
      team, g.num_vertices, g.edges.size(), [&](EdgeId e) { return g.edges[e].w; },
      [&](EdgeId begin, EdgeId end, auto&& fn) {
        for (EdgeId e = begin; e < end; ++e) fn(e, g.edges[e]);
      },
      opts);
}

MsfResult champion_msf(ThreadTeam& team, const CompressedCsr& g,
                       const MsfOptions& opts) {
  const Weight* const weights = g.weights();
  return filtered_solve(
      team, g.num_vertices(), g.num_edges(), [&](EdgeId e) { return weights[e]; },
      [&](EdgeId begin, EdgeId end, auto&& fn) {
        g.for_each_edge(begin, end, [&](EdgeId e, VertexId u, VertexId v, Weight w) {
          fn(e, WEdge{u, v, w});
        });
      },
      opts);
}

}  // namespace smp::core
