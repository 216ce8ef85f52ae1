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
#include "core/weight_sort.hpp"
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

/// One gathered sub-solve: edges over `n` vertices as flat arrays, with
/// their input ids in ascending order.  The arrays are never zero-filled:
/// the gather writes every slot.
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

/// Team-parallel ordered gather of a sparse keep set whose test is the
/// expensive part: every edge for which keep(e, edge, out) returns true
/// lands in the sub-graph as `out`, in ascending id order.  One walk per
/// block into a per-block buffer, then a scan and a copy, so each edge is
/// tested once.  Fork-join.
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

/// The survivor pass over a sub-graph: its weight sort and arc build, then
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

/// Scanned edges between two budget checks of the light scan.
constexpr std::size_t kLightScanCheckEvery = std::size_t{1} << 16;

/// How many edges ahead the light scan prefetches the parent slots of an
/// edge's endpoints: the slots are random reads into an n-word array.
constexpr std::size_t kLightScanPrefetch = 16;

/// Step 3: Kruskal over the light buckets.  The team sorts the buckets
/// (sort_buckets) while tid 0 runs one sequential union-find scan over each
/// as soon as it is sorted — an edge that joins two sets is a light MSF
/// edge.  Returns those edges as input ids and leaves in `label` one dense
/// label in [0, n − picks) per light component.  A budget trip or fault in
/// the scan stops the sorts, and the region rethrows it.
std::vector<EdgeId> light_scan(ThreadTeam& team, VertexId n, const WeightBuckets& light,
                               const MsfOptions& opts, std::vector<VertexId>& label) {
  auto ends = make_huge_for_overwrite<std::uint64_t>(light.size());
  auto order = make_huge_for_overwrite<std::uint32_t>(light.size());
  seq::MinRootUnionFind uf(n);
  std::vector<EdgeId> ids;
  reserve_huge(ids, std::min<std::size_t>(light.size(), n));
  sort_buckets(team, light, {ends.get(), order.get()},
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   if (i % kLightScanCheckEvery == 0) {
                     fault_point("champion.light-scan");
                     iteration_checkpoint(opts, "Champion light scan");
                   }
                   if (i + kLightScanPrefetch < end) {
                     const std::uint64_t ahead = ends[i + kLightScanPrefetch];
                     uf.prefetch(static_cast<VertexId>(ahead >> 32));
                     uf.prefetch(static_cast<VertexId>(ahead));
                   }
                   if (uf.unite(static_cast<VertexId>(ends[i] >> 32),
                                static_cast<VertexId>(ends[i]))) {
                     ids.push_back(order[i]);
                   }
                 }
               });
  label = std::move(uf).dense_labels();
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

  // 1–2. Pivot and splitters, then the bucketed light gather.
  const std::size_t target = champion_light_target(n, m);
  const WeightSplit split = pick_split(m, target, w_at);
  WeightBuckets light = gather_buckets(team, m, target, split, walk);
  st.filter += phase.elapsed_s();

  // 3. Light pass: the bucket sorts and the Kruskal scan, in one region.
  phase.reset();
  std::vector<VertexId> label;
  std::vector<EdgeId> ids = light_scan(team, n, light, opts, label);
  st.connect += phase.elapsed_s();
  light = WeightBuckets{};
  iteration_checkpoint(opts, "Champion filter");

  // 4. Survivor filter: light edges never survive (their endpoints share a
  // light component), so the label test alone drops every filtered edge.
  phase.reset();
  fault_point("champion.filter");
  SubGraph sub = gather_sparse(team, static_cast<VertexId>(n - ids.size()), m, walk,
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

  // `other` takes everything outside the timed steps: the filter, the
  // survivor prologue, the assembly and the checkpoints.
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
