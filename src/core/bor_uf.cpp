#include "core/bor_uf.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/atomic_min.hpp"
#include "graph/types.hpp"
#include "pprim/atomic_union_find.hpp"
#include "pprim/cacheline.hpp"
#include "pprim/fault.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/prefix_sum.hpp"
#include "pprim/thread_team.hpp"

namespace smp::core {

using graph::EdgeId;
using graph::EdgeList;
using graph::kInvalidEdge;
using graph::MsfResult;
using graph::VertexId;
using graph::WeightOrder;

MsfResult bor_uf_msf(ThreadTeam& team, const EdgeList& g, const MsfOptions& opts) {
  const VertexId n = g.num_vertices;
  MsfResult res;
  if (n == 0) return res;

  AtomicUnionFind uf(n);
  // Live edges: ids of edges whose endpoints are in different components.
  std::vector<EdgeId> live(g.edges.size());
  for (EdgeId i = 0; i < g.edges.size(); ++i) live[i] = i;

  std::vector<std::atomic<EdgeId>> best(n);
  std::vector<Padded<std::vector<EdgeId>>> found(static_cast<std::size_t>(team.size()));
  std::vector<EdgeId> keep_flags;
  std::vector<EdgeId> next;
  ScanScratch<EdgeId> scan;
  scan.ensure(team.size());
  std::atomic<bool> any{false};

  const auto better = [&](EdgeId a, EdgeId b) {
    return WeightOrder{g.edges[a].w, a} < WeightOrder{g.edges[b].w, b};
  };

  // Each Borůvka iteration is ONE persistent SPMD region: find-min, gather,
  // parallel unions, and the live-edge filter synchronize via ctx.barrier()
  // instead of paying four fork/joins.  The progress flag is raised before a
  // barrier and read after it, so every thread takes the same exit branch.
  while (!live.empty()) {
    iteration_checkpoint(opts, "Bor-UF round");
    const std::size_t m = live.size();
    if (keep_flags.size() < m) keep_flags.resize(m);
    any.store(false, std::memory_order_relaxed);

    team.run([&](TeamCtx& ctx) {
      // find-min per component root.  Roots drift during the scan (no unions
      // run concurrently, so they don't — only between iterations).
      if (ctx.tid() == 0) fault_point("bor-uf.find-min");
      for_range(ctx, n, [&](std::size_t v) {
        best[v].store(kInvalidEdge, std::memory_order_relaxed);
      });
      ctx.barrier();
      for_range(ctx, m, [&](std::size_t j) {
        const EdgeId i = live[j];
        const auto& e = g.edges[i];
        const VertexId ru = uf.find(e.u);
        const VertexId rv = uf.find(e.v);
        if (ru == rv) return;
        atomic_write_min(best[ru], i, better);
        atomic_write_min(best[rv], i, better);
      });
      ctx.barrier();
      // Gather the chosen set while roots are still stable (no unions have
      // run yet): a mutual-minimum edge sits in both roots' slots; the
      // smaller root keeps it.  The chosen set of a Borůvka round is a
      // forest, so every union below must succeed — record unconditionally.
      auto& mine = found[static_cast<std::size_t>(ctx.tid())].value;
      for_range(ctx, n, [&](std::size_t v) {
        const EdgeId b = best[v].load(std::memory_order_relaxed);
        if (b == kInvalidEdge) return;
        const auto& e = g.edges[b];
        const VertexId ru = uf.find(e.u);
        const VertexId other = ru == static_cast<VertexId>(v) ? uf.find(e.v) : ru;
        const bool mutual = best[other].load(std::memory_order_relaxed) == b;
        if (mutual && other < static_cast<VertexId>(v)) return;
        mine.push_back(b);
      });
      if (!mine.empty()) any.store(true, std::memory_order_relaxed);
      ctx.barrier();
      // connect-components: parallel unions over the (cycle-free) chosen set.
      for (const EdgeId b : mine) {
        const auto& e = g.edges[b];
        const bool merged = uf.unite(e.u, e.v);
        (void)merged;
      }
      ctx.barrier();
      // Uniform exit: `any` was last written before the gather barrier.
      if (!any.load(std::memory_order_relaxed)) return;

      // compact: drop edges that became intra-component (parallel filter via
      // an in-region prefix sum over keep flags).
      fault_point("bor-uf.compact.region");
      for_range(ctx, m, [&](std::size_t j) {
        const auto& e = g.edges[live[j]];
        keep_flags[j] = uf.find(e.u) != uf.find(e.v) ? 1 : 0;
      });
      ctx.barrier();
      const EdgeId survivors =
          prefix_sum_in_region(ctx, std::span<EdgeId>(keep_flags.data(), m), scan);
      if (ctx.tid() == 0) next.resize(survivors);
      ctx.barrier();
      for_range(ctx, m, [&](std::size_t j) {
        const bool kept = (j + 1 < m ? keep_flags[j + 1] : survivors) != keep_flags[j];
        if (kept) next[keep_flags[j]] = live[j];
      });
      ctx.barrier();
      if (ctx.tid() == 0) live.swap(next);
      ctx.barrier();
    });

    for (auto& f : found) {
      res.edge_ids.insert(res.edge_ids.end(), f.value.begin(), f.value.end());
      f.value.clear();
    }
    if (!any.load(std::memory_order_relaxed)) break;
  }

  std::sort(res.edge_ids.begin(), res.edge_ids.end());
  res.edges.reserve(res.edge_ids.size());
  for (const EdgeId id : res.edge_ids) {
    res.edges.push_back(g.edges[id]);
    res.total_weight += g.edges[id].w;
  }
  res.num_trees = n - res.edges.size();
  return res;
}

MsfResult bor_uf_msf(const EdgeList& g, int threads) {
  ThreadTeam team(threads);
  return bor_uf_msf(team, g);
}

}  // namespace smp::core
