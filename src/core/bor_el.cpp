#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/atomic_min.hpp"
#include "core/detail.hpp"
#include "core/find_min.hpp"
#include "core/hook_jump.hpp"
#include "core/msf.hpp"
#include "pprim/cacheline.hpp"
#include "pprim/fault.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/timer.hpp"

namespace smp::core {

using graph::EdgeId;
using graph::EdgeList;
using graph::MsfResult;
using graph::VertexId;

/// Bor-EL (§2.1): edge-list representation.  find-min races atomic
/// write-mins per vertex; compact-graph packs ⟨supervertex(u),
/// supervertex(v)⟩ into one 64-bit key and radix-sorts the directed edge
/// list, then merges self-loops and multi-edges by prefix sum.
///
/// find-min is the packed-key kernel of core/find_min.hpp: each arc's
/// ⟨weight-rank, index⟩ folds into one uint64 on the fly, so the per-arc
/// race is a single atomic_min_u64 instead of the paper's two-word
/// comparator CAS; in late iterations with few supervertices the publish
/// switches to per-thread local-best slabs merged in-region (the
/// contention-aware reduction).  No pruning here — compact-graph already
/// removes dead arcs physically each iteration.  The ranks need m ≤ 2^31
/// (validate_edge_count).
///
/// Each Borůvka iteration runs as ONE persistent SPMD region: find-min,
/// connect-components (pointer jumping + label densification), and
/// compact-graph all synchronize through ctx.barrier() instead of paying a
/// ThreadTeam fork/join per parallel loop.  Budget checkpoints stay on the
/// orchestrating thread between regions; fault points that used to fire on
/// the orchestrator fire on tid 0 inside the region (same once-per-iteration
/// semantics, and a throw there poisons the barrier so the whole team
/// unwinds).
MsfResult bor_el_msf(ThreadTeam& team, const EdgeList& g, const MsfOptions& opts) {
  const VertexId n = g.num_vertices;
  StepTimes st;
  WallTimer phase;

  // Each undirected edge appears in both directions, as in the paper.
  std::vector<DirEdge> arcs;
  arcs.reserve(2 * g.edges.size());
  for (EdgeId i = 0; i < g.edges.size(); ++i) {
    const auto& e = g.edges[i];
    arcs.push_back({e.u, e.v, e.w, i});
    arcs.push_back({e.v, e.u, e.w, i});
  }

  const int p = team.size();

  detail::EdgeCollector collector(team.size());
  WallTimer ranks;
  const std::vector<std::uint32_t> rank = build_weight_ranks(team, g);
  st.rank_build += ranks.elapsed_s();
  std::vector<std::uint64_t> best_keys(n);  // per vertex packed key
  LocalBestScratch local_best;
  std::vector<VertexId> parent(n);
  ComponentsScratch comp_scratch;
  detail::CompactScratch compact_scratch;
  VertexId cur_n = n;
  st.other += phase.elapsed_s();

  while (!arcs.empty()) {
    iteration_checkpoint(opts, "Bor-EL iteration");
    if (opts.iteration_stats) {
      opts.iteration_stats->push_back({cur_n, arcs.size()});
    }
    const std::uint64_t regions_before = team.regions_started();
    const std::size_t m = arcs.size();
    VertexId next_n = 0;
    const bool local_best_on =
        p > 1 && p >= kFindMinLocalBestThreads &&
        cur_n <= kFindMinLocalBestCutoff;

    team.run([&](TeamCtx& ctx) {
      WallTimer t0;
      // --- find-min -------------------------------------------------------
      if (ctx.tid() == 0) fault_point("bor-el.find-min");
      if (local_best_on) {
        if (ctx.tid() == 0) local_best.ensure(p, cur_n);
        ctx.barrier();
        std::uint64_t* mine = local_best.slab(ctx.tid());
        std::fill(mine, mine + cur_n, kEmptyKey);
      } else {
        for_range(ctx, cur_n,
                  [&](std::size_t v) { best_keys[v] = kEmptyKey; });
      }
      ctx.barrier();
      std::uint64_t* mine = local_best_on ? local_best.slab(ctx.tid()) : nullptr;
      for_range(ctx, m, [&](std::size_t i) {
        const std::uint64_t k = pack_key(rank[arcs[i].orig], i);
        const VertexId u = arcs[i].u;
        if (mine != nullptr) {
          if (k < mine[u]) mine[u] = k;
        } else {
          atomic_min_u64(best_keys[u], k);
        }
      });
      ctx.barrier();
      if (local_best_on) {
        merge_local_best_in_region(
            ctx, local_best, std::span<std::uint64_t>(best_keys.data(), cur_n));
        ctx.barrier();
      }

      // --- connect-components ---------------------------------------------
      if (ctx.tid() == 0) {
        st.find_min += t0.elapsed_s();
        t0.reset();
        fault_point("bor-el.connect");
      }
      fault_point("bor-el.connect.region");
      // Record chosen edges (each mutual-minimum pair exactly once) and set
      // up the pseudo-forest parent pointers.
      for_range(ctx, cur_n, [&](std::size_t v) {
        const std::uint64_t bk = best_keys[v];
        if (bk == kEmptyKey) {
          parent[v] = static_cast<VertexId>(v);
          return;
        }
        const DirEdge& e = arcs[key_index(bk)];
        parent[v] = e.v;
        // Same undirected edge ⇔ same weight rank (ranks are unique).
        const std::uint64_t ob = best_keys[e.v];
        const bool other_also_chose =
            ob != kEmptyKey && key_rank(ob) == key_rank(bk);
        if (!(other_also_chose && e.v < v)) {
          collector.add(ctx.tid(), e.orig);
        }
      });
      ctx.barrier();
      pointer_jump_components_in_region(
          ctx, std::span<VertexId>(parent.data(), cur_n), comp_scratch);
      const VertexId roots = densify_labels_in_region(
          ctx, std::span<VertexId>(parent.data(), cur_n), comp_scratch);

      // --- compact-graph --------------------------------------------------
      if (ctx.tid() == 0) {
        next_n = roots;
        st.connect += t0.elapsed_s();
        t0.reset();
        fault_point("bor-el.compact");
      }
      fault_point("bor-el.compact.region");
      detail::compact_arcs_in_region(
          ctx, arcs, std::span<const VertexId>(parent.data(), cur_n),
          compact_scratch);
      if (ctx.tid() == 0) st.compact += t0.elapsed_s();
    });

    cur_n = next_n;
    if (opts.phase_stats) {
      opts.phase_stats->iterations += 1;
      opts.phase_stats->regions += team.regions_started() - regions_before;
    }
  }

  phase.reset();
  MsfResult res = detail::assemble_result(team, g, collector.gather());
  st.assembly += phase.elapsed_s();
  st.other += st.assembly;
  if (opts.step_times) *opts.step_times += st;
  return res;
}

}  // namespace smp::core
