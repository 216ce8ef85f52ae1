#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/atomic_min.hpp"
#include "core/bor_fal_packed.hpp"
#include "core/detail.hpp"
#include "core/find_min.hpp"
#include "core/hook_jump.hpp"
#include "core/msf.hpp"
#include "graph/flex_adj_list.hpp"
#include "pprim/cacheline.hpp"
#include "pprim/fault.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/timer.hpp"

namespace smp::core {

using graph::EdgeId;
using graph::EdgeList;
using graph::FlexAdjList;
using graph::MsfResult;
using graph::VertexId;

/// Bor-FAL (§2.3): the flexible adjacency list keeps the original edge
/// arrays intact forever.  The paper's find-min pays for that by rescanning
/// all m edges every iteration, filtering self-loops and multi-edges through
/// the vertex → supervertex lookup table.  §2.3's compact-graph also sorts
/// the supervertices and appends member adjacency lists for a find-min that
/// walks supervertices; find-min here walks original vertices x and
/// publishes into labels[x]'s slot, so compact-graph is the lookup-table
/// update alone — one O(n) pass, no sort.
///
/// find-min is the packed-key kernel of core/find_min.hpp, which removes
/// the rescan tax: each arc slot holds a uint64 ⟨weight-rank, target⟩ key,
/// and each original vertex's slice is ascending by rank
/// (build_packed_input).  The slice's lightest live arc is therefore the
/// first one whose target lies in another supervertex.  Find-min keeps one
/// cursor per original vertex, steps it past arcs whose target now shares
/// the vertex's supervertex (a permanent self-loop — contraction only
/// merges), and publishes the key at the cursor with ONE atomic_min_u64 per
/// original vertex instead of one two-word CAS per arc.  When the team is
/// large and cur_n small, the publish switches to per-thread local-best
/// slabs merged in-region (contention-aware reduction).  Iteration k costs
/// one read per vertex plus the arcs its cursors step past — O(n) per
/// iteration and 2m over the whole solve.  WeightOrder is encoded in the
/// key order, so the selected arcs are the rescan's and the forest is the
/// unique MSF.  The keys need m ≤ 2^31 (validate_edge_count).
///
/// Each Borůvka iteration runs as ONE persistent SPMD region (find-min,
/// connect-components, and the lookup-table contraction all synchronize via
/// ctx.barrier()).  The no-progress exit is decided uniformly: every thread
/// reads the shared `any` flag after the connect barrier and leaves the
/// region together; the orchestrator then breaks out of the loop.
///
/// The loop lives in bor_fal_packed_engine so Champion's survivor pass
/// (core/champion.cpp) can drive the identical engine from its gathered
/// flat arrays without ever materializing an EdgeList.
namespace {

/// The packed Borůvka loop itself; bor_fal_packed_engine wraps it.
std::vector<EdgeId> packed_boruvka_loop(ThreadTeam& team, PackedSolveInput in,
                                        const MsfOptions& opts, StepTimes& st) {
  const VertexId n = in.n;
  const int p = team.size();

  const std::vector<EdgeId>& offsets = in.offsets;
  const std::unique_ptr<const std::uint64_t[]> keys = std::move(in.keys);
  const std::vector<std::uint32_t>& rank_to_edge = in.rank_to_edge;
  const EdgeId num_arcs = offsets.back();
  FlexAdjList fal(n);
  // Per original vertex: its first arc slot not yet proven dead.
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);

  detail::EdgeCollector collector(p);
  std::vector<std::uint64_t> best_keys(n);  // per supervertex key
  std::vector<Padded<std::uint64_t>> pruned_partial(
      static_cast<std::size_t>(p));
  LocalBestScratch local_best;
  std::vector<VertexId> parent(n);
  ComponentsScratch comp_scratch;
  std::atomic<bool> any{false};
  std::atomic<std::size_t> scan_cursor{0};
  EdgeId live_total = num_arcs;
  bool first_iter = true;

  for (;;) {
    iteration_checkpoint(opts, "Bor-FAL iteration");
    const VertexId cur_n = fal.num_super();
    if (opts.iteration_stats) {
      // Arcs at or after the cursors (monotone non-increasing).
      IterationStat is;
      is.vertices = cur_n;
      is.directed_edges = live_total;
      is.live_fraction =
          num_arcs > 0
              ? static_cast<double>(live_total) / static_cast<double>(num_arcs)
              : 1.0;
      opts.iteration_stats->push_back(is);
    }
    const std::uint64_t regions_before = team.regions_started();
    any.store(false, std::memory_order_relaxed);
    scan_cursor.store(0, std::memory_order_relaxed);
    const bool local_best_on =
        !first_iter && p > 1 && p >= kFindMinLocalBestThreads &&
        cur_n <= kFindMinLocalBestCutoff;

    team.run([&](TeamCtx& ctx) {
      WallTimer t0;
      // --- find-min -------------------------------------------------------
      if (ctx.tid() == 0) fault_point("bor-fal.find-min");
      const auto labels = fal.labels();
      if (ctx.tid() == 0) fault_point("bor-fal.find-min.prune");
      std::uint64_t pruned = 0;
      if (first_iter) {
        // Iteration 1 fast path: labels are still the identity and the
        // input has no self-loops, so every arc is live, the lightest is
        // each slice's first, and slot x belongs to original vertex x alone
        // — plain stores instead of atomics, no sentinel-init pass.
        for_range(ctx, n, [&](std::size_t x) {
          const EdgeId lo = offsets[x];
          best_keys[x] = offsets[x + 1] == lo ? kEmptyKey : keys[lo];
        });
      } else {
        if (local_best_on) {
          if (ctx.tid() == 0) local_best.ensure(p, cur_n);
          ctx.barrier();
          std::uint64_t* slab = local_best.slab(ctx.tid());
          std::fill(slab, slab + cur_n, kEmptyKey);
        } else {
          for_range(ctx, cur_n,
                    [&](std::size_t s) { best_keys[s] = kEmptyKey; });
        }
        ctx.barrier();
        std::uint64_t* mine =
            local_best_on ? local_best.slab(ctx.tid()) : nullptr;
        // Per original vertex: step the cursor past newly dead arcs, then
        // publish the key it rests on into the owning supervertex's slot.
        // Dynamic chunks: the steps bunch up on the vertices whose
        // supervertex just absorbed their neighbours.
        for_range_dynamic(ctx, scan_cursor, n, kFindMinPruneBlock,
                          [&](std::size_t x) {
          const VertexId s = labels[x];
          const EdgeId end = offsets[x + 1];
          const EdgeId from = cursor[x];
          const EdgeId c = first_live_arc(keys.get(), from, end, labels, s);
          if (c != from) {
            cursor[x] = c;
            pruned += c - from;
          }
          if (c == end) return;
          const std::uint64_t k = keys[c];
          if (mine != nullptr) {
            if (k < mine[s]) mine[s] = k;
          } else {
            atomic_min_u64(best_keys[s], k);
          }
        });
      }
      pruned_partial[static_cast<std::size_t>(ctx.tid())].value = pruned;
      ctx.barrier();
      if (local_best_on) {
        merge_local_best_in_region(
            ctx, local_best, std::span<std::uint64_t>(best_keys.data(), cur_n));
        ctx.barrier();
      }
      if (ctx.tid() == 0) {
        std::uint64_t total_pruned = 0;
        for (int t = 0; t < p; ++t) {
          total_pruned += pruned_partial[static_cast<std::size_t>(t)].value;
        }
        st.pruned_arcs += total_pruned;
        live_total -= total_pruned;
      }

      // --- connect-components ---------------------------------------------
      if (ctx.tid() == 0) {
        st.find_min += t0.elapsed_s();
        t0.reset();
        fault_point("bor-fal.connect");
      }
      fault_point("bor-fal.connect.region");
      bool local_any = false;
      for_range(ctx, cur_n, [&](std::size_t s) {
        const std::uint64_t bk = best_keys[s];
        if (bk == kEmptyKey) {
          parent[s] = static_cast<VertexId>(s);
          return;
        }
        local_any = true;
        const VertexId other = labels[key_index(bk)];
        parent[s] = other;
        // Same undirected edge ⇔ same weight rank (ranks are unique).
        const std::uint64_t ob = best_keys[other];
        const bool other_also_chose =
            ob != kEmptyKey && key_rank(ob) == key_rank(bk);
        if (!(other_also_chose && other < s)) {
          collector.add(ctx.tid(), rank_to_edge[key_rank(bk)]);
        }
      });
      if (local_any) any.store(true, std::memory_order_relaxed);
      ctx.barrier();
      // Uniform exit decision: nobody writes `any` past the barrier.
      if (!any.load(std::memory_order_relaxed)) {
        if (ctx.tid() == 0) st.connect += t0.elapsed_s();
        return;  // every component fully contracted
      }
      pointer_jump_components_in_region(
          ctx, std::span<VertexId>(parent.data(), cur_n), comp_scratch);
      const VertexId next_n = densify_labels_in_region(
          ctx, std::span<VertexId>(parent.data(), cur_n), comp_scratch);

      // --- compact-graph: the lookup-table update -------------------------
      if (ctx.tid() == 0) {
        st.connect += t0.elapsed_s();
        t0.reset();
        fault_point("bor-fal.compact");
      }
      fault_point("bor-fal.compact.region");
      fal.contract(ctx, std::span<const VertexId>(parent.data(), cur_n), next_n);
      if (ctx.tid() == 0) st.compact += t0.elapsed_s();
    });

    first_iter = false;
    if (opts.phase_stats) {
      opts.phase_stats->iterations += 1;
      opts.phase_stats->regions += team.regions_started() - regions_before;
    }
    if (!any.load(std::memory_order_relaxed)) break;
  }
  return collector.gather();
}

}  // namespace

std::vector<EdgeId> bor_fal_packed_engine(ThreadTeam& team,
                                          PackedSolveInput in,
                                          const MsfOptions& opts, StepTimes& st) {
  // Whatever the loop does outside its timed steps — scratch set-up,
  // per-iteration checkpoints, the id gather, freeing the consumed input —
  // is set-up and teardown, so `other` takes it.
  WallTimer wall;
  const double steps_before = st.total();
  std::vector<EdgeId> ids =
      packed_boruvka_loop(team, std::move(in), opts, st);
  st.other += wall.elapsed_s() - (st.total() - steps_before);
  return ids;
}

MsfResult bor_fal_msf(ThreadTeam& team, const EdgeList& g, const MsfOptions& opts) {
  StepTimes st;
  WallTimer phase;
  PackedSolveInput in = build_packed_input(team, g, st);
  st.other += phase.elapsed_s();
  std::vector<EdgeId> ids = bor_fal_packed_engine(team, std::move(in), opts, st);
  phase.reset();
  MsfResult res = detail::assemble_result(team, g, std::move(ids));
  st.assembly += phase.elapsed_s();
  st.other += st.assembly;
  if (opts.step_times) *opts.step_times += st;
  return res;
}

}  // namespace smp::core
