#include "core/deferred_el.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/atomic_min.hpp"
#include "core/detail.hpp"
#include "core/find_min.hpp"
#include "core/hook_jump.hpp"
#include "pprim/cacheline.hpp"
#include "pprim/fault.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/radix_hash_map.hpp"
#include "pprim/timer.hpp"

namespace smp::core::detail {

using graph::EdgeId;
using graph::EdgeList;
using graph::MsfResult;
using graph::VertexId;

namespace {

/// One slot of the per-thread direct-mapped dominated-parallel filter: the
/// packed ⟨su, sv⟩ pair it last saw, the global position of that arc, and
/// its weight rank.  Whenever two live arcs of the same iteration collide on
/// the same pair, the strictly heavier one is a parallel duplicate that can
/// never enter the forest (cycle property: the lighter arc of the pair is a
/// strictly better swap under the unique rank order) — it is retired on the
/// spot.  Entries are only ever dereferenced by the thread that wrote them,
/// and only at positions inside chunks that thread owns this iteration, so
/// the recorded position is guaranteed stable (prune swaps touch positions
/// at or after the owner's current scan index).
struct DomEntry {
  std::uint64_t pair;
  EdgeId pos;
  std::uint32_t rank;
};

}  // namespace

MsfResult deferred_el_msf(ThreadTeam& team, const EdgeList& g,
                          const MsfOptions& opts, const DeferredElConfig& cfg) {
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
  const int lb_threads = find_min_local_best_threads(opts);
  const std::size_t lb_cutoff = find_min_local_best_cutoff(opts);
  const std::size_t chunk_arcs = resolve_compact_chunk(opts);
  CompactSortMode full_mode = opts.compact_sort;
  if (full_mode == CompactSortMode::kAuto && cfg.prefer_hash) {
    full_mode = CompactSortMode::kHash;
  }

  std::vector<std::uint32_t> rank_to_edge;
  WallTimer ranks;
  const std::vector<std::uint32_t> rank =
      build_weight_ranks(team, g, &rank_to_edge);
  st.rank_build += ranks.elapsed_s();

  detail::EdgeCollector collector(p);
  std::vector<std::uint64_t> best_keys(n);
  std::vector<VertexId> parent(n);
  // labels: base vertex (the space of the last full compact) → current
  // supervertex.  The arc array is never touched between compacts; all
  // relabeling is this one indirection, composed in place per contraction.
  std::vector<VertexId> labels(n);
  for (VertexId x = 0; x < n; ++x) labels[x] = x;
  // Per-chunk live watermark: arcs[c*chunk .. c*chunk + chunk_live[c]) are
  // live; the rest of the chunk is retired.  A chunk is grabbed by exactly
  // one thread per iteration (dynamic cursor), so watermark updates and
  // prune swaps are single-owner.
  std::vector<EdgeId> chunk_live;
  const auto reset_watermarks = [&] {
    const std::size_t sz = arcs.size();
    const std::size_t nchunks = (sz + chunk_arcs - 1) / chunk_arcs;
    chunk_live.resize(nchunks);
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t base = c * chunk_arcs;
      chunk_live[c] = static_cast<EdgeId>(std::min(chunk_arcs, sz - base));
    }
  };
  reset_watermarks();

  constexpr std::size_t kDomSize = std::size_t{1} << kDominatedTableBits;
  constexpr std::uint64_t kDomMask = kDomSize - 1;
  std::vector<std::vector<DomEntry>> dom(static_cast<std::size_t>(p));
  std::vector<Padded<std::uint64_t>> pruned_partial(static_cast<std::size_t>(p));
  LocalBestScratch local_best;
  ComponentsScratch comp_scratch;
  detail::CompactScratch compact_scratch;
  std::atomic<bool> any{false};
  std::atomic<std::size_t> scan_cursor{0};
  EdgeId live_total = arcs.size();
  PhaseStats local_ps;
  st.other += phase.elapsed_s();

  VertexId super_n = n;
  while (!arcs.empty()) {
    iteration_checkpoint(opts, cfg.checkpoint);
    const VertexId it_n = super_n;
    const double live_fraction =
        arcs.empty() ? 0.0
                     : static_cast<double>(live_total) /
                           static_cast<double>(arcs.size());
    if (opts.iteration_stats) {
      IterationStat is;
      is.vertices = it_n;
      is.directed_edges = live_total;
      is.live_fraction = live_fraction;
      is.strategy = CompactStrategy::kDefer;
      opts.iteration_stats->push_back(is);
    }
    const std::uint64_t regions_before = team.regions_started();
    any.store(false, std::memory_order_relaxed);
    scan_cursor.store(0, std::memory_order_relaxed);
    const bool local_best_on =
        p > 1 && p >= lb_threads && it_n <= lb_cutoff;
    VertexId next_n_shared = 0;
    CompactStrategy strat = CompactStrategy::kDefer;

    team.run([&](TeamCtx& ctx) {
      WallTimer t0;
      const auto t = static_cast<std::size_t>(ctx.tid());
      // --- find-min: prune + dominated-filter + publish, one pass ---------
      if (ctx.tid() == 0) fault_point(cfg.site_find_min);
      if (local_best_on) {
        if (ctx.tid() == 0) local_best.ensure(p, it_n);
        ctx.barrier();
        std::uint64_t* slab = local_best.slab(ctx.tid());
        std::fill(slab, slab + it_n, kEmptyKey);
      } else {
        for_range(ctx, it_n, [&](std::size_t v) { best_keys[v] = kEmptyKey; });
      }
      if (dom[t].empty()) dom[t].resize(kDomSize);
      for (auto& d : dom[t]) d.pair = ~std::uint64_t{0};
      ctx.barrier();
      std::uint64_t* mine = local_best_on ? local_best.slab(ctx.tid()) : nullptr;
      DomEntry* dt = dom[t].data();
      std::uint64_t pruned = 0;
      for_range_dynamic(ctx, scan_cursor, chunk_live.size(), 1, [&](std::size_t c) {
        const std::size_t base = c * chunk_arcs;
        EdgeId live = chunk_live[c];
        EdgeId i = 0;
        while (i < live) {
          DirEdge& e = arcs[base + i];
          const VertexId su = labels[e.u];
          const VertexId sv = labels[e.v];
          if (su == sv) {
            --live;
            std::swap(arcs[base + i], arcs[base + live]);
            ++pruned;
            continue;
          }
          const std::uint32_t rk = rank[e.orig];
          const std::uint64_t pr =
              (static_cast<std::uint64_t>(su) << 32) | sv;
          DomEntry& d = dt[hash_mix64(pr) & kDomMask];
          if (d.pair == pr) {
            if (d.rank < rk) {
              // Current arc is the heavier parallel: retire it now.
              --live;
              std::swap(arcs[base + i], arcs[base + live]);
              ++pruned;
              continue;
            }
            // The recorded arc is the heavier parallel.  It already
            // published this iteration (harmless — its key is larger and
            // can never win su's minimum); rewriting it into a self-loop
            // retires it on the next scan.  Its position is stable: it lies
            // in this thread's current or completed chunks, before any
            // position a later swap can touch.
            arcs[d.pos].u = arcs[d.pos].v;
            d.pos = static_cast<EdgeId>(base + i);
            d.rank = rk;
          } else {
            d.pair = pr;
            d.pos = static_cast<EdgeId>(base + i);
            d.rank = rk;
          }
          const std::uint64_t k = pack_key(rk, e.v);
          if (mine != nullptr) {
            if (k < mine[su]) mine[su] = k;
          } else {
            atomic_min_u64(best_keys[su], k);
          }
          ++i;
        }
        chunk_live[c] = live;
      });
      pruned_partial[t].value = pruned;
      ctx.barrier();
      if (local_best_on) {
        merge_local_best_in_region(
            ctx, local_best, std::span<std::uint64_t>(best_keys.data(), it_n));
        ctx.barrier();
      }
      if (ctx.tid() == 0) {
        std::uint64_t total_pruned = 0;
        for (int t2 = 0; t2 < p; ++t2) {
          total_pruned += pruned_partial[static_cast<std::size_t>(t2)].value;
        }
        st.pruned_arcs += total_pruned;
        live_total -= total_pruned;
      }

      // --- connect-components ---------------------------------------------
      if (ctx.tid() == 0) {
        st.find_min += t0.elapsed_s();
        t0.reset();
        fault_point(cfg.site_connect);
      }
      fault_point(cfg.site_connect_region);
      bool local_any = false;
      for_range(ctx, it_n, [&](std::size_t s) {
        const std::uint64_t bk = best_keys[s];
        if (bk == kEmptyKey) {
          parent[s] = static_cast<VertexId>(s);
          return;
        }
        local_any = true;
        // Payload is the target BASE vertex (stable under prune swaps,
        // unlike an arc index); one labels[] lookup yields the supervertex.
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
          ctx, std::span<VertexId>(parent.data(), it_n), comp_scratch);
      const VertexId next_n = densify_labels_in_region(
          ctx, std::span<VertexId>(parent.data(), it_n), comp_scratch);

      // --- compact-graph decision -----------------------------------------
      if (ctx.tid() == 0) {
        next_n_shared = next_n;
        st.connect += t0.elapsed_s();
        t0.reset();
        fault_point(cfg.site_compact);
      }
      fault_point(cfg.site_compact_region);
      if (next_n == 1) {
        // Fully contracted into one supervertex: no cross arc can remain,
        // so skip both the label composition and the probe iteration.
        if (ctx.tid() == 0) st.compact += t0.elapsed_s();
        return;
      }
      // Uniform across the team: live_total was written by tid 0 before the
      // post-find-min barrier, next_n is returned on every thread.
      const bool full_compact = want_full_compact(opts, live_total, arcs.size());
      const std::size_t base_n = labels.size();
      // Compose the indirection: base vertex → new supervertex.  Retired
      // arcs stay self-loops under composition (merging preserves label
      // equality), so a later full compact filters them naturally.
      for_range(ctx, base_n, [&](std::size_t x) {
        labels[x] = parent[labels[x]];
      });
      if (!full_compact) {
        if (ctx.tid() == 0) {
          strat = CompactStrategy::kDefer;
          st.compact += t0.elapsed_s();
        }
        return;
      }
      // Full dedup/relabel through the composed labels (the entry barrier
      // inside compact_arcs_in_region publishes the composition).
      detail::compact_arcs_in_region(
          ctx, arcs, std::span<const VertexId>(labels.data(), base_n),
          full_mode, compact_scratch);
      // Reset the indirection to the identity over the new vertex space.
      for_range(ctx, next_n, [&](std::size_t x) {
        labels[x] = static_cast<VertexId>(x);
      });
      if (ctx.tid() == 0) {
        strat = full_mode == CompactSortMode::kHash ? CompactStrategy::kHash
                                                    : CompactStrategy::kSort;
        st.compact += t0.elapsed_s();
      }
    });

    local_ps.iterations += 1;
    local_ps.regions += team.regions_started() - regions_before;
    if (opts.iteration_stats) opts.iteration_stats->back().strategy = strat;
    switch (strat) {
      case CompactStrategy::kDefer:
        local_ps.deferred_iterations += 1;
        break;
      case CompactStrategy::kHash:
      case CompactStrategy::kSort:
        if (strat == CompactStrategy::kHash) {
          local_ps.hash_compacts += 1;
        } else {
          local_ps.sort_compacts += 1;
        }
        // The region already reset labels to the identity over the new
        // vertex space; shrink the table so labels.size() keeps tracking it.
        labels.resize(next_n_shared);
        live_total = arcs.size();
        reset_watermarks();
        break;
      default:
        break;
    }
    if (!any.load(std::memory_order_relaxed)) break;
    if (next_n_shared == 1) break;
    super_n = next_n_shared;
  }

  phase.reset();
  MsfResult res = detail::assemble_result(team, g, collector.gather());
  st.assembly += phase.elapsed_s();
  st.other += st.assembly;
  if (opts.step_times) *opts.step_times += st;
  if (opts.phase_stats) {
    local_ps.hash_keys = compact_scratch.hash_stats.keys;
    local_ps.hash_probe_steps = compact_scratch.hash_stats.probe_steps;
    local_ps.hash_max_probe = compact_scratch.hash_stats.max_probe;
    *opts.phase_stats += local_ps;
  }
  return res;
}

}  // namespace smp::core::detail
