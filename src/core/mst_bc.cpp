#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/detail.hpp"
#include "core/find_min.hpp"
#include "core/hook_jump.hpp"
#include "core/msf.hpp"
#include "pprim/cacheline.hpp"
#include "pprim/counting_sort.hpp"
#include "pprim/fault.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/permutation.hpp"
#include "pprim/rng.hpp"
#include "pprim/timer.hpp"
#include "seq/indexed_heap.hpp"
#include "seq/union_find.hpp"

namespace smp::core {

using graph::EdgeId;
using graph::EdgeList;
using graph::kInvalidEdge;
using graph::kInvalidVertex;
using graph::MsfResult;
using graph::VertexId;
using graph::Weight;
using graph::WeightOrder;

namespace {

/// Working graph between contraction rounds: CSR over dense vertex ids with
/// each arc carrying the input edge index.
struct BcGraph {
  VertexId n = 0;
  std::vector<EdgeId> offsets;  // n + 1
  struct Arc {
    VertexId target;
    Weight w;
    EdgeId orig;
    [[nodiscard]] WeightOrder order() const { return {w, orig}; }
  };
  std::vector<Arc> arcs;
};

BcGraph build_from_edge_list(const EdgeList& g) {
  BcGraph b;
  b.n = g.num_vertices;
  b.offsets.assign(static_cast<std::size_t>(b.n) + 1, 0);
  for (const auto& e : g.edges) {
    ++b.offsets[e.u + 1];
    ++b.offsets[e.v + 1];
  }
  for (std::size_t i = 1; i < b.offsets.size(); ++i) b.offsets[i] += b.offsets[i - 1];
  b.arcs.resize(b.offsets.back());
  std::vector<EdgeId> cur(b.offsets.begin(), b.offsets.end() - 1);
  for (EdgeId i = 0; i < g.edges.size(); ++i) {
    const auto& e = g.edges[i];
    b.arcs[cur[e.u]++] = {e.v, e.w, i};
    b.arcs[cur[e.v]++] = {e.u, e.w, i};
  }
  return b;
}

/// Team-shared scratch for contract_rebuild_in_region (grow-only across
/// contraction rounds — arc counts only shrink).
struct RebuildScratch {
  std::vector<DirEdge> des;
  std::vector<DirEdge> sorted;
  std::vector<EdgeId> cs_counts;
  std::vector<EdgeId> next_offsets;
  std::vector<BcGraph::Arc> next_arcs;
  detail::CompactScratch compact;
};

/// Heap key of a fringe vertex: its best known connecting edge.
struct BcKey {
  WeightOrder order;
  VertexId parent;

  friend bool operator<(const BcKey& a, const BcKey& b) { return a.order < b.order; }
};

/// Per-partition work-stealing bounds.  The owner advances `lo`; thieves
/// advance from the "decreasing pointer that marks the end of the
/// unprocessed list" (§4).  Counters may briefly cross; the color CAS makes
/// double-processing harmless.
struct alignas(kCacheLineBytes) Part {
  std::atomic<std::int64_t> lo{0};
  std::atomic<std::int64_t> hi{0};
};

/// Solve the remaining problem on one processor (step 6 of Alg. 1) using
/// Kruskal over the deduplicated arcs.
void solve_base_case(const BcGraph& g, std::vector<EdgeId>& out_ids) {
  std::vector<EdgeId> idx;
  idx.reserve(g.arcs.size() / 2);
  for (EdgeId a = 0; a < g.arcs.size(); ++a) idx.push_back(a);
  std::sort(idx.begin(), idx.end(), [&](EdgeId x, EdgeId y) {
    return g.arcs[x].order() < g.arcs[y].order();
  });
  // Source vertex of an arc via binary search on offsets.
  const auto source_of = [&](EdgeId a) {
    const auto it = std::upper_bound(g.offsets.begin(), g.offsets.end(), a);
    return static_cast<VertexId>(it - g.offsets.begin() - 1);
  };
  seq::UnionFind uf(g.n);
  for (const EdgeId a : idx) {
    const VertexId u = source_of(a);
    const VertexId v = g.arcs[a].target;
    if (uf.unite(u, v)) out_ids.push_back(g.arcs[a].orig);
  }
}

/// step 5: relabel through `labels`, drop self-loops, keep only the lightest
/// multi-edge per supervertex pair, and rebuild the CSR for the next round.
/// In-region: all team threads call it inside an open SPMD region with
/// identical arguments; the CSR rebuild is an in-region counting sort by
/// source vertex whose key_offsets array is exactly the offsets array.
void contract_rebuild_in_region(TeamCtx& ctx, BcGraph& cur,
                                std::span<const VertexId> labels, VertexId next_n,
                                RebuildScratch& s) {
  if (ctx.tid() == 0) s.des.resize(cur.arcs.size());
  ctx.barrier();
  for_range(ctx, cur.n, [&](std::size_t v) {
    for (EdgeId a = cur.offsets[v]; a < cur.offsets[v + 1]; ++a) {
      const auto& arc = cur.arcs[a];
      s.des[a] = {static_cast<VertexId>(v), arc.target, arc.w, arc.orig};
    }
  });
  ctx.barrier();
  detail::compact_arcs_in_region(ctx, s.des, labels, s.compact);

  const std::size_t f = s.des.size();
  if (ctx.tid() == 0) {
    s.sorted.resize(f);
    s.next_arcs.resize(f);
  }
  ctx.barrier();
  counting_sort_in_region(
      ctx, std::span<const DirEdge>(s.des), std::span<DirEdge>(s.sorted.data(), f),
      next_n, [](const DirEdge& e) { return static_cast<std::size_t>(e.u); },
      s.next_offsets, s.cs_counts);
  for_range(ctx, f, [&](std::size_t i) {
    s.next_arcs[i] = {s.sorted[i].v, s.sorted[i].w, s.sorted[i].orig};
  });
  ctx.barrier();
  if (ctx.tid() == 0) {
    cur.n = next_n;
    cur.offsets.swap(s.next_offsets);
    cur.arcs.swap(s.next_arcs);
  }
  ctx.barrier();
}

}  // namespace

/// MST-BC (§4, Alg. 1 + Alg. 2): p coordinated Prim instances growing
/// vertex-disjoint subtrees, claiming vertices with an atomic color CAS.  A
/// tree *matures* (stops) the moment it learns of an adjacent foreign tree —
/// continuing past that point could select a non-minimum cut edge.  Vertices
/// left unvisited pick their lightest incident edge Borůvka-style (step 3);
/// the induced components are contracted and the algorithm recurses, solving
/// sequentially below `bc_base_size`.  On 1 thread this behaves as Prim, on
/// n as Borůvka.
MsfResult mst_bc_msf(ThreadTeam& team, const EdgeList& g, const MsfOptions& opts) {
  const int p = team.size();
  StepTimes st;
  WallTimer phase;

  BcGraph cur = build_from_edge_list(g);
  detail::EdgeCollector collector(team.size());
  std::atomic<std::uint64_t> color_counter{1};
  ComponentsScratch comp_scratch;
  RebuildScratch rebuild_scratch;
  std::vector<EdgeId> best;
  st.other += phase.elapsed_s();

  while (cur.n > opts.bc_base_size && !cur.arcs.empty()) {
    iteration_checkpoint(opts, "MST-BC round");
    const VertexId n = cur.n;
    if (opts.iteration_stats) {
      // Every round rebuilds the arc array, so all of it is live.
      IterationStat is;
      is.vertices = n;
      is.directed_edges = cur.arcs.size();
      is.live_fraction = 1.0;
      opts.iteration_stats->push_back(is);
    }
    const std::size_t edges_before = collector.total();
    const std::uint64_t regions_before = team.regions_started();

    // --- steps 1-2: coordinated Prim growth --------------------------------
    phase.reset();
    fault_point("mst-bc.grow");
    std::vector<std::atomic<std::uint64_t>> color(n);
    std::vector<char> visited(n, 0);
    std::vector<VertexId> parent(n, kInvalidVertex);

    const std::vector<VertexId> perm = random_permutation(team, n, opts.seed);

    std::vector<Part> parts(static_cast<std::size_t>(p));
    for (int t = 0; t < p; ++t) {
      const IndexRange r = block_range(n, t, p);
      parts[static_cast<std::size_t>(t)].lo.store(static_cast<std::int64_t>(r.begin),
                                                  std::memory_order_relaxed);
      parts[static_cast<std::size_t>(t)].hi.store(static_cast<std::int64_t>(r.end),
                                                  std::memory_order_relaxed);
    }

    team.run([&](TeamCtx& ctx) {
      fault_point("mst-bc.grow.region");
      const int tid = ctx.tid();
      seq::IndexedHeap<BcKey> heap(n);

      // Grow one Prim subtree from start vertex v (if still unclaimed).
      const auto process = [&](VertexId v) {
        if (color[v].load(std::memory_order_relaxed) != 0) return;
        const std::uint64_t my_color =
            color_counter.fetch_add(1, std::memory_order_relaxed);
        std::uint64_t expected = 0;
        if (!color[v].compare_exchange_strong(expected, my_color,
                                              std::memory_order_acq_rel)) {
          return;  // lost the race for the start vertex
        }
        heap.clear();
        heap.push(v, BcKey{{std::numeric_limits<Weight>::lowest(), 0}, kInvalidVertex});
        while (!heap.empty()) {
          const auto top = heap.pop();
          const VertexId w = top.id;
          // w is ours by CAS; add it to the tree.
          visited[w] = 1;
          if (top.key.parent != kInvalidVertex) {
            parent[w] = top.key.parent;
            collector.add(tid, top.key.order.orig);
          } else {
            parent[w] = w;  // subtree root
          }
          // Relax w's arcs.  Any foreign color seen means an edge crosses to
          // another tree — possibly lighter than our future picks — so the
          // tree matures at the end of this relaxation.
          bool stop = false;
          for (EdgeId a = cur.offsets[w]; a < cur.offsets[w + 1]; ++a) {
            const auto& arc = cur.arcs[a];
            const VertexId u = arc.target;
            std::uint64_t c = color[u].load(std::memory_order_acquire);
            if (c == 0) {
              std::uint64_t exp = 0;
              if (color[u].compare_exchange_strong(exp, my_color,
                                                   std::memory_order_acq_rel)) {
                heap.push(u, BcKey{arc.order(), w});
              } else {
                stop = true;  // claimed by a foreign tree under us
              }
            } else if (c == my_color) {
              if (heap.contains(u)) heap.decrease(u, BcKey{arc.order(), w});
            } else {
              stop = true;
            }
          }
          if (stop) break;
        }
      };

      // Own partition front-to-back, then steal from the back of others.
      Part& mine = parts[static_cast<std::size_t>(tid)];
      for (;;) {
        const std::int64_t i = mine.lo.fetch_add(1, std::memory_order_acq_rel);
        if (i >= mine.hi.load(std::memory_order_acquire)) break;
        process(perm[static_cast<std::size_t>(i)]);
      }
      Rng steal_rng = Rng(opts.seed ^ 0x9e3779b97f4a7c15ULL)
                          .fork(static_cast<std::uint64_t>(tid));
      const int start = p > 1 ? static_cast<int>(steal_rng.next_below(
                                    static_cast<std::uint64_t>(p)))
                              : 0;
      for (int off = 0; off < p; ++off) {
        Part& q = parts[static_cast<std::size_t>((start + off) % p)];
        for (;;) {
          const std::int64_t i = q.hi.fetch_sub(1, std::memory_order_acq_rel) - 1;
          if (i < q.lo.load(std::memory_order_acquire)) break;
          process(perm[static_cast<std::size_t>(i)]);
        }
      }
    });
    st.find_min += phase.elapsed_s();

    // --- steps 3-5: ONE fused SPMD region ------------------------------------
    // Step-3 picks, the pointer-jump contraction, the (rare) Borůvka fallback
    // round, and the relabel + dedup + CSR rebuild all synchronize via
    // ctx.barrier() instead of paying ~8 fork/joins per round.  The
    // no-progress decision is uniform: every input to it (densify's return
    // value, the collector totals) is published by a barrier before any
    // thread branches on it.
    best.assign(n, kInvalidEdge);
    team.run([&](TeamCtx& ctx) {
      WallTimer t0;
      // Fault point ahead of an in-region barrier: an injected throw here
      // leaves the siblings blocked at ctx.barrier() unless the poisoned
      // release rescues them — the hardest failure shape this layer covers.
      fault_point("mst-bc.step3.region");
      // step 3: unvisited vertices pick their lightest incident edge via the
      // shared slice-argmin of the find-min layer.
      for_range(ctx, n, [&](std::size_t v) {
        if (visited[v]) return;
        const EdgeId b =
            best_arc_in_slice(cur.arcs, cur.offsets[v], cur.offsets[v + 1]);
        best[v] = b;
        parent[v] = b == kInvalidEdge ? static_cast<VertexId>(v) : cur.arcs[b].target;
      });
      ctx.barrier();
      // Record step-3 edges, mutual minima once.  A step-3 edge can never
      // duplicate a tree edge: tree edges join two visited vertices.
      for_range(ctx, n, [&](std::size_t v) {
        const EdgeId b = best[v];
        if (b == kInvalidEdge) return;
        const VertexId other = cur.arcs[b].target;
        const EdgeId ob = best[other];
        const bool mutual = ob != kInvalidEdge && cur.arcs[ob].orig == cur.arcs[b].orig;
        if (!(mutual && other < v)) collector.add(ctx.tid(), cur.arcs[b].orig);
      });
      ctx.barrier();

      // step 4: contract the induced components.
      if (ctx.tid() == 0) {
        st.find_min += t0.elapsed_s();
        t0.reset();
      }
      pointer_jump_components_in_region(
          ctx, std::span<VertexId>(parent.data(), n), comp_scratch);
      VertexId next_n = densify_labels_in_region(
          ctx, std::span<VertexId>(parent.data(), n), comp_scratch);
      if (ctx.tid() == 0) {
        st.connect += t0.elapsed_s();
        t0.reset();
      }

      // Every thread reads the same collector totals (the record pass sits
      // behind two barriers) and the same next_n, so the branch is uniform.
      if (next_n == n && collector.total() == edges_before) {
        // Pathological round: no tree grew an edge and no step-3 pick merged
        // anything (only possible when every component is already a single
        // vertex — then arcs is empty and the loop exits — or under the
        // adversarial schedule the paper notes; the permutation makes it
        // vanishingly rare).  Borůvka always progresses, so fall back to one
        // find-min-over-all-vertices round.
        for_range(ctx, n, [&](std::size_t v) {
          const EdgeId b =
              best_arc_in_slice(cur.arcs, cur.offsets[v], cur.offsets[v + 1]);
          best[v] = b;
          parent[v] = b == kInvalidEdge ? static_cast<VertexId>(v) : cur.arcs[b].target;
        });
        ctx.barrier();
        for_range(ctx, n, [&](std::size_t v) {
          const EdgeId b = best[v];
          if (b == kInvalidEdge) return;
          const VertexId other = cur.arcs[b].target;
          const EdgeId ob = best[other];
          const bool mutual =
              ob != kInvalidEdge && cur.arcs[ob].orig == cur.arcs[b].orig;
          if (!(mutual && other < v)) collector.add(ctx.tid(), cur.arcs[b].orig);
        });
        ctx.barrier();
        pointer_jump_components_in_region(
            ctx, std::span<VertexId>(parent.data(), n), comp_scratch);
        next_n = densify_labels_in_region(
            ctx, std::span<VertexId>(parent.data(), n), comp_scratch);
      } else if (ctx.tid() == 0) {
        // step 5 only (fault semantics: the compact site never fires on the
        // fallback path, matching the pre-fusion behaviour).
        fault_point("mst-bc.compact");
      }
      fault_point("mst-bc.compact.region");
      contract_rebuild_in_region(ctx, cur,
                                 std::span<const VertexId>(parent.data(), n),
                                 next_n, rebuild_scratch);
      if (ctx.tid() == 0) st.compact += t0.elapsed_s();
    });

    if (opts.phase_stats) {
      opts.phase_stats->iterations += 1;
      opts.phase_stats->regions += team.regions_started() - regions_before;
    }
  }

  // --- step 6: sequential base case ---------------------------------------
  phase.reset();
  if (!cur.arcs.empty()) {
    std::vector<EdgeId> base_ids;
    solve_base_case(cur, base_ids);
    for (const EdgeId id : base_ids) collector.add(0, id);
  }
  WallTimer assembly;
  MsfResult res = detail::assemble_result(team, g, collector.gather());
  st.assembly += assembly.elapsed_s();
  st.other += phase.elapsed_s();
  if (opts.step_times) *opts.step_times += st;
  return res;
}

}  // namespace smp::core
