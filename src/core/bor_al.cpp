#include <atomic>
#include <memory>
#include <vector>

#include "core/detail.hpp"
#include "core/find_min.hpp"
#include "core/hook_jump.hpp"
#include "core/msf.hpp"
#include "pprim/arena.hpp"
#include "pprim/fault.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/prefix_sum.hpp"
#include "pprim/sample_sort.hpp"
#include "pprim/seq_sort.hpp"
#include "pprim/timer.hpp"

namespace smp::core {

using graph::EdgeId;
using graph::EdgeList;
using graph::kInvalidEdge;
using graph::MsfResult;
using graph::VertexId;
using graph::Weight;
using graph::WeightOrder;

namespace {

/// One entry of a vertex's adjacency array.
struct AdjArc {
  VertexId target;
  Weight w;
  EdgeId orig;

  [[nodiscard]] WeightOrder order() const { return {w, orig}; }
};

/// Mutable adjacency-array graph (offsets + packed arc records).
struct AdjGraph {
  VertexId n = 0;
  std::vector<EdgeId> offsets;  // n + 1
  std::vector<AdjArc> arcs;
};

AdjGraph build_adj(const EdgeList& g) {
  AdjGraph a;
  a.n = g.num_vertices;
  a.offsets.assign(static_cast<std::size_t>(a.n) + 1, 0);
  for (const auto& e : g.edges) {
    ++a.offsets[e.u + 1];
    ++a.offsets[e.v + 1];
  }
  for (std::size_t i = 1; i < a.offsets.size(); ++i) a.offsets[i] += a.offsets[i - 1];
  a.arcs.resize(a.offsets.back());
  std::vector<EdgeId> cur(a.offsets.begin(), a.offsets.end() - 1);
  for (EdgeId i = 0; i < g.edges.size(); ++i) {
    const auto& e = g.edges[i];
    a.arcs[cur[e.u]++] = {e.v, e.w, i};
    a.arcs[cur[e.v]++] = {e.u, e.w, i};
  }
  return a;
}

/// Scratch allocation policy: Bor-AL takes per-task buffers from the system
/// heap (every list sort and k-way merge pays `operator new`, serializing on
/// the shared allocator exactly as the paper's Bor-AL pays `malloc`);
/// Bor-ALM draws from per-thread arenas instead (§2.2's custom memory
/// management), making steady-state allocation synchronization-free.
class Scratch {
 public:
  explicit Scratch(ThreadArenas* arenas) : arenas_(arenas) {}

  template <class T>
  std::span<T> get(int tid, std::size_t count, std::unique_ptr<T[]>& owned) {
    if (count == 0) return {};
    if (arenas_ != nullptr) {
      return arenas_->local(tid).alloc_array<T>(count);
    }
    owned = std::make_unique<T[]>(count);
    return {owned.get(), count};
  }

  void next_iteration() {
    if (arenas_ != nullptr) arenas_->reset_all();
  }

 private:
  ThreadArenas* arenas_;
};

/// Cursor over one member's sorted adjacency slice during the k-way merge.
struct MergeCursor {
  EdgeId pos;
  EdgeId end;
};

/// K-way merge of one supervertex's member adjacency lists (§2.2 steps d/e),
/// dropping internal arcs and all but the lightest arc per neighboring
/// supervertex.  `label` maps each arc target to its supervertex; each
/// member's list is already sorted by (label, WeightOrder).  With
/// `out == nullptr` this is the count pass.
void merge_group_slices(const AdjGraph& adj, std::span<const VertexId> order,
                        std::span<const EdgeId> group_start,
                        std::span<const VertexId> label, Scratch& scratch,
                        int tid, VertexId s, AdjArc* out, EdgeId* count) {
  const auto arc_less = [&](const AdjArc& x, const AdjArc& y) {
    const VertexId lx = label[x.target];
    const VertexId ly = label[y.target];
    return lx != ly ? lx < ly : x.order() < y.order();
  };
  const EdgeId gs = group_start[s];
  const EdgeId ge = group_start[s + 1];
  const auto k = static_cast<std::size_t>(ge - gs);
  std::unique_ptr<MergeCursor[]> owned;
  std::span<MergeCursor> heap = scratch.get<MergeCursor>(tid, k, owned);
  // Build a binary min-heap of non-empty member cursors.
  const auto cursor_key = [&](const MergeCursor& c) { return adj.arcs[c.pos]; };
  const auto cursor_less = [&](const MergeCursor& x, const MergeCursor& y) {
    return arc_less(cursor_key(x), cursor_key(y));
  };
  std::size_t hn = 0;
  for (EdgeId gi = gs; gi < ge; ++gi) {
    const VertexId member = order[gi];
    const EdgeId lo = adj.offsets[member];
    const EdgeId hi = adj.offsets[member + 1];
    if (lo < hi) heap[hn++] = {lo, hi};
  }
  for (std::size_t i = hn / 2; i-- > 0;) {  // heapify (sift down)
    std::size_t j = i;
    for (;;) {
      std::size_t c = 2 * j + 1;
      if (c >= hn) break;
      if (c + 1 < hn && cursor_less(heap[c + 1], heap[c])) ++c;
      if (!cursor_less(heap[c], heap[j])) break;
      std::swap(heap[j], heap[c]);
      j = c;
    }
  }
  EdgeId written = 0;
  VertexId last_label = graph::kInvalidVertex;
  while (hn > 0) {
    const AdjArc& a = adj.arcs[heap[0].pos];
    const VertexId lbl = label[a.target];
    if (lbl != s && lbl != last_label) {
      if (out != nullptr) out[written] = {lbl, a.w, a.orig};
      ++written;
      last_label = lbl;
    }
    // Advance the top cursor and restore the heap.
    if (++heap[0].pos == heap[0].end) heap[0] = heap[--hn];
    std::size_t j = 0;
    for (;;) {
      std::size_t c = 2 * j + 1;
      if (c >= hn) break;
      if (c + 1 < hn && cursor_less(heap[c + 1], heap[c])) ++c;
      if (!cursor_less(heap[c], heap[j])) break;
      std::swap(heap[j], heap[c]);
      j = c;
    }
  }
  *count = written;
}

MsfResult bor_al_impl(ThreadTeam& team, const EdgeList& g, const MsfOptions& opts,
                      ThreadArenas* arenas) {
  StepTimes st;
  WallTimer phase;

  AdjGraph adj = build_adj(g);
  Scratch scratch(arenas);
  detail::EdgeCollector collector(team.size());
  std::vector<EdgeId> best(adj.n);
  std::vector<VertexId> parent(adj.n);
  // Fused-region shared state, reused (grow-only) across iterations.
  ComponentsScratch comp_scratch;
  SampleSortScratch<VertexId> order_sort;
  ScanScratch<EdgeId> size_scan;
  std::vector<VertexId> order;
  std::vector<EdgeId> group_start;
  std::vector<EdgeId> new_size;
  std::atomic<std::size_t> find_cursor{0};
  std::atomic<std::size_t> sort_cursor{0};
  std::atomic<std::size_t> count_cursor{0};
  std::atomic<std::size_t> fill_cursor{0};
  size_scan.ensure(team.size());
  st.other += phase.elapsed_s();

  while (!adj.arcs.empty()) {
    iteration_checkpoint(opts, "Bor-AL iteration");
    const VertexId cur_n = adj.n;
    if (opts.iteration_stats) {
      opts.iteration_stats->push_back({cur_n, adj.arcs.size()});
    }
    const std::uint64_t regions_before = team.regions_started();
    order.resize(cur_n);
    find_cursor.store(0, std::memory_order_relaxed);
    sort_cursor.store(0, std::memory_order_relaxed);
    count_cursor.store(0, std::memory_order_relaxed);
    fill_cursor.store(0, std::memory_order_relaxed);
    AdjGraph next;

    // The whole iteration — find-min, connect, and the five-step adjacency
    // compaction — runs as ONE persistent SPMD region.
    team.run([&](TeamCtx& ctx) {
      WallTimer t0;
      // --- find-min: per-vertex scan of its adjacency array, through the
      //     shared slice-argmin of the find-min layer ------------------------
      if (ctx.tid() == 0) fault_point("bor-al.find-min");
      for_range_dynamic(ctx, find_cursor, cur_n, 128, [&](std::size_t v) {
        best[v] = best_arc_in_slice(adj.arcs, adj.offsets[v], adj.offsets[v + 1]);
      });
      ctx.barrier();

      // --- connect-components ---------------------------------------------
      if (ctx.tid() == 0) {
        st.find_min += t0.elapsed_s();
        t0.reset();
        fault_point("bor-al.connect");
      }
      fault_point("bor-al.connect.region");
      for_range(ctx, cur_n, [&](std::size_t v) {
        const EdgeId b = best[v];
        if (b == kInvalidEdge) {
          parent[v] = static_cast<VertexId>(v);
          return;
        }
        const AdjArc& e = adj.arcs[b];
        parent[v] = e.target;
        const EdgeId ob = best[e.target];
        const bool other_also_chose = ob != kInvalidEdge && adj.arcs[ob].orig == e.orig;
        if (!(other_also_chose && e.target < v)) {
          collector.add(ctx.tid(), e.orig);
        }
      });
      ctx.barrier();
      pointer_jump_components_in_region(
          ctx, std::span<VertexId>(parent.data(), cur_n), comp_scratch);
      const VertexId next_n = densify_labels_in_region(
          ctx, std::span<VertexId>(parent.data(), cur_n), comp_scratch);

      // --- compact-graph --------------------------------------------------
      if (ctx.tid() == 0) {
        st.connect += t0.elapsed_s();
        t0.reset();
        fault_point("bor-al.compact");
      }
      fault_point("bor-al.compact.region");

      // (a) Sort the vertex array by supervertex label, so members of one
      //     supervertex become contiguous (§2.2).
      for_range(ctx, cur_n, [&](std::size_t v) {
        order[v] = static_cast<VertexId>(v);
      });
      ctx.barrier();
      sample_sort_in_region(ctx, order, order_sort, [&](VertexId a, VertexId b) {
        return parent[a] != parent[b] ? parent[a] < parent[b] : a < b;
      });

      // (b) Concurrently sort each vertex's adjacency list by the supervertex
      //     of the other endpoint (insertion sort for short lists, bottom-up
      //     merge sort for long — the paper's hybrid).
      const auto arc_less = [&](const AdjArc& x, const AdjArc& y) {
        const VertexId lx = parent[x.target];
        const VertexId ly = parent[y.target];
        return lx != ly ? lx < ly : x.order() < y.order();
      };
      for_range_dynamic(ctx, sort_cursor, cur_n, 64, [&](std::size_t v) {
        const EdgeId lo = adj.offsets[v];
        const EdgeId len = adj.offsets[v + 1] - lo;
        std::span<AdjArc> list(adj.arcs.data() + lo, len);
        std::unique_ptr<AdjArc[]> owned;
        std::span<AdjArc> buf;
        if (len > kInsertionSortCutoff) {
          buf = scratch.get<AdjArc>(ctx.tid(), len, owned);
        }
        seq_sort(list, buf, arc_less);
      });
      if (ctx.tid() == 0) {
        group_start.resize(static_cast<std::size_t>(next_n) + 1);
        new_size.resize(static_cast<std::size_t>(next_n) + 1);
      }
      ctx.barrier();

      // (c) Group boundaries: labels along `order` are non-decreasing and
      //     dense, so supervertex s owns order[group_start[s]..group_start[s+1]).
      for_range(ctx, cur_n, [&](std::size_t i) {
        if (i == 0 || parent[order[i]] != parent[order[i - 1]]) {
          group_start[parent[order[i]]] = i;
        }
      });
      if (ctx.tid() == 0) {
        group_start[next_n] = cur_n;
        new_size[next_n] = 0;
      }
      ctx.barrier();

      // (d) Count pass: k-way merge of member lists per supervertex, dropping
      //     self-loops and all but the lightest multi-edge.
      const auto merge_group = [&](int tid, VertexId s, AdjArc* out, EdgeId* count) {
        merge_group_slices(
            adj, order, group_start,
            std::span<const VertexId>(parent.data(), cur_n), scratch, tid, s,
            out, count);
      };
      for_range_dynamic(ctx, count_cursor, next_n, 16, [&](std::size_t s) {
        merge_group(ctx.tid(), static_cast<VertexId>(s), nullptr, &new_size[s]);
      });
      ctx.barrier();
      const EdgeId new_arc_count = prefix_sum_in_region(
          ctx, std::span<EdgeId>(new_size.data(), next_n + 1), size_scan);

      // (e) Fill pass into the fresh adjacency arrays.
      if (ctx.tid() == 0) {
        next.n = next_n;
        next.offsets.assign(new_size.begin(),
                            new_size.begin() + next_n + 1);
        next.offsets.back() = new_arc_count;
        next.arcs.resize(new_arc_count);
      }
      ctx.barrier();
      for_range_dynamic(ctx, fill_cursor, next_n, 16, [&](std::size_t s) {
        EdgeId written = 0;
        merge_group(ctx.tid(), static_cast<VertexId>(s),
                    next.arcs.data() + next.offsets[s], &written);
      });
      if (ctx.tid() == 0) st.compact += t0.elapsed_s();
    });

    adj = std::move(next);
    scratch.next_iteration();
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

}  // namespace

MsfResult bor_al_msf(ThreadTeam& team, const EdgeList& g, const MsfOptions& opts) {
  return bor_al_impl(team, g, opts, nullptr);
}

MsfResult bor_alm_msf(ThreadTeam& team, const EdgeList& g, const MsfOptions& opts) {
  // The budget's memory cap binds the per-thread arenas to a shared ledger;
  // a reservation that would cross it fails as std::bad_alloc and the
  // dispatcher degrades to sequential Kruskal.
  const std::size_t cap =
      opts.budget != nullptr ? opts.budget->memory_cap() : 0;
  ThreadArenas arenas(team.size(), std::size_t{1} << 20, cap);
  return bor_al_impl(team, g, opts, &arenas);
}

}  // namespace smp::core
