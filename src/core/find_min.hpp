#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/msf.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "pprim/cacheline.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/thread_team.hpp"
#include "pprim/tuning.hpp"

namespace smp::core {

/// Shared find-min layer: the one find-min of Bor-EL, Bor-FAL and Champion.
///
/// The packed-key scheme: a 64-bit weight cannot share a word with a 64-bit
/// tie-break index, so instead of the weight itself each input edge carries
/// its *weight rank* — its position in the WeightOrder-ascending order of
/// all m edges (build_weight_ranks).  Ranks are unique (WeightOrder is a
/// total order: ties broken by input index), fit 32 bits for any packable
/// graph, and compare exactly like ⟨weight, orig⟩.  A find-min key is then
///
///     key = rank(edge of arc) << 32 | payload
///
/// so (a) unsigned uint64 comparison of keys == WeightOrder comparison of
/// the underlying edges (distinct edges never share a rank, so the payload
/// half only ever breaks ties between a key and itself), (b) the winning
/// payload comes back for free from the low half, and (c) two arcs of the
/// same edge (its two directions) share a rank, which is what the
/// mutual-minimum test in the connect step compares.  The payload is the
/// algorithm's choice: Bor-EL packs the arc index; Bor-FAL packs the arc's
/// *target vertex* and recovers the input edge at selection time through
/// the rank permutation (rank_to_edge).  The cross-thread race collapses
/// from a two-word comparator CAS loop to atomic_min_u64.
///
/// Bor-FAL's packed prologue (build_packed_input) lays every original
/// vertex's arc slice out in ascending key order — ascending weight rank —
/// so the slice's lightest arc into another supervertex is simply its first
/// one whose target lies outside the vertex's supervertex.  Find-min keeps
/// one cursor per original vertex and steps it past dead arcs
/// (first_live_arc); an arc that is dead stays dead, because contraction
/// only merges supervertices.  Over a whole solve the cursors step past
/// each arc at most once, so find-min costs O(n) per iteration plus 2m in
/// total instead of a scan of every live arc in every iteration.

/// Empty best-slot sentinel: all-ones loses every unsigned min for free.
inline constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

/// Order-preserving map from weights to uint64: w1 < w2 ⇔ bits(w1) < bits(w2)
/// for all finite doubles.  -0.0 is collapsed onto +0.0 first — they compare
/// equal as weights, so their rank order must fall back to the input index,
/// which the weight sort only guarantees for identical sort keys.
[[nodiscard]] inline std::uint64_t monotone_weight_bits(graph::Weight w) {
  if (w == 0) w = 0;  // normalize -0.0
  const auto bits = std::bit_cast<std::uint64_t>(w);
  return (bits & (std::uint64_t{1} << 63)) != 0 ? ~bits
                                                : bits | (std::uint64_t{1} << 63);
}

[[nodiscard]] inline std::uint64_t pack_key(std::uint32_t rank,
                                            std::uint64_t arc) {
  return (std::uint64_t{rank} << 32) | arc;
}
[[nodiscard]] inline std::uint32_t key_rank(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32);
}
[[nodiscard]] inline std::uint64_t key_index(std::uint64_t key) {
  return key & 0xffffffffULL;
}

/// Whether the packed path can represent this graph: m ≤ 2^31 keeps every
/// rank below 2^32 and every directed-arc index (< 2m) within 32 bits.  The
/// edge bound of Bor-EL, Bor-FAL and Champion (validate_edge_count).
[[nodiscard]] inline bool find_min_packable(std::size_t num_edges) {
  return num_edges <= (std::size_t{1} << 31);
}

/// rank[e] ∈ [0, m): position of input edge e under the WeightOrder total
/// order, from the library's one weight sort (sort_by_weight,
/// core/weight_sort.hpp): a bucketed sample sort on `team` whose buckets
/// sort their ⟨weight bits, id⟩ keys in cache, so weight ties fall back to
/// the input index and complete the total order.  One more team pass turns
/// the sorted ids into ranks.  Fork-join (runs its own regions); call
/// during setup, not inside an open region.  If `rank_to_edge` is non-null
/// it receives the inverse permutation ((*rank_to_edge)[r] = the input edge
/// with rank r) — the sort writes it anyway, so this is free.
[[nodiscard]] std::vector<std::uint32_t> build_weight_ranks(
    ThreadTeam& team, const graph::EdgeList& g,
    std::vector<std::uint32_t>* rank_to_edge = nullptr);

/// Same sort over a flat weight array.
[[nodiscard]] std::vector<std::uint32_t> build_weight_ranks(
    ThreadTeam& team, std::span<const graph::Weight> weights,
    std::vector<std::uint32_t>* rank_to_edge = nullptr);

/// Bor-FAL's packed input: everything its Borůvka loop touches, with no
/// reference to how the graph was stored — identical inputs, identical
/// forests, whichever build_packed_input overload made it.
struct PackedSolveInput {
  graph::VertexId n = 0;
  /// n + 1 arc offsets (both directions of every edge).
  std::vector<graph::EdgeId> offsets;
  /// One ⟨weight-rank, target⟩ key per arc slot; each vertex's slice
  /// [offsets[x], offsets[x + 1]) is strictly ascending.
  std::unique_ptr<std::uint64_t[]> keys;
  /// rank -> input edge id permutation.
  std::vector<std::uint32_t> rank_to_edge;
};

/// Packed prologue on the caller's team: the weight sort writes
/// rank_to_edge plus the edge's two endpoints at each rank, then one
/// counting scatter walks the ranks in order (per-thread rank blocks, a
/// (vertex, thread)-ordered scan), so every slice comes out ascending by
/// rank with no per-vertex sort.  Adds the two phases' wall time to
/// `st.rank_build` and `st.arc_build`.  Fork-join.  The input must have no
/// self-loops (an edge's two arcs would share a slice and a key).
[[nodiscard]] PackedSolveInput build_packed_input(ThreadTeam& team,
                                                  const graph::EdgeList& g,
                                                  StepTimes& st);

/// An edge's two endpoints in one word, as build_packed_input's flat-array
/// overload takes them.
[[nodiscard]] inline std::uint64_t pack_ends(graph::VertexId u,
                                             graph::VertexId v) {
  return (std::uint64_t{u} << 32) | v;
}

/// Same over flat arrays: edge e joins the endpoints packed in ends[e]
/// (pack_ends) with weight w[e] — Champion gathers its survivor sub-graph
/// this way.
[[nodiscard]] PackedSolveInput build_packed_input(
    ThreadTeam& team, graph::VertexId n, std::span<const std::uint64_t> ends,
    std::span<const graph::Weight> w, StepTimes& st);

/// One-thread packed-arc build from per-edge ranks (rank[e] as
/// build_weight_ranks returns it): the same offsets and keys as
/// build_packed_input, slices ascending by rank.
void build_packed_arcs(const graph::EdgeList& g, graph::VertexId n,
                       std::span<const std::uint32_t> rank,
                       std::vector<graph::EdgeId>& offsets,
                       std::unique_ptr<std::uint64_t[]>& keys);

/// The cursor step of Bor-FAL's find-min: from `cursor`, the first arc slot
/// in [cursor, end) of a rank-ascending slice whose target is not in
/// supervertex `s` under `labels` (or `end`).  Every slot it steps past is
/// dead for good, so the caller stores the result back as the new cursor;
/// the key there is the slice's lightest live arc.
[[nodiscard]] inline graph::EdgeId first_live_arc(
    const std::uint64_t* keys, graph::EdgeId cursor, graph::EdgeId end,
    std::span<const graph::VertexId> labels, graph::VertexId s) {
  while (cursor < end && labels[key_index(keys[cursor])] == s) ++cursor;
  return cursor;
}

/// Per-thread slabs for the contention-aware local-best reduction: when the
/// team is large and cur_n small, every thread min-merges into its own slab
/// and the slabs are reduced into best[0..n) by merge_local_best_in_region,
/// replacing p-way CAS contention on a handful of hot lines with private
/// writes plus one parallel merge pass.
class LocalBestScratch {
 public:
  /// Size for p threads × n slots.  tid-0-only, behind a barrier.  Slabs are
  /// rounded up to whole cache lines so neighbours never share a line;
  /// grow-only so the fused Borůvka loop reuses the allocation.
  void ensure(int p, std::size_t n) {
    constexpr std::size_t kLine = kCacheLineBytes / sizeof(std::uint64_t);
    stride_ = (n + kLine - 1) / kLine * kLine;
    const std::size_t need = static_cast<std::size_t>(p) * stride_;
    if (slab_.size() < need) slab_.resize(need);
  }

  [[nodiscard]] std::uint64_t* slab(int tid) {
    return slab_.data() + static_cast<std::size_t>(tid) * stride_;
  }

 private:
  std::vector<std::uint64_t> slab_;
  std::size_t stride_ = 0;
};

/// Reduce the team's slabs into best[0..n): one for_range pass, slot s
/// min-reduced across all p slabs.  Call inside the region, after a barrier
/// has published every thread's slab writes; follow with a barrier before
/// reading best.
inline void merge_local_best_in_region(TeamCtx& ctx, LocalBestScratch& s,
                                       std::span<std::uint64_t> best) {
  const int p = ctx.nthreads();
  for_range(ctx, best.size(), [&](std::size_t v) {
    std::uint64_t b = s.slab(0)[v];
    for (int t = 1; t < p; ++t) {
      const std::uint64_t cand = s.slab(t)[v];
      if (cand < b) b = cand;
    }
    best[v] = b;
  });
}

/// Scalar argmin over one adjacency slice under the ⟨weight, orig⟩ order —
/// the shared inner loop of the per-vertex find-min variants (Bor-AL/ALM and
/// MST-BC's Borůvka rounds), whose arcs are rebuilt AoS each iteration and
/// whose slices are private to one thread (no packing or atomics needed).
/// Returns kInvalidEdge for an empty slice.
template <class Arcs>
[[nodiscard]] graph::EdgeId best_arc_in_slice(const Arcs& arcs,
                                              graph::EdgeId lo,
                                              graph::EdgeId hi) {
  graph::EdgeId best = graph::kInvalidEdge;
  for (graph::EdgeId a = lo; a < hi; ++a) {
    if (best == graph::kInvalidEdge || arcs[a].order() < arcs[best].order()) {
      best = a;
    }
  }
  return best;
}

}  // namespace smp::core
