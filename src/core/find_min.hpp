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

namespace smp::graph {
class CompressedCsr;
}

namespace smp::core {

/// Shared find-min layer (FindMinMode::kSimd / kAuto).
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
/// *target vertex*, which removes the arc-array gather from its prune loop
/// (labels[target] indexes a small cache-resident table) and recovers the
/// input edge at selection time through the rank permutation
/// (rank_to_edge).  The cross-thread race collapses from a two-word
/// comparator CAS loop to atomic_min_u64, and the per-vertex inner scan
/// becomes the branch-light u64_argmin SIMD kernel.

/// Empty best-slot sentinel: all-ones loses every unsigned min for free.
inline constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

/// Order-preserving map from weights to uint64: w1 < w2 ⇔ bits(w1) < bits(w2)
/// for all finite doubles.  -0.0 is collapsed onto +0.0 first — they compare
/// equal as weights, so their rank order must fall back to the input index,
/// which the stable rank sort only guarantees for identical sort keys.
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
/// rank below 2^32 and every directed-arc index (< 2m) within 32 bits.
[[nodiscard]] inline bool find_min_packable(std::size_t num_edges) {
  return num_edges <= (std::size_t{1} << 31);
}

/// Resolve the requested mode against the graph (see FindMinMode).
[[nodiscard]] inline FindMinMode resolve_find_min_mode(FindMinMode requested,
                                                       std::size_t num_edges) {
  if (requested == FindMinMode::kScan) return FindMinMode::kScan;
  return find_min_packable(num_edges) ? FindMinMode::kSimd : FindMinMode::kScan;
}

/// rank[e] ∈ [0, m): position of input edge e under the WeightOrder total
/// order.  Stable parallel LSD radix sort of the input indices keyed by
/// monotone_weight_bits — stability is what breaks weight ties by input
/// index, completing the total order.  Below 2^15 edges one std::sort; up to
/// 2^24 edges packed 8-byte ⟨top 40 weight bits | 24-bit index⟩ elements in
/// three passes plus a run fix-up; above that 12-byte ⟨key, index⟩ pairs in
/// four.  Every path runs on `team` (a one-thread team runs the same code
/// inline).  Fork-join (runs its own region); call during setup, not inside
/// an open region.  If `rank_to_edge` is non-null it receives the inverse
/// permutation ((*rank_to_edge)[r] = the input edge with rank r) — the sort
/// materializes it anyway, so this is free.
[[nodiscard]] std::vector<std::uint32_t> build_weight_ranks(
    ThreadTeam& team, const graph::EdgeList& g,
    std::vector<std::uint32_t>* rank_to_edge = nullptr);

/// Same sort over a flat weight array — the compressed-graph path, whose
/// weights are already a contiguous f64 section, skips the AoS gather.
[[nodiscard]] std::vector<std::uint32_t> build_weight_ranks(
    ThreadTeam& team, std::span<const graph::Weight> weights,
    std::vector<std::uint32_t>* rank_to_edge = nullptr);

namespace detail {
/// The m > 2^24 path of build_weight_ranks (12-byte ⟨key, index⟩ pairs)
/// forced at any m, so tests can check it against the packed path without
/// a 2^24-edge input.
[[nodiscard]] std::vector<std::uint32_t> build_weight_ranks_wide(
    ThreadTeam& team, std::span<const graph::Weight> weights,
    std::vector<std::uint32_t>* rank_to_edge = nullptr);
}  // namespace detail

/// Packed-path adjacency build: n + 1 offsets plus one pre-packed
/// ⟨rank, target⟩ key per directed arc, straight from the edge list.  This
/// replaces a full CsrGraph for Bor-FAL's packed find-min — the key array
/// IS the adjacency structure, so the target/weight/orig arc arrays (and
/// the separate key-packing pass over them, with its random rank gathers —
/// here rank[e] is a sequential read) are never materialized.  Each
/// vertex's arcs appear in ascending input-edge order, whatever the team
/// size: per-thread degree counts over edge blocks, a (vertex, thread)-
/// ordered scan, then each thread scatters its own block.  Fork-join.
void build_packed_arcs(ThreadTeam& team, const graph::EdgeList& g,
                       graph::VertexId n, std::span<const std::uint32_t> rank,
                       std::vector<graph::EdgeId>& offsets,
                       std::unique_ptr<std::uint64_t[]>& keys);

/// Same build over bare endpoint arrays: edge e joins u[e] and v[e]
/// (Champion's sub-solves gather their edges as flat arrays, never as an
/// EdgeList).
void build_packed_arcs(ThreadTeam& team, std::span<const graph::VertexId> u,
                       std::span<const graph::VertexId> v, graph::VertexId n,
                       std::span<const std::uint32_t> rank,
                       std::vector<graph::EdgeId>& offsets,
                       std::unique_ptr<std::uint64_t[]>& keys);

/// One-thread build_packed_arcs (identical output).
void build_packed_arcs(const graph::EdgeList& g, graph::VertexId n,
                       std::span<const std::uint32_t> rank,
                       std::vector<graph::EdgeId>& offsets,
                       std::unique_ptr<std::uint64_t[]>& keys);

/// Decode-on-the-fly variant over the compressed CSR: decodes the varint
/// rows (one row range per thread) and packs ⟨rank, target⟩ keys with the
/// same engine, so its output equals the EdgeList overload's on the
/// canonicalized graph.  The only uncompressed scratch is one u32 target
/// per edge; no EdgeList or CsrGraph is ever materialized (the eager path
/// costs 16 B/edge more).
void build_packed_arcs(ThreadTeam& team, const graph::CompressedCsr& g,
                       std::span<const std::uint32_t> rank,
                       std::vector<graph::EdgeId>& offsets,
                       std::unique_ptr<std::uint64_t[]>& keys);

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
