#include "core/find_min.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "graph/compressed_csr.hpp"
#include "pprim/huge_pages.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/partition.hpp"
#include "pprim/timer.hpp"

namespace smp::core {

namespace {

using graph::EdgeId;
using graph::VertexId;

// Rank sort: 16-bit digits, so a full 64-bit key costs 4 scatter passes
// instead of the 8 the general-purpose 8-bit radix sort pays.  The rank
// build is the packed path's setup tax on every solve, and its keys are
// weight bits — nearly every byte position varies, so the shared sort's
// constant-byte skipping rarely helps it.  The wider digit doubles the
// count-slab footprint (64Ki counters per thread) but halves the passes
// over the m-element key arrays, which is what dominates.
constexpr int kRankDigitBits = 16;
constexpr std::size_t kRankBuckets = std::size_t{1} << kRankDigitBits;
// Below this size the parallel machinery costs more than one std::sort.
constexpr std::size_t kRankSeqCutoff = std::size_t{1} << 15;
// Packed path: when the index fits 24 bits it shares the 64-bit sort
// element with the top 40 weight bits (see rank_sort_packed).
constexpr int kRankPackedIdxBits = 24;
constexpr std::uint64_t kRankIdxMask =
    (std::uint64_t{1} << kRankPackedIdxBits) - 1;

// Sort blocks per thread.  The team claims the blocks of every pass
// dynamically, so a thread that stalls (descheduled on a shared host)
// holds up one block instead of a 1/p share of each pass; each block costs
// one kRankBuckets count slab, which caps the factor.
constexpr std::size_t kRankBlocksPerThread = 4;

/// Team-shared state of one rank sort: a block-major count slab of
/// kRankBuckets counters per sort block, per-thread partials for the
/// bucket scan and the key OR/AND reductions, and the shared cursors from
/// which the team claims blocks.  A one-thread team sorts one block:
/// there is nothing to balance.
struct RankSortScratch {
  RankSortScratch(int p, std::size_t m)
      : blocks(p == 1 ? 1
                      : std::min(m, kRankBlocksPerThread *
                                        static_cast<std::size_t>(p))),
        counts(std::make_unique_for_overwrite<std::uint64_t[]>(blocks * kRankBuckets)),
        partial(static_cast<std::size_t>(p)),
        key_or(static_cast<std::size_t>(p)),
        key_and(static_cast<std::size_t>(p)) {}

  std::size_t blocks;
  std::unique_ptr<std::uint64_t[]> counts;
  std::vector<Padded<std::uint64_t>> partial;
  std::vector<Padded<std::uint64_t>> key_or;
  std::vector<Padded<std::uint64_t>> key_and;
  /// Block cursors: the key build, each pass's count and scatter (reset by
  /// tid 0 inside the pass), and the final emit (plus the packed fix-up).
  Padded<std::atomic<std::size_t>> build_cursor;
  Padded<std::atomic<std::size_t>> count_cursor;
  Padded<std::atomic<std::size_t>> scatter_cursor;
  Padded<std::atomic<std::size_t>> fixup_cursor;
  Padded<std::atomic<std::size_t>> emit_cursor;

  /// Publish this thread's key OR/AND; after the barrier every thread
  /// returns the bits that vary across all m keys.  A digit that is
  /// constant over every key makes its pass the identity permutation, so
  /// the passes over it are skipped.
  std::uint64_t varying_bits(TeamCtx& ctx, std::uint64_t acc_or,
                             std::uint64_t acc_and) {
    const auto t = static_cast<std::size_t>(ctx.tid());
    key_or[t].value = acc_or;
    key_and[t].value = acc_and;
    ctx.barrier();
    std::uint64_t all_or = 0;
    std::uint64_t all_and = ~std::uint64_t{0};
    for (std::size_t t2 = 0; t2 < key_or.size(); ++t2) {
      all_or |= key_or[t2].value;
      all_and &= key_and[t2].value;
    }
    return all_or ^ all_and;
  }
};

/// One stable LSD counting pass over [0, m) on the whole team (the
/// block-local histogram plus prefix-sum scheme): each claimed block is
/// counted into its own slab, a parallel (bucket, block)-ordered scan turns
/// the slabs into scatter cursors, and each claimed block is scattered in
/// order — so equal digits keep their input order.  `digit(i)` is source
/// element i's bucket in [0, buckets); `move(i, pos)` copies source element
/// i to destination slot pos.  Ends behind a barrier.
template <class Digit, class Move>
void rank_sort_pass(TeamCtx& ctx, std::size_t m, std::size_t buckets,
                    RankSortScratch& s, Digit digit, Move move) {
  const int p = ctx.nthreads();
  const auto t = static_cast<std::size_t>(ctx.tid());
  const std::size_t blocks = s.blocks;
  std::uint64_t* const counts = s.counts.get();
  for_range_dynamic(ctx, s.count_cursor.value, blocks, 1, [&](std::size_t b) {
    std::uint64_t* const mine = counts + b * kRankBuckets;
    const IndexRange r = dynamic_block(m, b, blocks);
    std::fill(mine, mine + buckets, 0);
    for (std::size_t i = r.begin; i < r.end; ++i) ++mine[digit(i)];
  });
  ctx.barrier();
  // Every thread has drained both cursors' last use (this pass's count,
  // the previous pass's scatter); the next use is behind two barriers.
  if (t == 0) {
    s.count_cursor.value.store(0, std::memory_order_relaxed);
    s.scatter_cursor.value.store(0, std::memory_order_relaxed);
  }

  // Each thread scans one bucket range across all slabs: its range total
  // first, then (behind a barrier) its exclusive base from the lower ranges.
  const IndexRange br = block_range(buckets, ctx.tid(), p);
  std::uint64_t sum = 0;
  for (std::size_t b = br.begin; b < br.end; ++b) {
    for (std::size_t k = 0; k < blocks; ++k) sum += counts[k * kRankBuckets + b];
  }
  s.partial[t].value = sum;
  ctx.barrier();
  std::uint64_t run = 0;
  for (std::size_t t2 = 0; t2 < t; ++t2) run += s.partial[t2].value;
  for (std::size_t b = br.begin; b < br.end; ++b) {
    for (std::size_t k = 0; k < blocks; ++k) {
      std::uint64_t& c = counts[k * kRankBuckets + b];
      const std::uint64_t v = c;
      c = run;
      run += v;
    }
  }
  ctx.barrier();

  for_range_dynamic(ctx, s.scatter_cursor.value, blocks, 1, [&](std::size_t b) {
    std::uint64_t* const mine = counts + b * kRankBuckets;
    const IndexRange r = dynamic_block(m, b, blocks);
    for (std::size_t i = r.begin; i < r.end; ++i) move(i, mine[digit(i)]++);
  });
  ctx.barrier();
}

/// m ≤ 2^24: self-contained 8-byte elements.  The index rides in the low 24
/// bits of the sort element, so each scatter moves 8 bytes instead of a
/// 12-byte (key, index) pair, and only the top 40 weight bits are radix
/// passes (16/16/8 bits: 3 instead of 4).  Distinct weights that collide in
/// those 40 bits are rare for real inputs; the run fix-up restores the
/// exact order for them.
template <class WeightAt, class Emit>
void rank_sort_packed(ThreadTeam& team, std::size_t m, WeightAt w_at, Emit emit) {
  auto keys = make_huge_for_overwrite<std::uint64_t>(m);
  auto keys_aux = make_huge_for_overwrite<std::uint64_t>(m);
  RankSortScratch s(team.size(), m);

  team.run([&](TeamCtx& ctx) {
    std::uint64_t acc_or = 0;
    std::uint64_t acc_and = ~std::uint64_t{0};
    for_range_dynamic(ctx, s.build_cursor.value, s.blocks, 1, [&](std::size_t b) {
      const IndexRange r = dynamic_block(m, b, s.blocks);
      for (std::size_t i = r.begin; i < r.end; ++i) {
        const std::uint64_t k = monotone_weight_bits(w_at(i));
        keys[i] = (k & ~kRankIdxMask) | i;
        acc_or |= k;
        acc_and &= k;
      }
    });
    const std::uint64_t varying = s.varying_bits(ctx, acc_or, acc_and);

    std::uint64_t* src = keys.get();
    std::uint64_t* dst = keys_aux.get();
    for (int shift = kRankPackedIdxBits; shift < 64; shift += kRankDigitBits) {
      const int width = std::min(64 - shift, kRankDigitBits);
      const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
      if (((varying >> shift) & mask) == 0) continue;
      rank_sort_pass(
          ctx, m, mask + 1, s,
          [&](std::size_t i) { return (src[i] >> shift) & mask; },
          [&](std::size_t i, std::uint64_t pos) { dst[pos] = src[i]; });
      std::swap(src, dst);
    }

    // Fix-up: inside a run of equal top-40 bits the stable passes left
    // input-index order, which is correct only if the low 24 weight bits
    // agree too.  Re-sort mixed runs under the full ⟨weight bits, index⟩
    // order; runs are short and rare, so this gathers a handful of edges.
    // Each block owns the runs that START in it (a run may run past the
    // block end); its thread finds them read-only and writes the fixes
    // only after a barrier, so no thread reads an element another is
    // rewriting.
    std::vector<std::pair<std::size_t, std::uint32_t>> fixes;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> run;
    const auto hi_of = [&](std::size_t i) { return src[i] & ~kRankIdxMask; };
    for_range_dynamic(ctx, s.fixup_cursor.value, s.blocks, 1, [&](std::size_t b) {
      const IndexRange r = dynamic_block(m, b, s.blocks);
      for (std::size_t i = r.begin; i < r.end;) {
        const std::uint64_t hi = hi_of(i);
        if (i > 0 && hi_of(i - 1) == hi) {  // continues a run owned upstream
          ++i;
          continue;
        }
        std::size_t j = i + 1;
        while (j < m && hi_of(j) == hi) ++j;
        if (j - i > 1) {
          run.clear();
          bool mixed = false;
          for (std::size_t k = i; k < j; ++k) {
            const auto e = static_cast<std::uint32_t>(src[k] & kRankIdxMask);
            run.emplace_back(monotone_weight_bits(w_at(e)), e);
            mixed = mixed || run.back().first != run.front().first;
          }
          if (mixed) {
            std::sort(run.begin(), run.end());
            for (std::size_t k = i; k < j; ++k) {
              fixes.emplace_back(k, run[k - i].second);
            }
          }
        }
        i = j;
      }
    });
    ctx.barrier();
    for (const auto& [pos, e] : fixes) src[pos] = (src[pos] & ~kRankIdxMask) | e;
    ctx.barrier();

    for_range_dynamic(ctx, s.emit_cursor.value, s.blocks, 1, [&](std::size_t b) {
      const IndexRange r = dynamic_block(m, b, s.blocks);
      for (std::size_t i = r.begin; i < r.end; ++i) {
        emit(i, static_cast<std::uint32_t>(src[i] & kRankIdxMask));
      }
    });
  });
}

/// m > 2^24: the index no longer fits beside the weight bits, so sort
/// 12-byte ⟨weight bits, index⟩ pairs in four 16-bit passes.
template <class WeightAt, class Emit>
void rank_sort_wide(ThreadTeam& team, std::size_t m, WeightAt w_at, Emit emit) {
  auto keys = make_huge_for_overwrite<std::uint64_t>(m);
  auto keys_aux = make_huge_for_overwrite<std::uint64_t>(m);
  auto idx = make_huge_for_overwrite<std::uint32_t>(m);
  auto idx_aux = make_huge_for_overwrite<std::uint32_t>(m);
  RankSortScratch s(team.size(), m);

  team.run([&](TeamCtx& ctx) {
    std::uint64_t acc_or = 0;
    std::uint64_t acc_and = ~std::uint64_t{0};
    for_range_dynamic(ctx, s.build_cursor.value, s.blocks, 1, [&](std::size_t b) {
      const IndexRange r = dynamic_block(m, b, s.blocks);
      for (std::size_t i = r.begin; i < r.end; ++i) {
        const std::uint64_t k = monotone_weight_bits(w_at(i));
        keys[i] = k;
        idx[i] = static_cast<std::uint32_t>(i);
        acc_or |= k;
        acc_and &= k;
      }
    });
    const std::uint64_t varying = s.varying_bits(ctx, acc_or, acc_and);

    std::uint64_t* ksrc = keys.get();
    std::uint64_t* kdst = keys_aux.get();
    std::uint32_t* isrc = idx.get();
    std::uint32_t* idst = idx_aux.get();
    for (int shift = 0; shift < 64; shift += kRankDigitBits) {
      if (((varying >> shift) & (kRankBuckets - 1)) == 0) continue;
      rank_sort_pass(
          ctx, m, kRankBuckets, s,
          [&](std::size_t i) { return (ksrc[i] >> shift) & (kRankBuckets - 1); },
          [&](std::size_t i, std::uint64_t pos) {
            kdst[pos] = ksrc[i];
            idst[pos] = isrc[i];
          });
      std::swap(ksrc, kdst);
      std::swap(isrc, idst);
    }
    // Stable passes leave equal weight bits in input-index order, which is
    // exactly WeightOrder's tie-break.
    for_range_dynamic(ctx, s.emit_cursor.value, s.blocks, 1, [&](std::size_t b) {
      const IndexRange r = dynamic_block(m, b, s.blocks);
      for (std::size_t i = r.begin; i < r.end; ++i) emit(i, isrc[i]);
    });
  });
}

/// The weight-rank sort: WeightOrder over [0, m) with `w_at(e)` edge e's
/// weight, on the caller's team (a one-thread team runs the identical code
/// inline).  Its final pass calls emit(r, e) once for every rank r, where e
/// is the edge of rank r, from the one thread that claimed the sort block
/// holding position r — so emit may write slot r of a rank-indexed array
/// (and slot e of an edge-indexed one) without synchronization.
template <class WeightAt, class Emit>
void rank_sort(ThreadTeam& team, std::size_t m, WeightAt w_at, Emit emit,
               bool force_wide = false) {
  if (m == 0) return;
  if (force_wide || m > (std::size_t{1} << kRankPackedIdxBits)) {
    rank_sort_wide(team, m, w_at, emit);
  } else if (m >= kRankSeqCutoff) {
    rank_sort_packed(team, m, w_at, emit);
  } else {
    // ⟨weight bits, input index⟩ order; the index completes the WeightOrder
    // tie-break, so the comparison sort needs no stability.
    auto keys = std::make_unique_for_overwrite<std::uint64_t[]>(m);
    auto idx = std::make_unique_for_overwrite<std::uint32_t[]>(m);
    for (std::size_t i = 0; i < m; ++i) {
      keys[i] = monotone_weight_bits(w_at(i));
      idx[i] = static_cast<std::uint32_t>(i);
    }
    std::sort(idx.get(), idx.get() + m, [&](std::uint32_t a, std::uint32_t b) {
      return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
    });
    for (std::size_t i = 0; i < m; ++i) emit(i, idx[i]);
  }
}

template <class WeightAt>
std::vector<std::uint32_t> build_weight_ranks_impl(
    ThreadTeam& team, std::size_t m, WeightAt w_at,
    std::vector<std::uint32_t>* rank_to_edge) {
  std::vector<std::uint32_t> rank(m);
  if (rank_to_edge != nullptr) rank_to_edge->resize(m);
  std::uint32_t* const r2e =
      rank_to_edge != nullptr ? rank_to_edge->data() : nullptr;
  rank_sort(team, m, w_at, [&](std::size_t r, std::uint32_t e) {
    rank[e] = static_cast<std::uint32_t>(r);
    if (r2e != nullptr) r2e[r] = e;
  });
  return rank;
}

/// The counting scatter behind every packed build: ends[r] holds the
/// endpoints of the edge of rank r (pack_ends), and each edge's two arcs go
/// to its endpoints' slices as pack_key(r, other endpoint).
///
/// Each counting thread owns one contiguous rank block: it counts the
/// degrees of its block into a private n-slot slab, a (vertex, thread)-
/// ordered scan turns the slabs into offsets plus per-thread cursors, and
/// each thread scatters its own block.  Vertex x's arcs therefore land in
/// ascending rank order, exactly as one sequential cursor scatter over the
/// ranks would place them.  The slabs are capped at the size of the 2m-key
/// array they build: at most 2m / n counting threads (at least one), so a
/// graph with n ≫ m counts on one thread instead of allocating p·n slots.
/// Slab entries are 32-bit: a degree is at most m ≤ 2^31 (find_min_packable),
/// and every cursor that is written through indexes an arc slot below
/// 2m ≤ 2^32.  Only a cursor past its vertex's last arc can reach 2^32, and
/// it is never used.
void scatter_arcs(ThreadTeam& team, VertexId n, EdgeId m,
                  const std::uint64_t* ends, std::vector<EdgeId>& offsets,
                  std::unique_ptr<std::uint64_t[]>& keys) {
  const int p = team.size();
  const auto N = static_cast<std::size_t>(n);
  const std::size_t num_arcs = 2 * static_cast<std::size_t>(m);
  const int q = static_cast<int>(std::clamp<std::size_t>(
      N == 0 ? 1 : num_arcs / N, 1, static_cast<std::size_t>(p)));
  auto slabs = std::make_unique_for_overwrite<std::uint32_t[]>(
      static_cast<std::size_t>(q) * N);
  std::vector<Padded<EdgeId>> partial(static_cast<std::size_t>(p));
  offsets.resize(N + 1);
  keys = make_huge_for_overwrite<std::uint64_t>(num_arcs);

  team.run([&](TeamCtx& ctx) {
    const int t = ctx.tid();
    const bool counts = t < q;
    std::uint32_t* const mine =
        counts ? slabs.get() + static_cast<std::size_t>(t) * N : nullptr;
    const IndexRange rb = counts ? block_range(m, t, q) : IndexRange{};
    if (counts) {
      std::fill(mine, mine + N, std::uint32_t{0});
      for (std::size_t r = rb.begin; r < rb.end; ++r) {
        ++mine[ends[r] >> 32];
        ++mine[ends[r] & 0xffffffffULL];
      }
    }
    ctx.barrier();

    const IndexRange vr = block_range(N, t, p);
    EdgeId sum = 0;
    for (std::size_t x = vr.begin; x < vr.end; ++x) {
      for (int t2 = 0; t2 < q; ++t2) sum += slabs[static_cast<std::size_t>(t2) * N + x];
    }
    partial[static_cast<std::size_t>(t)].value = sum;
    ctx.barrier();
    EdgeId run = 0;
    for (int t2 = 0; t2 < t; ++t2) run += partial[static_cast<std::size_t>(t2)].value;
    for (std::size_t x = vr.begin; x < vr.end; ++x) {
      offsets[x] = run;
      for (int t2 = 0; t2 < q; ++t2) {
        std::uint32_t& c = slabs[static_cast<std::size_t>(t2) * N + x];
        const EdgeId d = c;
        c = static_cast<std::uint32_t>(run);
        run += d;
      }
    }
    if (t == p - 1) offsets[N] = run;
    ctx.barrier();

    for (std::size_t r = rb.begin; r < rb.end; ++r) {
      const auto u = static_cast<VertexId>(ends[r] >> 32);
      const auto v = static_cast<VertexId>(ends[r]);
      const auto rank = static_cast<std::uint32_t>(r);
      keys[mine[u]++] = pack_key(rank, v);
      keys[mine[v]++] = pack_key(rank, u);
    }
  });
}

/// The one packed prologue behind every build_packed_input overload: the
/// rank sort, whose emit writes rank_to_edge and the endpoints at each
/// rank, then the arc scatter over them.  `w_at(e)` is edge e's weight and
/// `ends_at(e)` its pack_ends word.
template <class WeightAt, class EndsAt>
PackedSolveInput build_packed_input_impl(ThreadTeam& team, VertexId n,
                                         std::size_t m, WeightAt w_at,
                                         EndsAt ends_at, StepTimes& st,
                                         bool force_wide = false) {
  WallTimer phase;
  PackedSolveInput in;
  in.n = n;
  reserve_huge(in.rank_to_edge, m);
  in.rank_to_edge.resize(m);
  auto ends = make_huge_for_overwrite<std::uint64_t>(m);
  std::uint32_t* const r2e = in.rank_to_edge.data();
  rank_sort(
      team, m, w_at,
      [&](std::size_t r, std::uint32_t e) {
        r2e[r] = e;
        ends[r] = ends_at(e);
      },
      force_wide);
  st.rank_build += phase.elapsed_s();
  phase.reset();
  scatter_arcs(team, n, m, ends.get(), in.offsets, in.keys);
  st.arc_build += phase.elapsed_s();
  return in;
}

PackedSolveInput edge_list_input(ThreadTeam& team, const graph::EdgeList& g,
                                 StepTimes& st, bool force_wide) {
  return build_packed_input_impl(
      team, g.num_vertices, g.edges.size(),
      [&](std::size_t e) { return g.edges[e].w; },
      [&](std::size_t e) { return pack_ends(g.edges[e].u, g.edges[e].v); }, st,
      force_wide);
}

}  // namespace

std::vector<std::uint32_t> build_weight_ranks(
    ThreadTeam& team, const graph::EdgeList& g,
    std::vector<std::uint32_t>* rank_to_edge) {
  return build_weight_ranks_impl(
      team, g.edges.size(), [&](std::size_t i) { return g.edges[i].w; },
      rank_to_edge);
}

std::vector<std::uint32_t> build_weight_ranks(
    ThreadTeam& team, std::span<const graph::Weight> weights,
    std::vector<std::uint32_t>* rank_to_edge) {
  return build_weight_ranks_impl(
      team, weights.size(), [&](std::size_t i) { return weights[i]; },
      rank_to_edge);
}

PackedSolveInput build_packed_input(ThreadTeam& team, const graph::EdgeList& g,
                                    StepTimes& st) {
  return edge_list_input(team, g, st, /*force_wide=*/false);
}

PackedSolveInput build_packed_input(ThreadTeam& team, VertexId n,
                                    std::span<const std::uint64_t> ends,
                                    std::span<const graph::Weight> w,
                                    StepTimes& st) {
  return build_packed_input_impl(
      team, n, w.size(), [&](std::size_t e) { return w[e]; },
      [&](std::size_t e) { return ends[e]; }, st);
}

PackedSolveInput build_packed_input(ThreadTeam& team, const graph::CompressedCsr& g,
                                    StepTimes& st) {
  const VertexId n = g.num_vertices();
  const EdgeId m = g.num_edges();
  // Decode the endpoints once (bulk varint kernel, one row range per
  // thread) so the rank sort's final pass can gather them by edge id.
  auto ends = std::make_unique_for_overwrite<std::uint64_t[]>(
      static_cast<std::size_t>(m));
  {
    WallTimer decode;
    auto targets = std::make_unique_for_overwrite<VertexId[]>(
        static_cast<std::size_t>(m));
    // Thread t decodes the whole rows that start inside its edge block.
    const auto first_row_from = [&](EdgeId e) {
      VertexId lo = 0;
      VertexId hi = n;
      while (lo < hi) {
        const VertexId mid = lo + (hi - lo) / 2;
        if (g.edge_offset(mid) < e) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    };
    team.run([&](TeamCtx& ctx) {
      const int t = ctx.tid();
      const int p = ctx.nthreads();
      const VertexId lo = first_row_from(block_range(m, t, p).begin);
      const VertexId hi =
          t + 1 == p ? n : first_row_from(block_range(m, t + 1, p).begin);
      g.decode_targets(lo, hi, targets.get());
      for (VertexId x = lo; x < hi; ++x) {
        for (EdgeId e = g.edge_offset(x); e < g.edge_offset(x + 1); ++e) {
          ends[e] = pack_ends(x, targets[e]);
        }
      }
    });
    st.arc_build += decode.elapsed_s();
  }
  const graph::Weight* const weights = g.weights();
  return build_packed_input_impl(
      team, n, static_cast<std::size_t>(m),
      [&](std::size_t e) { return weights[e]; },
      [&](std::size_t e) { return ends[e]; }, st);
}

namespace detail {

PackedSolveInput build_packed_input_wide(ThreadTeam& team, const graph::EdgeList& g,
                                         StepTimes& st) {
  return edge_list_input(team, g, st, /*force_wide=*/true);
}

}  // namespace detail

void build_packed_arcs(const graph::EdgeList& g, VertexId n,
                       std::span<const std::uint32_t> rank,
                       std::vector<EdgeId>& offsets,
                       std::unique_ptr<std::uint64_t[]>& keys) {
  const std::size_t m = g.edges.size();
  auto ends = std::make_unique_for_overwrite<std::uint64_t[]>(m);
  for (std::size_t e = 0; e < m; ++e) {
    ends[rank[e]] = pack_ends(g.edges[e].u, g.edges[e].v);
  }
  ThreadTeam one(1);
  scatter_arcs(one, n, m, ends.get(), offsets, keys);
}

}  // namespace smp::core
