#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "pprim/cacheline.hpp"
#include "pprim/partition.hpp"
#include "pprim/thread_team.hpp"
#include "pprim/tuning.hpp"

namespace smp {

/// Team-shared scratch for sample_sort_in_region.  Grow-only across calls,
/// so a fused Borůvka loop allocates the buffers once and reuses them every
/// iteration.  Tid 0 (re)sizes the members inside the region behind a
/// barrier; the other threads only touch them afterwards.
template <class T>
struct SampleSortScratch {
  std::vector<T> samples;
  std::vector<T> splitters;
  std::vector<T> aux;
  /// counts[t * P + b] = number of elements of thread t falling in bucket b.
  std::vector<std::size_t> counts;
  /// piece_begin[t * (P+1) + b] = start offset of bucket b within t's block.
  std::vector<std::size_t> piece_begin;
};

/// Parallel sample sort after Helman & JáJá — the sort that drives Bor-EL's
/// compact-graph step (§2.1 of the paper) — as an in-region primitive: all
/// team threads call it inside an open SPMD region with identical arguments,
/// and it synchronizes through ctx.barrier() instead of forking a region of
/// its own.
///
/// Phases: (1) each thread sorts a contiguous block; (2) regular oversampling
/// picks p−1 splitters; (3) each thread partitions its sorted block by the
/// splitters and scatters to bucket-major order; (4) each thread sorts its
/// bucket.  One n-element aux buffer, owned by the scratch.
///
/// The final barrier publishes the sorted `data`, so on return every thread
/// may read any element.
template <class T, class Less>
void sample_sort_in_region(TeamCtx& ctx, std::vector<T>& data,
                           SampleSortScratch<T>& s, Less less) {
  const std::size_t n = data.size();
  const int p = ctx.nthreads();
  if (p == 1 || n < kSampleSortCutoff) {
    if (ctx.tid() == 0) std::sort(data.begin(), data.end(), less);
    if (p > 1) ctx.barrier();
    return;
  }

  const auto P = static_cast<std::size_t>(p);
  constexpr std::size_t kOversample = 32;
  if (ctx.tid() == 0) {
    s.samples.resize(P * kOversample);
    s.splitters.resize(P - 1);
    s.aux.resize(n);
    s.counts.assign(P * P, 0);
    s.piece_begin.assign(P * (P + 1), 0);
  }
  ctx.barrier();

  const auto t = static_cast<std::size_t>(ctx.tid());
  const IndexRange r = block_range(n, ctx.tid(), ctx.nthreads());
  std::sort(data.begin() + static_cast<std::ptrdiff_t>(r.begin),
            data.begin() + static_cast<std::ptrdiff_t>(r.end), less);
  // Regular sampling from the sorted block.
  for (std::size_t i = 0; i < kOversample; ++i) {
    const std::size_t idx = r.empty() ? 0 : r.begin + (i * r.size()) / kOversample;
    s.samples[t * kOversample + i] = data[std::min(idx, n - 1)];
  }
  ctx.barrier();
  if (ctx.tid() == 0) {
    std::sort(s.samples.begin(), s.samples.end(), less);
    for (std::size_t b = 1; b < P; ++b) {
      s.splitters[b - 1] = s.samples[b * kOversample];
    }
  }
  ctx.barrier();
  // Locate bucket boundaries in this thread's sorted block.
  std::size_t* pb = &s.piece_begin[t * (P + 1)];
  pb[0] = r.begin;
  for (std::size_t b = 0; b + 1 < P; ++b) {
    const auto it = std::upper_bound(
        data.begin() + static_cast<std::ptrdiff_t>(pb[b]),
        data.begin() + static_cast<std::ptrdiff_t>(r.end), s.splitters[b], less);
    pb[b + 1] = static_cast<std::size_t>(it - data.begin());
  }
  pb[P] = r.end;
  for (std::size_t b = 0; b < P; ++b) s.counts[t * P + b] = pb[b + 1] - pb[b];
  ctx.barrier();
  // Serial exclusive scan over P*P counts in bucket-major order (tiny).
  if (ctx.tid() == 0) {
    std::size_t running = 0;
    for (std::size_t b = 0; b < P; ++b) {
      for (std::size_t tt = 0; tt < P; ++tt) {
        const std::size_t c = s.counts[tt * P + b];
        s.counts[tt * P + b] = running;
        running += c;
      }
    }
  }
  ctx.barrier();
  // Scatter this thread's pieces to their bucket-major positions.
  for (std::size_t b = 0; b < P; ++b) {
    std::size_t out = s.counts[t * P + b];
    for (std::size_t i = pb[b]; i < pb[b + 1]; ++i) s.aux[out++] = std::move(data[i]);
  }
  ctx.barrier();
  // Sort bucket t (its extent is [counts[0*P+t], end-of-bucket)).
  const std::size_t bucket_begin = s.counts[t];  // counts[0 * P + t]
  const std::size_t bucket_end =
      (t + 1 < P) ? s.counts[t + 1] : n;  // counts[0 * P + (t+1)] or n
  std::sort(s.aux.begin() + static_cast<std::ptrdiff_t>(bucket_begin),
            s.aux.begin() + static_cast<std::ptrdiff_t>(bucket_end), less);
  ctx.barrier();
  if (ctx.tid() == 0) data.swap(s.aux);
  ctx.barrier();
}

/// Fork-join wrapper around sample_sort_in_region: one SPMD region for the
/// whole sort.  Callers already inside a region must use the in-region
/// variant instead (regions do not nest).
template <class T, class Less>
void sample_sort(ThreadTeam& team, std::vector<T>& data, Less less) {
  if (team.size() == 1 || data.size() < kSampleSortCutoff) {
    std::sort(data.begin(), data.end(), less);
    return;
  }
  SampleSortScratch<T> scratch;
  team.run([&](TeamCtx& ctx) { sample_sort_in_region(ctx, data, scratch, less); });
}

}  // namespace smp
