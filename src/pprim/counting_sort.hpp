#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pprim/partition.hpp"
#include "pprim/thread_team.hpp"

namespace smp {

/// Parallel counting sort by a small integer key, usable inside an open SPMD
/// region: stable scatter of `items` into `out` ordered by key(item) in
/// [0, num_keys).
///
/// This is the workhorse behind parallel CSR construction: keys are vertex
/// ids, items are arcs.  Two passes: per-thread key histograms, a serial
/// scan over the (num_keys × p) count matrix in key-major order (so the
/// output is stable: key first, then thread/block order = input order), and
/// a scatter.
///
/// All team threads call it with identical arguments; `counts` is
/// team-shared scratch (grow-only, resized by tid 0 behind a barrier).  Also
/// fills `key_offsets` (size num_keys + 1) with the start of each key's run
/// in `out` — exactly a CSR offsets array.  The final barrier publishes `out`
/// and `key_offsets` to every thread.
template <class T, class KeyFn>
void counting_sort_in_region(TeamCtx& ctx, std::span<const T> items,
                             std::span<T> out, std::size_t num_keys, KeyFn&& key,
                             std::vector<std::uint64_t>& key_offsets,
                             std::vector<std::uint64_t>& counts) {
  const std::size_t n = items.size();
  const int p = ctx.nthreads();
  const auto P = static_cast<std::size_t>(p);

  if (p == 1 || n < 1u << 14) {
    if (ctx.tid() == 0) {
      key_offsets.assign(num_keys + 1, 0);
      for (std::size_t i = 0; i < n; ++i) ++key_offsets[key(items[i]) + 1];
      for (std::size_t k = 1; k <= num_keys; ++k) key_offsets[k] += key_offsets[k - 1];
      counts.assign(key_offsets.begin(), key_offsets.end() - 1);
      for (std::size_t i = 0; i < n; ++i) out[counts[key(items[i])]++] = items[i];
    }
    if (p > 1) ctx.barrier();
    return;
  }

  if (ctx.tid() == 0) {
    key_offsets.assign(num_keys + 1, 0);
    counts.assign(num_keys * P, 0);
  }
  ctx.barrier();
  const auto t = static_cast<std::size_t>(ctx.tid());
  const IndexRange r = block_range(n, ctx.tid(), ctx.nthreads());
  for (std::size_t i = r.begin; i < r.end; ++i) {
    ++counts[key(items[i]) * P + t];
  }
  ctx.barrier();
  if (ctx.tid() == 0) {
    std::uint64_t running = 0;
    for (std::size_t k = 0; k < num_keys; ++k) {
      key_offsets[k] = running;
      for (std::size_t t2 = 0; t2 < P; ++t2) {
        const std::uint64_t c = counts[k * P + t2];
        counts[k * P + t2] = running;
        running += c;
      }
    }
    key_offsets[num_keys] = running;
  }
  ctx.barrier();
  // Scatter: each thread uses its own cursors in counts[.. * P + t].
  for (std::size_t i = r.begin; i < r.end; ++i) {
    const std::size_t k = key(items[i]);
    out[counts[k * P + t]++] = items[i];
  }
  ctx.barrier();
}

/// counting_sort_in_region on its own region of `team`.
template <class T, class KeyFn>
void counting_sort_by_key(ThreadTeam& team, std::span<const T> items,
                          std::span<T> out, std::size_t num_keys, KeyFn&& key,
                          std::vector<std::uint64_t>& key_offsets) {
  std::vector<std::uint64_t> counts;
  team.run([&](TeamCtx& ctx) {
    counting_sort_in_region(ctx, items, out, num_keys, key, key_offsets,
                            counts);
  });
}

}  // namespace smp
