#pragma once

#include <atomic>
#include <cstddef>

#include "pprim/partition.hpp"
#include "pprim/thread_team.hpp"
#include "pprim/tuning.hpp"

namespace smp {

/// Statically partitioned parallel loop: each team thread gets one contiguous
/// block of [0, n).  `fn(i)` must be safe to run concurrently for distinct i.
template <class Fn>
void parallel_for(ThreadTeam& team, std::size_t n, Fn&& fn) {
  if (team.size() == 1 || n < kParallelForCutoff) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  team.run([&](TeamCtx& ctx) {
    const IndexRange r = block_range(n, ctx.tid(), ctx.nthreads());
    for (std::size_t i = r.begin; i < r.end; ++i) fn(i);
  });
}

/// Variant usable *inside* an SPMD region: statically partitioned, no
/// implicit barrier (call ctx.barrier() yourself when needed).
template <class Fn>
void for_range(TeamCtx& ctx, std::size_t n, Fn&& fn) {
  const IndexRange r = block_range(n, ctx.tid(), ctx.nthreads());
  for (std::size_t i = r.begin; i < r.end; ++i) fn(i);
}

/// Dynamically scheduled loop usable *inside* an SPMD region.  `cursor` is
/// team-shared state: reset it to zero before the team reaches this call
/// (on the orchestrating thread before the region, or on tid 0 followed by a
/// ctx.barrier()).  No implicit barrier on exit — a thread that drains the
/// cursor returns while others may still be working on their last chunk.
template <class Fn>
void for_range_dynamic(TeamCtx& ctx, std::atomic<std::size_t>& cursor,
                       std::size_t n, std::size_t chunk, Fn&& fn) {
  (void)ctx;  // taken for API symmetry with the other in-region primitives
  for (;;) {
    const std::size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
    if (begin >= n) break;
    const std::size_t end = begin + chunk < n ? begin + chunk : n;
    for (std::size_t i = begin; i < end; ++i) fn(i);
  }
}

/// Dynamically scheduled parallel loop for irregular per-item cost (e.g. the
/// per-supervertex scans of Bor-FAL whose list lengths vary wildly).  Threads
/// grab fixed-size chunks from a shared atomic cursor.
template <class Fn>
void parallel_for_dynamic(ThreadTeam& team, std::size_t n, std::size_t chunk, Fn&& fn) {
  if (team.size() == 1 || n < 2 * chunk) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  team.run([&](TeamCtx&) {
    for (;;) {
      const std::size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::size_t end = begin + chunk < n ? begin + chunk : n;
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }
  });
}

}  // namespace smp
