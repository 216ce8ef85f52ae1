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

/// Blocks of an order-preserving, dynamically scheduled pass over [0, n) on
/// `nthreads` threads: kDynamicBlocksPerThread per thread, never more than
/// n, and one on a one-thread team, where there is nothing to balance.
/// Block b is block_range(n, b, blocks); the team claims blocks with
/// for_range_dynamic at chunk 1, so a thread that stalls (descheduled on a
/// shared host) holds up one small block instead of a 1/p share of the
/// pass, while per-block counts keep the output in block order.
inline std::size_t dynamic_block_count(std::size_t n, int nthreads) {
  const std::size_t want =
      kDynamicBlocksPerThread * static_cast<std::size_t>(nthreads);
  return nthreads == 1 || n == 0 ? 1 : (n < want ? n : want);
}

/// Block b of the `blocks` blocks of [0, n).
inline IndexRange dynamic_block(std::size_t n, std::size_t b, std::size_t blocks) {
  return block_range(n, static_cast<int>(b), static_cast<int>(blocks));
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
