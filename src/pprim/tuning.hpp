#pragma once

#include <cstddef>

namespace smp {

/// The primitives' sequential cutoffs and the find-min contention cutoffs,
/// as compile-time constants.  Every thread of every team reads the same
/// value, so the sequential-vs-parallel branch is uniform across a team, and
/// no caller can change the tuning a running solve reads.  The cutoffs only
/// pick execution strategies, never outputs.

/// Below this many items, parallel_for runs inline on the calling thread.
inline constexpr std::size_t kParallelForCutoff = 2048;
/// Below this many items, sample_sort degrades to a single std::sort.
inline constexpr std::size_t kSampleSortCutoff = std::size_t{1} << 15;
/// Blocks per thread of the order-preserving passes that claim their blocks
/// from a shared cursor (see dynamic_block_count): enough that a stalled
/// thread's last block is a small share of the pass, few enough that the
/// per-block counts stay a few hundred words.
inline constexpr std::size_t kDynamicBlocksPerThread = 16;

/// Find-min contention cutoffs (see core/find_min.hpp).  With at least this
/// many threads AND at most kFindMinLocalBestCutoff supervertices, the
/// packed-key find-min switches from shared atomic write-mins to per-thread
/// local-best arrays merged by a for_range reduce in the same region: late
/// Borůvka iterations leave a handful of best[s] slots that every thread
/// would otherwise hammer through the coherence protocol.  Both bounds must
/// hold — small teams don't contend enough to amortize the p·cur_n merge,
/// and large cur_n makes the per-thread arrays themselves the cost.
inline constexpr int kFindMinLocalBestThreads = 4;
inline constexpr std::size_t kFindMinLocalBestCutoff = 4096;
/// Vertices per dynamic-scheduling chunk of Bor-FAL's find-min cursor loop.
/// After a contraction the cursor steps bunch up on the vertices whose
/// supervertex absorbed their neighbours, so static blocks load-imbalance;
/// 64 vertices keeps the shared chunk counter's traffic negligible.
inline constexpr std::size_t kFindMinPruneBlock = 64;

}  // namespace smp
