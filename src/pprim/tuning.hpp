#pragma once

#include <atomic>
#include <cstddef>

namespace smp {

/// Central home of the sequential-cutoff constants that used to be hard-coded
/// in the primitives.  The values are process-global so every primitive (and
/// every team) sees the same thresholds; calibration and the cutoff-ablation
/// benches override them through ScopedTuning.
///
/// Changing a cutoff while a parallel region is executing is not supported:
/// the primitives read these on every thread to pick the sequential-vs-
/// parallel branch, and the branch must be uniform across the team.

/// Below this many items, parallel_for runs inline on the calling thread.
inline constexpr std::size_t kDefaultParallelForCutoff = 2048;
/// Below this many items, sample_sort degrades to a single std::sort.
inline constexpr std::size_t kDefaultSampleSortCutoff = std::size_t{1} << 15;

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

namespace tuning_detail {
inline std::atomic<std::size_t> g_parallel_for_cutoff{kDefaultParallelForCutoff};
inline std::atomic<std::size_t> g_sample_sort_cutoff{kDefaultSampleSortCutoff};
}  // namespace tuning_detail

[[nodiscard]] inline std::size_t parallel_for_cutoff() {
  return tuning_detail::g_parallel_for_cutoff.load(std::memory_order_relaxed);
}
[[nodiscard]] inline std::size_t sample_sort_cutoff() {
  return tuning_detail::g_sample_sort_cutoff.load(std::memory_order_relaxed);
}
inline void set_parallel_for_cutoff(std::size_t n) {
  tuning_detail::g_parallel_for_cutoff.store(n, std::memory_order_relaxed);
}
inline void set_sample_sort_cutoff(std::size_t n) {
  tuning_detail::g_sample_sort_cutoff.store(n, std::memory_order_relaxed);
}

/// RAII override of the global cutoffs for calibration and cutoff-ablation
/// runs.  A zero value means "keep the current setting"; the previous values
/// are restored on destruction.  Solves never construct one: they only read
/// the globals, so a solve cannot revert a calibration applied beside it.
class ScopedTuning {
 public:
  ScopedTuning(std::size_t pf_cutoff, std::size_t ss_cutoff)
      : saved_pf_(parallel_for_cutoff()), saved_ss_(sample_sort_cutoff()) {
    if (pf_cutoff != 0) set_parallel_for_cutoff(pf_cutoff);
    if (ss_cutoff != 0) set_sample_sort_cutoff(ss_cutoff);
  }
  ~ScopedTuning() {
    set_parallel_for_cutoff(saved_pf_);
    set_sample_sort_cutoff(saved_ss_);
  }

  ScopedTuning(const ScopedTuning&) = delete;
  ScopedTuning& operator=(const ScopedTuning&) = delete;

 private:
  std::size_t saved_pf_;
  std::size_t saved_ss_;
};

}  // namespace smp
