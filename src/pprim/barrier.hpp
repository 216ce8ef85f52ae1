#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "pprim/cacheline.hpp"

namespace smp {

/// How long a team thread spins on a word it waits for before it parks on
/// the futex, when its team has no more threads than the process has CPUs.
inline constexpr std::chrono::microseconds kSpinBeforePark{100};

/// Waits until `word` holds something other than `old` and returns it.
/// With `spin`, it first polls for up to kSpinBeforePark, yielding the CPU
/// between polls to any thread that shares it; then, or at once without
/// `spin`, it blocks in atomic wait (a futex on Linux).
template <class T>
T wait_for_change(const std::atomic<T>& word, T old, bool spin) {
  T now = word.load(std::memory_order_acquire);
  if (spin && now == old) {
    const auto until = std::chrono::steady_clock::now() + kSpinBeforePark;
    while (now == old && std::chrono::steady_clock::now() < until) {
      std::this_thread::yield();
      now = word.load(std::memory_order_acquire);
    }
  }
  while (now == old) {
    word.wait(old, std::memory_order_acquire);
    now = word.load(std::memory_order_acquire);
  }
  return now;
}

/// Centralized generation-counting barrier.
///
/// The last arriver of each phase resets the count and bumps the generation;
/// everyone else waits for the generation to move.  Unlike a classic
/// sense-reversing barrier this keeps *no per-thread state*, so it stays
/// correct when participants are destroyed and recreated between phases
/// (exactly what happens between two ThreadTeam::run regions, which build
/// fresh TeamCtx objects each time).
///
/// Waiting goes through wait_for_change.  A barrier built with `spin` polls
/// for up to kSpinBeforePark before it parks on the futex.  Parking at once
/// made back-to-back regions slow on a 4-vCPU VM: a region of 1 ms of work
/// per thread, run again right after the last one ended, took 3.9–4.0 ms,
/// its threads running one after another as each was woken, and so did 20
/// barrier-separated rounds of 50 µs each.  With the 100 µs spin both took
/// 1.0 ms, and a 200 µs spin did no better; a region that follows a pause
/// of 1 or 5 ms took 1.1 ms either way.  Without `spin` the barrier parks
/// at once; ThreadTeam spins only when it has no more threads than the
/// process has CPUs.  Alone on the machine, a team of 8 on 4 vCPUs lost
/// nothing by spinning too; but under `ctest -j4`, where such teams share
/// the CPUs with three other test processes, spinning in every team made
/// the Release suite 17 % slower (median 7.9 s against 6.8 s, slower in
/// all 9 paired runs; docs/PERFORMANCE.md).
///
/// The barrier can be *poisoned* when a participant dies mid-region (it threw
/// and will never arrive): poison() releases every current and future waiter
/// with a `false` return instead of leaving them blocked forever.  The owner
/// must reset() before reusing the barrier for a fresh region, since a
/// poisoned phase leaves the arrival count in an arbitrary state.
class SenseBarrier {
 public:
  explicit SenseBarrier(int num_threads, bool spin = false)
      : n_(num_threads), spin_(spin), count_(num_threads) {}

  SenseBarrier(const SenseBarrier&) = delete;
  SenseBarrier& operator=(const SenseBarrier&) = delete;

  /// Block until all `num_threads` participants arrive.  Returns true on a
  /// normal release; false if the barrier was poisoned (the region is
  /// unwinding and phase separation no longer holds).
  [[nodiscard]] bool arrive_and_wait() {
    // Read the generation before the poison flag.  The other order loses a
    // poison() that lands between the two loads: the flag reads clear, the
    // generation already holds poison's bump, and the wait below blocks on a
    // generation nobody will move again.  In this order a clear flag means
    // `gen` predates poison's bump, so that bump still releases the wait.
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (poisoned_.load(std::memory_order_acquire)) return false;
    if (count_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      count_.store(n_, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      generation_.notify_all();
    } else {
      wait_for_change(generation_, gen, spin_);
    }
    return !poisoned_.load(std::memory_order_acquire);
  }

  /// Release all current and future waiters with a failure indication.  Safe
  /// to call from any thread, any number of times.
  void poison() {
    poisoned_.store(true, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
  }

  [[nodiscard]] bool poisoned() const {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// Restore a clean state for the next region.  Callers must guarantee no
  /// participant is inside arrive_and_wait() (ThreadTeam::run does: it only
  /// resets after every worker reported region completion).
  void reset() {
    poisoned_.store(false, std::memory_order_relaxed);
    count_.store(n_, std::memory_order_relaxed);
  }

 private:
  int n_;
  bool spin_;
  alignas(kCacheLineBytes) std::atomic<int> count_;
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> generation_{0};
  alignas(kCacheLineBytes) std::atomic<bool> poisoned_{false};
};

}  // namespace smp
