#pragma once

#include <atomic>
#include <cstdint>

#include "pprim/cacheline.hpp"

namespace smp {

/// Centralized generation-counting barrier.
///
/// The last arriver of each phase resets the count and bumps the generation;
/// everyone else waits for the generation to move.  Unlike a classic
/// sense-reversing barrier this keeps *no per-thread state*, so it stays
/// correct when participants are destroyed and recreated between phases
/// (exactly what happens between two ThreadTeam::run regions, which build
/// fresh TeamCtx objects each time).
///
/// Blocking uses C++20 atomic wait/notify (futex-backed on Linux) rather
/// than spinning, so the barrier stays cheap when threads are oversubscribed
/// onto few cores — the common case for this repo's thread-sweep benchmarks.
///
/// The barrier can be *poisoned* when a participant dies mid-region (it threw
/// and will never arrive): poison() releases every current and future waiter
/// with a `false` return instead of leaving them blocked forever.  The owner
/// must reset() before reusing the barrier for a fresh region, since a
/// poisoned phase leaves the arrival count in an arbitrary state.
class SenseBarrier {
 public:
  explicit SenseBarrier(int num_threads) : n_(num_threads), count_(num_threads) {}

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
      std::uint64_t observed = generation_.load(std::memory_order_acquire);
      while (observed == gen) {
        generation_.wait(observed, std::memory_order_acquire);
        observed = generation_.load(std::memory_order_acquire);
      }
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
  alignas(kCacheLineBytes) std::atomic<int> count_;
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> generation_{0};
  alignas(kCacheLineBytes) std::atomic<bool> poisoned_{false};
};

}  // namespace smp
