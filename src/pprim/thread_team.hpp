#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "pprim/barrier.hpp"
#include "pprim/cacheline.hpp"

namespace smp {

class ThreadTeam;

/// Internal unwind signal: thrown by TeamCtx::barrier() on the surviving
/// threads of a region whose sibling already threw (the barrier was poisoned
/// so nobody blocks forever).  It never escapes ThreadTeam::run — the caller
/// rethrows the sibling's original exception instead.
struct RegionPoisoned {};

/// Per-thread context handed to the body of a parallel region.
///
/// Mirrors the SPMD style of the paper's SIMPLE primitive library [Bader &
/// JáJá 1999]: every thread runs the same function, distinguished by `tid`,
/// and synchronizes through `barrier()`.
class TeamCtx {
 public:
  TeamCtx(ThreadTeam& team, int tid, int nthreads)
      : team_(team), tid_(tid), nthreads_(nthreads) {}

  [[nodiscard]] int tid() const { return tid_; }
  [[nodiscard]] int nthreads() const { return nthreads_; }
  [[nodiscard]] ThreadTeam& team() const { return team_; }

  /// Synchronize all threads of the enclosing parallel region.  Throws
  /// RegionPoisoned when another thread of the region threw: the region is
  /// unwinding, and continuing past the barrier would compute on partial
  /// phase-1 state.
  void barrier();

 private:
  ThreadTeam& team_;
  int tid_;
  int nthreads_;
  friend class ThreadTeam;
};

/// A persistent team of worker threads executing fork-join SPMD regions.
///
/// The team is created once and reused for every parallel region, avoiding
/// per-iteration thread-spawn cost (each Borůvka iteration contains several
/// regions).  The calling thread participates as tid 0, so `ThreadTeam(1)`
/// runs everything inline with zero threading overhead.
///
/// Exception safety: a region body that throws on any thread does not
/// terminate the process and cannot deadlock the team.  The first exception
/// is captured, the region barrier is poisoned so sibling threads blocked in
/// (or headed for) barrier() unwind via RegionPoisoned, run() waits until
/// every worker has left the region, and then rethrows the captured
/// exception on the calling thread.  The team itself survives and can run
/// further regions.
class ThreadTeam {
 public:
  explicit ThreadTeam(int num_threads);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  [[nodiscard]] int size() const { return nthreads_; }

  /// Number of SPMD regions this team has started since construction.
  /// Deltas of this counter are how PhaseStats proves an algorithm iteration
  /// really ran as one fused region instead of a string of fork-joins.
  [[nodiscard]] std::uint64_t regions_started() const {
    return regions_started_.load(std::memory_order_relaxed);
  }

  /// Execute `fn(ctx)` on all team threads; returns when every thread has
  /// finished.  Regions must not nest.  If any thread's body throws, the
  /// first exception is rethrown here after the whole team has unwound.
  void run(const std::function<void(TeamCtx&)>& fn);

 private:
  void worker_loop(int tid);

  /// Record the first real exception of the current region and poison the
  /// barrier so the remaining threads unwind instead of blocking.
  void record_region_error(std::exception_ptr e);

  int nthreads_;
  /// Whether waits spin before they park (see SenseBarrier): only when the
  /// team has no more threads than the process has CPUs, so an
  /// oversubscribed team never spins on a CPU another member needs.
  bool spin_;
  SenseBarrier region_barrier_;
  std::vector<std::thread> workers_;

  // Job dispatch: a generation counter bumped per region; workers wait on
  // it, spinning first when spin_ is set.  `done_count_` lets the caller
  // wait for region completion.
  const std::function<void(TeamCtx&)>* job_ = nullptr;
  std::atomic<std::uint64_t> regions_started_{0};
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> generation_{0};
  alignas(kCacheLineBytes) std::atomic<int> done_count_{0};
  std::atomic<bool> shutdown_{false};

  // First exception thrown by any thread of the current region (cold path;
  // the mutex only serializes concurrent throwers).
  std::mutex error_mutex_;
  std::exception_ptr region_error_;

  friend class TeamCtx;
};

}  // namespace smp
