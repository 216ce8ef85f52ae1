#include "pprim/thread_team.hpp"

#include <cassert>
#include <utility>

#include "pprim/machine.hpp"

namespace smp {

void TeamCtx::barrier() {
  if (!team_.region_barrier_.arrive_and_wait()) throw RegionPoisoned{};
}

ThreadTeam::ThreadTeam(int num_threads)
    : nthreads_(num_threads > 0 ? num_threads : 1),
      spin_(static_cast<unsigned>(nthreads_) <=
            machine_profile().available_threads),
      region_barrier_(nthreads_, spin_) {
  workers_.reserve(static_cast<std::size_t>(nthreads_ - 1));
  for (int tid = 1; tid < nthreads_; ++tid) {
    workers_.emplace_back([this, tid] { worker_loop(tid); });
  }
}

ThreadTeam::~ThreadTeam() {
  shutdown_.store(true, std::memory_order_release);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadTeam::record_region_error(std::exception_ptr e) {
  {
    std::lock_guard<std::mutex> lk(error_mutex_);
    if (!region_error_) region_error_ = std::move(e);
  }
  // Release every thread blocked at (or headed for) a region barrier; they
  // unwind via RegionPoisoned and reach the region exit.
  region_barrier_.poison();
}

void ThreadTeam::run(const std::function<void(TeamCtx&)>& fn) {
  regions_started_.fetch_add(1, std::memory_order_relaxed);
  if (nthreads_ == 1) {
    TeamCtx ctx(*this, 0, 1);
    fn(ctx);  // exceptions propagate directly; no siblings to unwind
    return;
  }
  // A poisoned previous region leaves the barrier count arbitrary; restore a
  // clean state before workers can enter the new region.
  region_barrier_.reset();
  region_error_ = nullptr;
  job_ = &fn;
  done_count_.store(0, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();

  TeamCtx ctx(*this, 0, nthreads_);
  try {
    fn(ctx);
  } catch (const RegionPoisoned&) {
    // A worker threw first; its exception is already recorded.
  } catch (...) {
    record_region_error(std::current_exception());
  }

  // Wait until all workers report completion of this region — also on the
  // error path, so no worker still touches region state after run() returns.
  int done = done_count_.load(std::memory_order_acquire);
  while (done != nthreads_ - 1) done = wait_for_change(done_count_, done, spin_);
  job_ = nullptr;
  if (region_error_) {
    // The done_count_ acquire loop ordered the workers' error publication
    // before this read; no lock needed.
    std::exception_ptr e = std::exchange(region_error_, nullptr);
    std::rethrow_exception(e);
  }
}

void ThreadTeam::worker_loop(int tid) {
  std::uint64_t seen = 0;
  for (;;) {
    seen = wait_for_change(generation_, seen, spin_);
    if (shutdown_.load(std::memory_order_acquire)) return;
    assert(job_ != nullptr);
    TeamCtx ctx(*this, tid, nthreads_);
    try {
      (*job_)(ctx);
    } catch (const RegionPoisoned&) {
      // Sibling threw first; nothing to record.
    } catch (...) {
      record_region_error(std::current_exception());
    }
    done_count_.fetch_add(1, std::memory_order_release);
    done_count_.notify_one();
  }
}

}  // namespace smp
