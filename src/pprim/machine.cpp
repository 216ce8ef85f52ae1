#include "pprim/machine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "pprim/parallel_for.hpp"
#include "pprim/sample_sort.hpp"
#include "pprim/simd.hpp"
#include "pprim/thread_team.hpp"
#include "pprim/tuning.hpp"

#if defined(__linux__)
#include <sched.h>
#include <unistd.h>
#endif

namespace smp {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

#if defined(__linux__)
std::size_t sysconf_bytes(int name) {
  const long v = ::sysconf(name);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}
#endif

MachineProfile detect() {
  MachineProfile p;
  p.hardware_threads = std::max(1u, std::thread::hardware_concurrency());
  p.available_threads = p.hardware_threads;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int cnt = CPU_COUNT(&set);
    if (cnt > 0) p.available_threads = static_cast<unsigned>(cnt);
  }
  p.cache_line_bytes = sysconf_bytes(_SC_LEVEL1_DCACHE_LINESIZE);
  p.l1d_bytes = sysconf_bytes(_SC_LEVEL1_DCACHE_SIZE);
  p.l2_bytes = sysconf_bytes(_SC_LEVEL2_CACHE_SIZE);
  p.l3_bytes = sysconf_bytes(_SC_LEVEL3_CACHE_SIZE);
  p.page_bytes = sysconf_bytes(_SC_PAGESIZE);
#endif
  if (p.cache_line_bytes == 0) p.cache_line_bytes = 64;
  if (p.page_bytes == 0) p.page_bytes = 4096;
  p.simd = simd_isa_name();
  return p;
}

/// Deterministic 64-bit mixer for calibration work items — no libc RNG, so
/// repeated calibrations on one host time the identical workload.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  return x;
}

/// Smallest grid size where the parallel path beat the inline loop, or
/// `fallback` when it never did.
std::size_t crossover(const std::vector<std::size_t>& grid,
                      const std::vector<bool>& par_won, std::size_t fallback) {
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (par_won[i]) return grid[i];
  }
  return fallback;
}

}  // namespace

const MachineProfile& machine_profile() {
  static const MachineProfile p = detect();
  return p;
}

std::string machine_profile_json() {
  const MachineProfile& p = machine_profile();
  std::ostringstream os;
  os << "{\"hardware_threads\": " << p.hardware_threads
     << ", \"available_threads\": " << p.available_threads
     << ", \"cache_line_bytes\": " << p.cache_line_bytes
     << ", \"l1d_bytes\": " << p.l1d_bytes << ", \"l2_bytes\": " << p.l2_bytes
     << ", \"l3_bytes\": " << p.l3_bytes
     << ", \"page_bytes\": " << p.page_bytes << ", \"simd\": \"" << p.simd
     << "\"}";
  return os.str();
}

CalibrationResult auto_calibrate(bool apply) {
  const Clock::time_point t0 = Clock::now();
  const MachineProfile& mp = machine_profile();
  CalibrationResult r;

  if (mp.available_threads <= 1) {
    // One usable CPU: forking a team is pure overhead at every size the
    // micro-bench could measure, and oversubscribed teams (threads > 1 on
    // 1 CPU, the blind-calibration failure BENCH_05 recorded) only make it
    // worse.  Push the parallel gates high instead of timing noise.
    r.parallel_for_cutoff = std::size_t{1} << 20;
    r.sample_sort_cutoff = std::size_t{1} << 21;
  } else {
    ThreadTeam team(static_cast<int>(mp.available_threads));

    // parallel_for crossover: time an inline transform vs the forked one on
    // a doubling grid, take the first size where the fork pays for itself.
    {
      std::vector<std::size_t> grid;
      for (std::size_t n = 1u << 11; n <= (1u << 18); n <<= 2) {
        grid.push_back(n);
      }
      std::vector<bool> par_won(grid.size(), false);
      std::vector<std::uint64_t> buf(grid.back());
      for (std::size_t gi = 0; gi < grid.size(); ++gi) {
        const std::size_t n = grid[gi];
        Clock::time_point t = Clock::now();
        for (std::size_t i = 0; i < n; ++i) buf[i] = mix(i);
        const double seq = seconds_since(t);
        ScopedTuning force(1, 0);  // make parallel_for actually fork
        t = Clock::now();
        parallel_for(team, n, [&](std::size_t i) { buf[i] = mix(i); });
        par_won[gi] = seconds_since(t) < seq;
      }
      r.parallel_for_cutoff =
          crossover(grid, par_won, std::size_t{1} << 20);
    }

    // sample_sort crossover vs std::sort on u64 keys.
    {
      std::vector<std::size_t> grid;
      for (std::size_t n = 1u << 13; n <= (1u << 19); n <<= 2) {
        grid.push_back(n);
      }
      std::vector<bool> par_won(grid.size(), false);
      for (std::size_t gi = 0; gi < grid.size(); ++gi) {
        const std::size_t n = grid[gi];
        std::vector<std::uint64_t> a(n), b(n);
        for (std::size_t i = 0; i < n; ++i) a[i] = b[i] = mix(i ^ 0x9E3779B9u);
        Clock::time_point t = Clock::now();
        std::sort(a.begin(), a.end());
        const double seq = seconds_since(t);
        ScopedTuning force(0, 1);  // make sample_sort actually sample-sort
        t = Clock::now();
        sample_sort(team, b, std::less<std::uint64_t>{});
        par_won[gi] = seconds_since(t) < seq;
      }
      r.sample_sort_cutoff =
          crossover(grid, par_won, std::size_t{1} << 21);
    }
  }

  if (apply) {
    set_parallel_for_cutoff(r.parallel_for_cutoff);
    set_sample_sort_cutoff(r.sample_sort_cutoff);
    r.applied = true;
  }
  r.elapsed_s = seconds_since(t0);
  return r;
}

std::string calibration_json(const CalibrationResult& r) {
  std::ostringstream os;
  os << "{\"parallel_for_cutoff\": " << r.parallel_for_cutoff
     << ", \"sample_sort_cutoff\": " << r.sample_sort_cutoff
     << ", \"elapsed_s\": " << r.elapsed_s
     << ", \"applied\": " << (r.applied ? "true" : "false") << "}";
  return os.str();
}

}  // namespace smp
