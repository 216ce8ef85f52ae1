#pragma once

#include <cstddef>
#include <string>

namespace smp {

/// What the process learned about its host at startup: thread counts (both
/// what the hardware has and what the affinity mask actually grants — CI
/// containers routinely differ), cache geometry, page size, and the SIMD
/// kernel the dispatchers picked.  Detected once and cached; stamped into
/// every bench JSON meta so committed baselines carry the host they were
/// recorded on (BENCH_05/BENCH_09 were recorded 8-threads-oversubscribed on
/// one hardware thread, which silently degenerated the scaling gates — the
/// profile makes that visible to bench_compare.py).
struct MachineProfile {
  unsigned hardware_threads = 0;  ///< std::thread::hardware_concurrency()
  unsigned available_threads = 0;  ///< affinity-mask CPUs (<= hardware)
  std::size_t cache_line_bytes = 0;
  std::size_t l1d_bytes = 0;  ///< 0 = the OS would not say
  std::size_t l2_bytes = 0;
  std::size_t l3_bytes = 0;
  std::size_t page_bytes = 0;
  const char* simd = "";  ///< simd_isa_name()
};

/// The cached profile (probed on first call, thread-safe).
[[nodiscard]] const MachineProfile& machine_profile();

/// The profile as a JSON object, e.g.
/// {"hardware_threads":1,...,"simd":"avx2"} — spliced verbatim into bench
/// meta blocks and stats dumps.
[[nodiscard]] std::string machine_profile_json();

/// What auto_calibrate() measured and (optionally) installed.
struct CalibrationResult {
  std::size_t parallel_for_cutoff = 0;
  std::size_t sample_sort_cutoff = 0;
  double elapsed_s = 0;  ///< wall time the calibration pass itself took
  bool applied = false;  ///< cutoffs were installed via set_*()
};

/// Micro-calibration pass: measures where forking a team actually beats the
/// inline loop and where sample sort beats std::sort ON THIS MACHINE, instead
/// of trusting the compile-time defaults (which were tuned blind — see
/// ROADMAP).  Costs well under a second; deterministic work items (seeded
/// LCG), timing-dependent *thresholds*.  With `apply` the winning cutoffs are
/// installed process-globally through pprim/tuning.hpp; forest results are
/// unaffected by construction (cutoffs only pick execution strategies, never
/// outputs — the bit-identity suite pins this).  On a 1-thread host the
/// parallel cutoffs are pushed high so nothing ever pays fork overhead that
/// cannot be repaid.
CalibrationResult auto_calibrate(bool apply = true);

/// The calibration result as a JSON object for bench meta.
[[nodiscard]] std::string calibration_json(const CalibrationResult& r);

}  // namespace smp
