#pragma once

#include <cstddef>
#include <string>

namespace smp {

/// What the process learned about its host at startup: thread counts (both
/// what the hardware has and what the affinity mask actually grants — CI
/// containers routinely differ), cache geometry, page size, and the varint
/// bulk decoder's pick.  Detected once and cached; stamped into
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
  const char* simd = "";  ///< varint_bulk_isa_name(): "avx2" | "scalar"
};

/// The cached profile (probed on first call, thread-safe).
[[nodiscard]] const MachineProfile& machine_profile();

/// The profile as a JSON object, e.g.
/// {"hardware_threads":1,...,"simd":"avx2"} — spliced verbatim into bench
/// meta blocks and stats dumps.
[[nodiscard]] std::string machine_profile_json();

}  // namespace smp
