#include "pprim/machine.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

#include "pprim/varint.hpp"

#if defined(__linux__)
#include <sched.h>
#include <unistd.h>
#endif

namespace smp {

namespace {

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
  p.simd = varint_bulk_isa_name();
  return p;
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

}  // namespace smp
