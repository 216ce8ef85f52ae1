#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace smp {

/// The x86-64 transparent huge page size.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Asks the kernel to back the 2 MiB-aligned interior of [p, p + bytes)
/// with transparent huge pages (madvise MADV_HUGEPAGE; the kernel's
/// "madvise" THP mode honours exactly these ranges).  Call it on fresh
/// memory before the first write: each 2 MiB page then costs one fault
/// instead of 512, and the random reads and scatters over the array miss
/// the TLB far less.  Advice only — a kernel without THP, a range with no
/// aligned interior or a failed call leaves the memory as it was.
inline void advise_huge_pages(const void* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = (begin + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const std::uintptr_t last = (begin + bytes) & ~(kHugePageBytes - 1);
  if (first < last) {
    (void)madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

/// std::make_unique_for_overwrite<T[]>(n) with the array advised for huge
/// pages before anything touches it.
template <class T>
[[nodiscard]] std::unique_ptr<T[]> make_huge_for_overwrite(std::size_t n) {
  auto a = std::make_unique_for_overwrite<T[]>(n);
  advise_huge_pages(a.get(), n * sizeof(T));
  return a;
}

/// Reserves room for n elements in an empty vector and advises that
/// storage for huge pages, so the resize or the pushes that follow fault
/// it in as huge pages.
template <class T>
void reserve_huge(std::vector<T>& v, std::size_t n) {
  v.reserve(n);
  advise_huge_pages(v.data(), n * sizeof(T));
}

}  // namespace smp
