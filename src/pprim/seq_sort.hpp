#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace smp {

/// Length at or below which insertion sort beats O(n log n) sorts.  The
/// paper's profiling of Bor-AL found ~80% of per-vertex adjacency lists have
/// 1–100 elements and picks insertion sort for those (§2.2); we adopt the
/// same cutoff.
inline constexpr std::size_t kInsertionSortCutoff = 100;

/// Classic binary insertion-free insertion sort; optimal for tiny inputs.
template <class T, class Less>
void insertion_sort(std::span<T> a, Less less) {
  for (std::size_t i = 1; i < a.size(); ++i) {
    T key = std::move(a[i]);
    std::size_t j = i;
    while (j > 0 && less(key, a[j - 1])) {
      a[j] = std::move(a[j - 1]);
      --j;
    }
    a[j] = std::move(key);
  }
}

/// Non-recursive (bottom-up) merge sort — the paper's engineering choice for
/// long adjacency lists and for sequential Kruskal, where it beat qsort, GNU
/// quicksort and recursive merge sort on large inputs (§5.2).
///
/// `scratch` must be at least a.size() elements.
template <class T, class Less>
void merge_sort_bottomup(std::span<T> a, std::span<T> scratch, Less less) {
  const std::size_t n = a.size();
  if (n < 2) return;
  // Seed with insertion-sorted runs to cut merge passes.
  constexpr std::size_t kRun = 32;
  for (std::size_t lo = 0; lo < n; lo += kRun) {
    const std::size_t hi = lo + kRun < n ? lo + kRun : n;
    insertion_sort(a.subspan(lo, hi - lo), less);
  }

  T* src = a.data();
  T* dst = scratch.data();
  bool flipped = false;
  for (std::size_t width = kRun; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const std::size_t mid = lo + width < n ? lo + width : n;
      const std::size_t hi = lo + 2 * width < n ? lo + 2 * width : n;
      std::size_t i = lo, j = mid, k = lo;
      while (i < mid && j < hi) dst[k++] = less(src[j], src[i]) ? std::move(src[j++]) : std::move(src[i++]);
      while (i < mid) dst[k++] = std::move(src[i++]);
      while (j < hi) dst[k++] = std::move(src[j++]);
    }
    std::swap(src, dst);
    flipped = !flipped;
  }
  if (flipped) {
    for (std::size_t i = 0; i < n; ++i) a[i] = std::move(src[i]);
  }
}

/// The hybrid the paper uses for Bor-AL's per-list sorts: insertion sort for
/// short lists, non-recursive merge sort otherwise.
template <class T, class Less>
void seq_sort(std::span<T> a, std::span<T> scratch, Less less) {
  if (a.size() <= kInsertionSortCutoff) {
    insertion_sort(a, less);
  } else {
    merge_sort_bottomup(a, scratch, less);
  }
}

}  // namespace smp
