#pragma once

// Arithmetic the benchmark reports with: order statistics under the tail
// rule, span self time, and the derived per-layer figures.  Header-only and
// free of library dependencies so the self-test checks exactly this code.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it; below that it would be one or two outliers.
inline constexpr std::size_t kMinTailSamples = 10;

/// Median; the mean of the middle pair for an even count.  NaN when empty.
template <typename T>
double median(std::vector<T> v) {
  if (v.empty()) return kNaN;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = static_cast<double>(v[mid]);
  if (v.size() % 2 == 1) return hi;
  const double lo = static_cast<double>(
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)));
  return (lo + hi) / 2;
}

/// Nearest-rank percentile q in (0, 1): the sample at 0-based rank
/// ceil(q * n) - 1 of the sorted values, provided at least kMinTailSamples
/// samples rank above it.  nullopt otherwise, so p90 needs 100 samples and
/// p99 needs 1000.
template <typename T>
std::optional<double> tail_percentile(std::vector<T> v, double q) {
  const std::size_t n = v.size();
  if (n == 0 || !(q > 0 && q < 1)) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n) - 1;
  if (n - 1 - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

/// One span's interval and its place in the span tree (parent 0 = root).
struct SpanInterval {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span, in input order: its duration minus the part of
/// its interval covered by the union of its children's intervals (children
/// clipped to the parent; overlapping children, e.g. from several threads,
/// are counted once).
inline std::vector<std::int64_t> self_times_ns(
    const std::vector<SpanInterval>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Group children by parent, each group by start time.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::pair(spans[a].parent, spans[a].start_ns) <
           std::pair(spans[b].parent, spans[b].start_ns);
  });
  std::vector<std::size_t> by_id(spans.size());
  for (std::size_t i = 0; i < by_id.size(); ++i) by_id[i] = i;
  std::sort(by_id.begin(), by_id.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].id < spans[b].id;
  });
  auto index_of = [&](std::uint64_t id) -> std::optional<std::size_t> {
    auto it = std::lower_bound(
        by_id.begin(), by_id.end(), id,
        [&](std::size_t i, std::uint64_t key) { return spans[i].id < key; });
    if (it == by_id.end() || spans[*it].id != id) return std::nullopt;
    return *it;
  };

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_ns - spans[i].start_ns;
  for (std::size_t g = 0; g < order.size();) {
    const std::uint64_t parent = spans[order[g]].parent;
    std::size_t end = g;
    while (end < order.size() && spans[order[end]].parent == parent) ++end;
    const auto p = parent == 0 ? std::nullopt : index_of(parent);
    if (p) {
      const std::int64_t lo = spans[*p].start_ns;
      const std::int64_t hi = spans[*p].end_ns;
      std::int64_t covered = 0;
      std::int64_t run_start = 0;
      std::int64_t run_end = std::numeric_limits<std::int64_t>::min();
      for (std::size_t k = g; k < end; ++k) {
        const std::int64_t s = std::max(spans[order[k]].start_ns, lo);
        const std::int64_t e = std::min(spans[order[k]].end_ns, hi);
        if (e <= s) continue;
        if (s > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = s;
          run_end = e;
        } else {
          run_end = std::max(run_end, e);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
      self[*p] -= covered;
    }
    g = end;
  }
  return self;
}

// --- derived per-layer figures -------------------------------------------

/// StepTimes::other minus what the harness attributes to it by timing the
/// two set-up builds on their own: the part of "other" nothing names yet.
inline double unattributed_ms(double other_ms, double rank_build_ms,
                              double arc_build_ms) {
  return other_ms - rank_build_ms - arc_build_ms;
}

/// The served write's latency minus the three stages the harness can time
/// from outside: the one-edge apply, the snapshot's live-graph copy and the
/// eager index rebuild.
inline double write_self_ms(double write_ms, double apply_one_ms,
                            double live_graph_ms, double index_build_ms) {
  return write_ms - apply_one_ms - live_graph_ms - index_build_ms;
}

/// a / b, NaN when b is not positive (a ratio without a base is no ratio).
inline double ratio(double a, double b) { return b > 0 ? a / b : kNaN; }

/// Speedup over the sequential baseline (paper figure): kruskal / parallel.
inline double speedup(double seq_ms, double parallel_ms) {
  return ratio(seq_ms, parallel_ms);
}

/// Scaling of the library from p = 1 to p = nproc: t(1) / t(nproc).
inline double scaling(double p1_ms, double pn_ms) {
  return ratio(p1_ms, pn_ms);
}

/// CPU time over the wall time of `threads` cores.
inline double busy_ratio(double cpu_s, double wall_s, int threads) {
  return ratio(cpu_s, wall_s * threads);
}

/// How much slower the traced half ran than the untraced half, in percent.
inline double overhead_pct(double traced, double untraced) {
  return 100 * (ratio(traced, untraced) - 1);
}

}  // namespace perfbench
