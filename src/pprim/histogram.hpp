#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace smp {

/// Lock-free log-scale histogram of non-negative integer values (latency in
/// microseconds, batch sizes, queue depths).
///
/// Bucketing is HDR-style with 2 sub-bucket bits: values 0..3 get exact
/// buckets; a larger value with MSB position e lands in one of 4 linear
/// sub-buckets of the octave [2^e, 2^(e+1)), so any reported quantile is
/// within 25% of the true value while the whole histogram stays 252 fixed
/// counters — no allocation, no locks, record() is one relaxed fetch_add
/// per concurrent writer plus a sum/max update.
///
/// Readers take snapshot() — a plain copy of the counters — and compute
/// quantiles on the copy, so a scrape never blocks the serving hot path.
/// Counts are monotone; a snapshot taken during concurrent record() calls is
/// a valid histogram of *some* interleaving prefix.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 252;

  void record(std::uint64_t value) {
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < value &&
           !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
    }
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// Immutable copy for quantile math off the hot path.
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;

    /// Adds `o`'s samples: the snapshot of a histogram split into shards
    /// is the merge of the shards' snapshots.
    Snapshot& operator+=(const Snapshot& o) {
      for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += o.buckets[b];
      count += o.count;
      sum += o.sum;
      if (o.max > max) max = o.max;
      return *this;
    }

    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }

    /// Value at quantile `q` in [0, 1]: the recorded max for q >= 1, with
    /// linear interpolation inside the containing bucket (exact for values
    /// < 4, <= 25% relative error above).  Capped at the recorded max so a
    /// top-bucket interpolation never reports a value nothing ever hit.
    [[nodiscard]] double quantile(double q) const {
      if (count == 0) return 0.0;
      if (q >= 1.0) return static_cast<double>(max);
      if (q < 0.0) q = 0.0;
      // Rank of the target sample, 1-based; q = 0 means the first sample.
      const double rank = q * static_cast<double>(count - 1) + 1.0;
      std::uint64_t seen = 0;
      for (std::size_t b = 0; b < kBuckets; ++b) {
        if (buckets[b] == 0) continue;
        const auto here = static_cast<double>(buckets[b]);
        if (static_cast<double>(seen) + here >= rank) {
          // Rank seen+1 maps to lo, rank seen+c to hi; a lone sample
          // reports the bucket's lower bound (exact for the small buckets).
          const double frac =
              here > 1.0
                  ? (rank - static_cast<double>(seen) - 1.0) / (here - 1.0)
                  : 0.0;
          const auto [lo, hi] = bucket_bounds(b);
          const double v = static_cast<double>(lo) +
                           frac * static_cast<double>(hi - lo);
          return v < static_cast<double>(max) ? v : static_cast<double>(max);
        }
        seen += buckets[b];
      }
      return static_cast<double>(max);
    }
  };

  [[nodiscard]] Snapshot snapshot() const {
    Snapshot s;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    return s;
  }

  /// Bucket index of `value` (also the unit test's oracle).
  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t value) {
    if (value < 4) return static_cast<std::size_t>(value);
    const int e = std::bit_width(value) - 1;  // 2^e <= value < 2^(e+1), e >= 2
    const auto sub = static_cast<std::size_t>((value >> (e - 2)) & 3);
    return static_cast<std::size_t>(e - 1) * 4 + sub;
  }

  /// Inclusive lower / exclusive upper value bound of bucket `b`.
  [[nodiscard]] static constexpr std::pair<std::uint64_t, std::uint64_t>
  bucket_bounds(std::size_t b) {
    if (b < 4) return {b, b + 1};
    const int e = static_cast<int>(b / 4) + 1;
    const auto sub = static_cast<std::uint64_t>(b % 4);
    const std::uint64_t width = std::uint64_t{1} << (e - 2);
    const std::uint64_t lo = (std::uint64_t{1} << e) + sub * width;
    const std::uint64_t hi = lo + width;  // wraps to 0 for the top bucket
    return {lo, hi == 0 ? ~std::uint64_t{0} : hi};
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace smp
