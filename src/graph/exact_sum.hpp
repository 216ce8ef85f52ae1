#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

#include "graph/types.hpp"

namespace smp::graph {

/// Exact sum of finite doubles, rounded once.
///
/// A fixed-point superaccumulator over the whole finite double range (Neal,
/// "Fast exact summation using small and large superaccumulators", arXiv
/// 1505.05571): bit k of the value has weight 2^(k − 1074), so every finite
/// double is an integer in these units.  The integer is kept in 32-bit
/// digits, each stored in a signed 64-bit chunk whose upper half absorbs the
/// carries of up to kMaxPending adds; carries propagate only then, or when
/// the sum is read.  One add splits the 53-bit mantissa over three chunks,
/// about the cost of a double add.
///
/// add and sub are exact, in any order and any mix, so the rounded value
/// depends only on the multiset of summands: a forest's weight is the same
/// bits whichever solver summed it, in whatever order, and a running sum
/// that adds and later subtracts an edge returns to the same bits.
/// value() rounds to nearest, ties to even; an exact zero is +0.0 (a sum of
/// −0.0 terms included), and a sum past the largest double is ±inf.  Inputs
/// must be finite.
class ExactSum {
 public:
  void add(Weight x) { accumulate(x, false); }
  void sub(Weight x) { accumulate(x, true); }

  /// Adds another accumulator's exact value.
  void add(const ExactSum& o) {
    ExactSum t = o;
    t.carry();
    carry();
    for (std::size_t i = 0; i < kChunks; ++i) chunk_[i] += t.chunk_[i];
    pending_ = 2;  // every digit below the top is now < 2^33
  }

  /// The exact sum rounded to the nearest double (ties to even).
  [[nodiscard]] Weight value() const {
    ExactSum t = *this;
    t.carry();
    const bool neg = t.chunk_[kChunks - 1] < 0;
    if (neg) {
      for (std::int64_t& c : t.chunk_) c = -c;
      t.carry();
    }
    // Every digit below the top is now in [0, 2^32) and the top is >= 0.
    if (t.chunk_[kChunks - 1] != 0) {
      return neg ? -std::numeric_limits<Weight>::infinity()
                 : std::numeric_limits<Weight>::infinity();
    }
    int top = static_cast<int>(kChunks) - 2;
    while (top >= 0 && t.chunk_[static_cast<std::size_t>(top)] == 0) --top;
    if (top < 0) return 0.0;
    const auto digit = [&](int i) -> std::uint64_t {
      return i < 0 ? 0 : static_cast<std::uint64_t>(t.chunk_[static_cast<std::size_t>(i)]);
    };
    // The top three digits as one window, weight 2^(32 (top − 2) − 1074) per
    // unit; the digits below it only decide a tie.
    const unsigned __int128 w = static_cast<unsigned __int128>(digit(top)) << 64 |
                                static_cast<unsigned __int128>(digit(top - 1)) << 32 |
                                digit(top - 2);
    bool sticky = false;
    for (int i = 0; i < top - 2; ++i) sticky |= t.chunk_[static_cast<std::size_t>(i)] != 0;
    const int len = 128 - std::countl_zero(static_cast<std::uint64_t>(w >> 64));
    // Keep 53 bits.  A value below 2^53 units (a subnormal, or the smallest
    // normals) has len <= 96 and top <= 1, so its dropped bits are the zero
    // digits below chunk 0 and it comes out exact.
    const int shift = len - 53;
    std::uint64_t q = static_cast<std::uint64_t>(w >> shift);
    const unsigned __int128 rest = w & ((static_cast<unsigned __int128>(1) << shift) - 1);
    const unsigned __int128 half = static_cast<unsigned __int128>(1) << (shift - 1);
    if (rest > half || (rest == half && (sticky || (q & 1) != 0))) ++q;
    const Weight r = std::ldexp(static_cast<Weight>(q), 32 * (top - 2) + shift - 1074);
    return neg ? -r : r;
  }

 private:
  /// 32-bit digits: 2^−1074 … past 2^1023 with room for the carries of any
  /// realistic number of adds; the top chunk keeps the sign and the rest.
  static constexpr std::size_t kChunks = 68;
  /// Adds between two carry passes: each add moves a chunk by < 2^32.
  static constexpr std::uint32_t kMaxPending = std::uint32_t{1} << 30;

  void accumulate(Weight x, bool negate) {
    assert(std::isfinite(x));
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const auto exp = static_cast<std::uint32_t>(bits >> 52 & 0x7ff);
    std::uint64_t m = bits & ((std::uint64_t{1} << 52) - 1);
    if (exp != 0) m |= std::uint64_t{1} << 52;
    // The mantissa's lowest bit sits at bit max(exp, 1) − 1 of the sum.
    const std::uint32_t pos = exp == 0 ? 0 : exp - 1;
    const std::size_t i = pos / 32;
    const std::uint32_t s = pos % 32;
    const std::uint64_t mid = m >> (32 - s);  // (m << s) >> 32, without overflow
    const std::int64_t sign = ((bits >> 63) != 0) != negate ? -1 : 1;
    chunk_[i] += sign * static_cast<std::int64_t>((m << s) & 0xffffffff);
    chunk_[i + 1] += sign * static_cast<std::int64_t>(mid & 0xffffffff);
    chunk_[i + 2] += sign * static_cast<std::int64_t>(mid >> 32);
    if (++pending_ == kMaxPending) carry();
  }

  /// Moves every digit's carry up, leaving digits in [0, 2^32).
  void carry() {
    for (std::size_t i = 0; i + 1 < kChunks; ++i) {
      chunk_[i + 1] += chunk_[i] >> 32;  // floor division
      chunk_[i] &= 0xffffffff;
    }
    pending_ = 0;
  }

  std::array<std::int64_t, kChunks> chunk_{};
  std::uint32_t pending_ = 0;
};

/// The exactly rounded sum of `proj(x)` over `range`.
template <class Range, class Proj>
[[nodiscard]] Weight exact_sum(const Range& range, Proj proj) {
  ExactSum s;
  for (const auto& x : range) s.add(proj(x));
  return s.value();
}

/// The exactly rounded sum of a range of weights.
template <class Range>
[[nodiscard]] Weight exact_sum(const Range& range) {
  return exact_sum(range, [](Weight w) { return w; });
}

}  // namespace smp::graph
