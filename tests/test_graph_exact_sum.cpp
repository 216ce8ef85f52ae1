// graph::ExactSum: the exactly rounded sum every forest weight goes through.
// Order independence, exact add/subtract, signed zeros, cancellation across
// the whole exponent range, subnormals, overflow, ties to even, and a check
// against exact integer arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "graph/exact_sum.hpp"

using smp::graph::ExactSum;
using smp::graph::exact_sum;

namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Doubles of both signs spread over 2^-80 … 2^80, with some exact
/// duplicates and negations so that cancellation happens.
std::vector<double> mixed_values(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> mant(1.0, 2.0);
  std::uniform_int_distribution<int> ex(-80, 80);
  std::vector<double> v;
  for (std::size_t i = 0; i < count; ++i) {
    double x = std::ldexp(mant(rng), ex(rng));
    if (rng() % 2 == 0) x = -x;
    v.push_back(x);
    if (rng() % 8 == 0) v.push_back(-x);
  }
  return v;
}

}  // namespace

TEST(ExactSum, ShuffledOrdersGiveTheSameBits) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    std::vector<double> v = mixed_values(5000, seed);
    const double want = exact_sum(v);
    std::mt19937_64 rng(seed * 77);
    for (int round = 0; round < 10; ++round) {
      std::shuffle(v.begin(), v.end(), rng);
      EXPECT_EQ(bits(exact_sum(v)), bits(want)) << "seed " << seed;
    }
    std::sort(v.begin(), v.end());
    EXPECT_EQ(bits(exact_sum(v)), bits(want));
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(bits(exact_sum(v)), bits(want));
  }
}

TEST(ExactSum, AddingThenSubtractingASetRestoresTheBits) {
  const std::vector<double> base = mixed_values(300, 11);
  const std::vector<double> extra = mixed_values(2000, 12);
  ExactSum s;
  for (const double x : base) s.add(x);
  const double before = s.value();
  for (const double x : extra) s.add(x);
  std::vector<double> back = extra;
  std::shuffle(back.begin(), back.end(), std::mt19937_64(13));
  for (const double x : back) s.sub(x);
  EXPECT_EQ(bits(s.value()), bits(before));

  // Subtracting everything leaves an exact zero, which is +0.0.
  for (const double x : base) s.sub(x);
  EXPECT_EQ(bits(s.value()), bits(0.0));
}

TEST(ExactSum, MergedPartsEqualOneAccumulator) {
  const std::vector<double> v = mixed_values(4000, 21);
  ExactSum parts[3];
  for (std::size_t i = 0; i < v.size(); ++i) parts[i % 3].add(v[i]);
  parts[0].add(parts[1]);
  parts[0].add(parts[2]);
  EXPECT_EQ(bits(parts[0].value()), bits(exact_sum(v)));
}

TEST(ExactSum, SignedZeros) {
  EXPECT_EQ(bits(ExactSum{}.value()), bits(0.0));
  EXPECT_EQ(bits(exact_sum(std::vector<double>{-0.0})), bits(0.0));
  EXPECT_EQ(bits(exact_sum(std::vector<double>{-0.0, -0.0, -0.0})), bits(0.0));
  EXPECT_EQ(bits(exact_sum(std::vector<double>{0.0, -0.0})), bits(0.0));
  EXPECT_EQ(bits(exact_sum(std::vector<double>{1.5, -1.5})), bits(0.0));
  EXPECT_EQ(bits(exact_sum(std::vector<double>{-2.0, -0.0})), bits(-2.0));
  ExactSum s;
  s.sub(-0.0);
  s.sub(0.0);
  EXPECT_EQ(bits(s.value()), bits(0.0));
}

TEST(ExactSum, CancellationAcrossTheExponentRange) {
  EXPECT_EQ(bits(exact_sum(std::vector<double>{1e308, -1e308, 1e-300})),
            bits(1e-300));
  EXPECT_EQ(bits(exact_sum(std::vector<double>{1e-300, 1e308, -1e308})),
            bits(1e-300));
  // A left-to-right double sum loses the small term entirely.
  EXPECT_EQ(bits(exact_sum(std::vector<double>{1.0, 1e-30, -1.0})), bits(1e-30));
  // Past the largest double in the middle, back in range at the end.
  const double max = std::numeric_limits<double>::max();
  EXPECT_EQ(bits(exact_sum(std::vector<double>{max, max, -max})), bits(max));
}

TEST(ExactSum, Subnormals) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  std::vector<double> v(1000, tiny);
  EXPECT_EQ(bits(exact_sum(v)), bits(1000 * tiny));
  // The largest subnormal plus the smallest one is the smallest normal.
  EXPECT_EQ(bits(exact_sum(std::vector<double>{min_normal - tiny, tiny})),
            bits(min_normal));
  EXPECT_EQ(bits(exact_sum(std::vector<double>{min_normal, -tiny})),
            bits(min_normal - tiny));
  EXPECT_EQ(bits(exact_sum(std::vector<double>{-tiny})), bits(-tiny));
  // A normal and a subnormal that cannot both be kept: rounds to the normal.
  EXPECT_EQ(bits(exact_sum(std::vector<double>{1.0, tiny})), bits(1.0));
}

TEST(ExactSum, OverflowGoesToInfinity) {
  const double max = std::numeric_limits<double>::max();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(bits(exact_sum(std::vector<double>{max, max})), bits(inf));
  EXPECT_EQ(bits(exact_sum(std::vector<double>{-max, -max})), bits(-inf));
  // max plus half an ulp of max is a tie that rounds up to 2^1024: inf.
  const double half_ulp = std::ldexp(1.0, 970);
  EXPECT_EQ(bits(exact_sum(std::vector<double>{max, half_ulp})), bits(inf));
  // Just under the tie stays at max.
  EXPECT_EQ(bits(exact_sum(std::vector<double>{max, std::ldexp(1.0, 969)})),
            bits(max));
  std::vector<double> many(5000, max);
  EXPECT_EQ(bits(exact_sum(many)), bits(inf));
}

TEST(ExactSum, RoundsToNearestTiesToEven) {
  const double e = std::ldexp(1.0, -53);  // half an ulp of 1.0
  EXPECT_EQ(bits(exact_sum(std::vector<double>{1.0, e})), bits(1.0));
  EXPECT_EQ(bits(exact_sum(std::vector<double>{1.0, e, std::ldexp(1.0, -200)})),
            bits(std::nextafter(1.0, 2.0)));
  const double odd = std::nextafter(1.0, 2.0);
  EXPECT_EQ(bits(exact_sum(std::vector<double>{odd, e})),
            bits(std::nextafter(odd, 2.0)));
  EXPECT_EQ(bits(exact_sum(std::vector<double>{-1.0, -e})), bits(-1.0));
  // 0.1 + 0.2 + 0.3 in doubles is 0.6000000000000001 left to right; the
  // exact sum of the three doubles rounds to 0.6.
  EXPECT_EQ(bits(exact_sum(std::vector<double>{0.1, 0.2, 0.3})), bits(0.6));
}

TEST(ExactSum, MatchesExactIntegerSums) {
  // Integer-valued doubles up to 2^90 in magnitude: their sum is exact in
  // __int128, and converting that to double rounds to nearest even.
  std::mt19937_64 rng(31);
  for (int round = 0; round < 200; ++round) {
    __int128 want = 0;
    ExactSum s;
    const int terms = 1 + static_cast<int>(rng() % 64);
    for (int i = 0; i < terms; ++i) {
      const int shift = static_cast<int>(rng() % 38);
      const auto m = static_cast<std::int64_t>(rng() >> 11);  // 53 bits
      const __int128 x = static_cast<__int128>(rng() % 2 == 0 ? m : -m) << shift;
      const double d = static_cast<double>(x);  // exact: 53 significant bits
      ASSERT_EQ(static_cast<__int128>(d), x);
      want += x;
      s.add(d);
    }
    EXPECT_EQ(bits(s.value()), bits(static_cast<double>(want))) << "round " << round;
  }
}
