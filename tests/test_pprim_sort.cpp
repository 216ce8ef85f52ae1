// Sequential hybrid sorts (insertion + bottom-up merge) and parallel sample
// sort, checked against std::sort across sizes, thread counts and key
// distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "pprim/rng.hpp"
#include "pprim/sample_sort.hpp"
#include "pprim/seq_sort.hpp"
#include "pprim/thread_team.hpp"

namespace {

using namespace smp;

enum class Dist {
  kUniform,
  kFewDistinct,
  kSortedAlready,
  kReversed,
  kAllEqual,
  kNinetyPctDup
};

std::vector<std::uint64_t> make_input(std::size_t n, Dist d, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  switch (d) {
    case Dist::kUniform:
      for (auto& x : v) x = rng.next();
      break;
    case Dist::kFewDistinct:
      for (auto& x : v) x = rng.next_below(7);
      break;
    case Dist::kSortedAlready:
      for (std::size_t i = 0; i < n; ++i) v[i] = i;
      break;
    case Dist::kReversed:
      for (std::size_t i = 0; i < n; ++i) v[i] = n - i;
      break;
    case Dist::kAllEqual:
      for (auto& x : v) x = 42;
      break;
    case Dist::kNinetyPctDup:
      // 90% of elements share one value; the rest are uniform.  Degenerate
      // splitter distributions like this are the classic sample-sort trap:
      // most splitters collapse onto the duplicated value and one bucket
      // receives nearly the whole input.
      for (auto& x : v) x = rng.next_below(10) == 0 ? rng.next() : 7;
      break;
  }
  return v;
}

TEST(InsertionSort, SortsSmallInputs) {
  for (const std::size_t n : {0u, 1u, 2u, 3u, 17u, 100u}) {
    auto v = make_input(n, Dist::kUniform, n + 1);
    auto expect = v;
    std::sort(expect.begin(), expect.end());
    insertion_sort(std::span<std::uint64_t>(v), std::less<>{});
    EXPECT_EQ(v, expect) << n;
  }
}

class MergeSortTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, Dist>> {};

TEST_P(MergeSortTest, MatchesStdSort) {
  const auto [n, dist] = GetParam();
  auto v = make_input(n, dist, n * 7 + 3);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  std::vector<std::uint64_t> scratch(n);
  merge_sort_bottomup(std::span<std::uint64_t>(v), std::span<std::uint64_t>(scratch),
                      std::less<>{});
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDists, MergeSortTest,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{31}, std::size_t{32},
                                         std::size_t{33}, std::size_t{1000},
                                         std::size_t{65536}),
                       ::testing::Values(Dist::kUniform, Dist::kFewDistinct,
                                         Dist::kSortedAlready, Dist::kReversed,
                                         Dist::kAllEqual)));

TEST(SeqSortHybrid, DispatchesOnCutoff) {
  // Below the cutoff no scratch is required; above it is.
  auto small = make_input(kInsertionSortCutoff, Dist::kUniform, 9);
  auto expect_small = small;
  std::sort(expect_small.begin(), expect_small.end());
  seq_sort(std::span<std::uint64_t>(small), {}, std::less<>{});
  EXPECT_EQ(small, expect_small);

  auto big = make_input(kInsertionSortCutoff + 1, Dist::kUniform, 10);
  auto expect_big = big;
  std::sort(expect_big.begin(), expect_big.end());
  std::vector<std::uint64_t> scratch(big.size());
  seq_sort(std::span<std::uint64_t>(big), std::span<std::uint64_t>(scratch),
           std::less<>{});
  EXPECT_EQ(big, expect_big);
}

class SampleSortTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t, Dist>> {};

TEST_P(SampleSortTest, MatchesStdSort) {
  const auto [threads, n, dist] = GetParam();
  ThreadTeam team(threads);
  auto v = make_input(n, dist, n + static_cast<std::size_t>(threads));
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  sample_sort(team, v, std::less<>{});
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsSizesDists, SampleSortTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(std::size_t{0}, std::size_t{100},
                                         std::size_t{1} << 15,
                                         (std::size_t{1} << 16) + 17),
                       ::testing::Values(Dist::kUniform, Dist::kFewDistinct,
                                         Dist::kSortedAlready, Dist::kReversed,
                                         Dist::kAllEqual,
                                         Dist::kNinetyPctDup)));

// Adversarial distributions against the in-region primitive: the sort runs
// inside one persistent SPMD region (as the fused Borůvka iterations call
// it), with scratch reused across repeated sorts of different shapes.  The
// input size sits above the sample-sort cutoff so the full splitter-based
// parallel path runs at every p.
class SampleSortAdversarialTest
    : public ::testing::TestWithParam<std::tuple<int, Dist>> {};

TEST_P(SampleSortAdversarialTest, InRegionMatchesStdSort) {
  const auto [threads, dist] = GetParam();
  constexpr std::size_t kN = 40000;  // > kSampleSortCutoff (1 << 15)
  ThreadTeam team(threads);
  SampleSortScratch<std::uint64_t> scratch;
  for (int rep = 0; rep < 2; ++rep) {  // second rep reuses grown scratch
    auto v = make_input(kN, dist, static_cast<std::size_t>(threads) * 31 +
                                      static_cast<std::size_t>(rep));
    auto expect = v;
    std::sort(expect.begin(), expect.end());
    team.run([&](TeamCtx& ctx) {
      sample_sort_in_region(ctx, v, scratch, std::less<>{});
    });
    ASSERT_EQ(v, expect);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsDists, SampleSortAdversarialTest,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(Dist::kAllEqual, Dist::kSortedAlready,
                                         Dist::kReversed,
                                         Dist::kNinetyPctDup)));

TEST(SampleSort, NinetyPctDupStableRecords) {
  // Stability under heavy duplication: records sharing the hot key must keep
  // their input order through the parallel path.
  struct Rec {
    std::uint64_t key;
    std::uint32_t seq;
  };
  ThreadTeam team(4);
  auto keys = make_input(50000, Dist::kNinetyPctDup, 99);
  std::vector<Rec> v(keys.size());
  for (std::uint32_t i = 0; i < v.size(); ++i) v[i] = {keys[i], i};
  const auto less = [](const Rec& a, const Rec& b) {
    return a.key != b.key ? a.key < b.key : a.seq < b.seq;
  };
  auto expect = v;
  std::sort(expect.begin(), expect.end(), less);
  sample_sort(team, v, less);
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(v[i].key, expect[i].key) << i;
    ASSERT_EQ(v[i].seq, expect[i].seq) << i;
  }
}

TEST(SampleSort, CustomComparatorAndStructs) {
  struct Rec {
    std::uint32_t key;
    std::uint32_t payload;
  };
  ThreadTeam team(4);
  Rng rng(5);
  std::vector<Rec> v(100000);
  for (std::uint32_t i = 0; i < v.size(); ++i) {
    v[i] = {static_cast<std::uint32_t>(rng.next_below(1000)), i};
  }
  const auto less = [](const Rec& a, const Rec& b) {
    return a.key != b.key ? a.key < b.key : a.payload < b.payload;
  };
  auto expect = v;
  std::sort(expect.begin(), expect.end(), less);
  sample_sort(team, v, less);
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(v[i].key, expect[i].key) << i;
    ASSERT_EQ(v[i].payload, expect[i].payload) << i;
  }
}

}  // namespace
