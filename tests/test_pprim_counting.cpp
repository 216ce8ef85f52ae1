// Parallel counting sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pprim/counting_sort.hpp"
#include "pprim/rng.hpp"
#include "pprim/thread_team.hpp"

namespace {

using namespace smp;

struct Item {
  std::uint32_t key;
  std::uint32_t payload;
  friend bool operator==(const Item&, const Item&) = default;
};

class CountingSortTest : public ::testing::TestWithParam<int> {};

TEST_P(CountingSortTest, StableAndCorrect) {
  ThreadTeam team(GetParam());
  for (const std::size_t n : {0u, 100u, (1u << 14) - 3, 100000u}) {
    const std::size_t num_keys = 97;
    Rng rng(n + 1);
    std::vector<Item> in(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      in[i] = {static_cast<std::uint32_t>(rng.next_below(num_keys)), i};
    }
    std::vector<Item> out(n);
    std::vector<std::uint64_t> offsets;
    counting_sort_by_key(team, std::span<const Item>(in), std::span<Item>(out),
                         num_keys, [](const Item& x) { return x.key; }, offsets);

    // Reference: stable_sort by key.
    std::vector<Item> expect = in;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const Item& a, const Item& b) { return a.key < b.key; });
    ASSERT_EQ(out, expect) << "n=" << n << " p=" << GetParam();

    // Offsets form a valid CSR: out[offsets[k]..offsets[k+1]) all have key k.
    ASSERT_EQ(offsets.size(), num_keys + 1);
    EXPECT_EQ(offsets.front() , 0u);
    EXPECT_EQ(offsets.back(), n);
    for (std::size_t k = 0; k < num_keys; ++k) {
      ASSERT_LE(offsets[k], offsets[k + 1]);
      for (std::uint64_t i = offsets[k]; i < offsets[k + 1]; ++i) {
        ASSERT_EQ(out[i].key, k);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CountingSortTest, ::testing::Values(1, 2, 4, 8));

TEST(CountingSort, SingleKeyDegenerate) {
  ThreadTeam team(4);
  std::vector<Item> in(50000);
  for (std::uint32_t i = 0; i < in.size(); ++i) in[i] = {0, i};
  std::vector<Item> out(in.size());
  std::vector<std::uint64_t> offsets;
  counting_sort_by_key(team, std::span<const Item>(in), std::span<Item>(out), 1,
                       [](const Item& x) { return x.key; }, offsets);
  EXPECT_EQ(out, in) << "stability preserves input order within one key";
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, in.size()}));
}

}  // namespace
