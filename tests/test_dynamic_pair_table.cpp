// dynamic::PairTable: the flat open-addressing multimap behind EdgeStore's
// pair index, WriteGroup's sets and DynamicMsf's lightest crossing edge per
// pair of pieces, checked against std::unordered_multimap and
// std::unordered_map.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dynamic/pair_table.hpp"
#include "pprim/rng.hpp"

namespace {

using namespace smp;
using namespace smp::dynamic;
using graph::EdgeId;
using Ref = std::unordered_multimap<std::uint64_t, EdgeId>;

std::vector<EdgeId> values_of(const PairTable& t, std::uint64_t key) {
  std::vector<EdgeId> out;
  t.for_each(key, [&](EdgeId v) { out.push_back(v); });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<EdgeId> values_of(const Ref& ref, std::uint64_t key) {
  std::vector<EdgeId> out;
  auto [it, last] = ref.equal_range(key);
  for (; it != last; ++it) out.push_back(it->second);
  std::sort(out.begin(), out.end());
  return out;
}

/// Erases one (key, value) entry from `ref`; returns whether there was one.
bool erase_one(Ref& ref, std::uint64_t key, EdgeId value) {
  auto [it, last] = ref.equal_range(key);
  for (; it != last; ++it) {
    if (it->second == value) {
      ref.erase(it);
      return true;
    }
  }
  return false;
}

TEST(PairTable, PairKeyIgnoresEndpointOrder) {
  EXPECT_EQ(pair_key(3, 7), pair_key(7, 3));
  EXPECT_NE(pair_key(3, 7), pair_key(3, 8));
  EXPECT_EQ(pair_key(1, 2), (std::uint64_t{1} << 32) | 2);
  EXPECT_NE(pair_key(0xfffffffeu, 0xffffffffu), PairTable::kEmpty);
}

/// Seeded random insert / erase / lookup over a key space of 40 keys and 6
/// values, so many entries share a key, probe runs grow long and wrap past
/// the table's end, and erase shifts entries back across the wrap.  Each
/// seed fills to a few hundred entries (several growths), drains, clears
/// half way and refills; every step is checked against unordered_multimap.
TEST(PairTable, DifferentialAgainstUnorderedMultimap) {
  constexpr std::uint64_t kKeys = 40;
  constexpr EdgeId kValues = 6;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    PairTable t;
    Ref ref;
    // Keys spread over the whole 64-bit range, not just small integers.
    std::vector<std::uint64_t> keys(kKeys);
    for (auto& k : keys) k = rng.next() >> (rng.next_below(2) == 0 ? 0 : 40);
    std::size_t grows = 0;
    for (int step = 0; step < 3000; ++step) {
      if (step == 1500) {
        t.clear();
        ref.clear();
        EXPECT_EQ(t.bytes(), 0u);
      }
      const std::uint64_t key = keys[rng.next_below(kKeys)];
      const auto value = static_cast<EdgeId>(rng.next_below(kValues));
      // Fill for the first 400 steps of each half, then mostly erase.
      const bool filling = step % 1500 < 400;
      const std::uint64_t op = rng.next_below(10);
      if (op < (filling ? 7u : 3u)) {
        const std::size_t before = t.bytes();
        t.insert(key, value);
        ref.emplace(key, value);
        grows += t.bytes() > before && before > 0 ? 1 : 0;
      } else if (op < 8) {
        ASSERT_EQ(t.erase(key, value), erase_one(ref, key, value));
      } else if (op < 9) {
        const bool added = t.insert_unique(key, value);
        ASSERT_EQ(added, ref.count(key) == 0);
        if (added) ref.emplace(key, value);
      } else {
        ASSERT_EQ(t.contains(key), ref.count(key) != 0);
      }
      ASSERT_EQ(t.size(), ref.size());
      ASSERT_LE(4 * t.size(), 3 * t.bytes() / 16);
      ASSERT_EQ(values_of(t, key), values_of(ref, key));
      if (step % 97 == 0) {
        for (const std::uint64_t k : keys) {
          ASSERT_EQ(values_of(t, k), values_of(ref, k));
          ASSERT_EQ(t.contains(k), ref.count(k) != 0);
        }
      }
    }
    EXPECT_GE(grows, 4u);
  }
}

/// reserve(n) sizes for n entries at load <= 3/4: filling to n, and one
/// entry past a power of two, does not grow the table.
TEST(PairTable, ReserveHoldsItsCountWithoutGrowth) {
  constexpr std::size_t n = std::size_t{1} << 14;
  PairTable t;
  t.reserve(n);
  const std::size_t bytes = t.bytes();
  EXPECT_EQ(bytes, 2 * n * 16);  // 2n slots of 16 bytes
  for (std::size_t i = 0; i <= n; ++i) t.insert(i, i);
  EXPECT_EQ(t.bytes(), bytes);
  // It grows, doubling, only once the load would pass 3/4.
  while (4 * (t.size() + 1) <= 3 * 2 * n) t.insert(t.size(), 0);
  EXPECT_EQ(t.bytes(), bytes);
  t.insert(t.size(), 0);
  EXPECT_EQ(t.bytes(), 2 * bytes);
  for (std::size_t i = 0; i <= n; ++i) ASSERT_TRUE(t.contains(i));
}

TEST(PairTable, EmptyTableAnswersWithoutStorage) {
  PairTable t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.contains(5));
  EXPECT_FALSE(t.erase(5, 0));
  EXPECT_TRUE(values_of(t, 5).empty());
  t.insert(5, 1);
  EXPECT_TRUE(t.erase(5, 1));
  EXPECT_FALSE(t.contains(5));
  EXPECT_EQ(t.size(), 0u);
}

TEST(PairTable, TryEmplaceKeepsOneEntryPerKeyThroughGrowth) {
  // A running minimum per key, checked against std::unordered_map: the
  // reference try_emplace returns writes through, growth keeps it, and a
  // key already present is found, not added again.
  Rng rng(11);
  PairTable t;
  std::unordered_map<std::uint64_t, EdgeId> ref;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = pair_key(static_cast<graph::VertexId>(rng.next_below(60)),
                                       60 + static_cast<graph::VertexId>(rng.next_below(60)));
    const EdgeId value = rng.next_below(1u << 20);
    EdgeId& at = t.try_emplace(key, value);
    at = std::min(at, value);
    const auto [it, added] = ref.try_emplace(key, value);
    if (!added) it->second = std::min(it->second, value);
  }
  ASSERT_EQ(t.size(), ref.size());
  for (const auto& [key, value] : ref) {
    EXPECT_EQ(t.try_emplace(key, PairTable::kEmpty - 1), value);
    EXPECT_EQ(values_of(t, key), std::vector<EdgeId>{value});
  }
  EXPECT_EQ(t.size(), ref.size());
}

}  // namespace
