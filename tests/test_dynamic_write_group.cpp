// dynamic::WriteGroup: the cut rule that decides which writes may share one
// apply_batch, and the grouped application it makes order-exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dynamic/dynamic_msf.hpp"
#include "dynamic/write_group.hpp"
#include "pprim/rng.hpp"

namespace {

using namespace smp;
using namespace smp::graph;
using namespace smp::dynamic;
using Resolve = WriteGroup::Resolve;

TEST(WriteGroup, DeleteOfAPairTheGroupInsertedCuts) {
  EdgeList g(4);
  g.edges = {{0, 1, 2.0}, {2, 3, 1.0}};
  DynamicMsf d(g);
  WriteGroup group(d.store());
  EdgeId id = 0;
  EXPECT_EQ(group.resolve(1, 0, &id), Resolve::kJoin);
  EXPECT_EQ(id, 0u);

  // A lighter (0,1) in the group would become the pair's canonical edge
  // once applied: the delete must wait, in either endpoint order.
  group.insert(WEdge{0, 1, 1.0});
  EXPECT_EQ(group.resolve(0, 1, &id), Resolve::kCut);
  EXPECT_EQ(group.resolve(1, 0, &id), Resolve::kCut);
  // The same holds on a pair with no live edge before the group.
  group.insert(WEdge{1, 2, 3.0});
  EXPECT_EQ(group.resolve(2, 1, &id), Resolve::kCut);
  EXPECT_EQ(group.resolve(2, 3, &id), Resolve::kJoin);
  EXPECT_EQ(group.resolve(0, 3, &id), Resolve::kNotLive);

  d.apply_batch(group.insertions(), group.deletions());
  group.clear();
  ASSERT_EQ(group.resolve(0, 1, &id), Resolve::kJoin);
  EXPECT_EQ(id, 2u);  // now the inserted edge
  ASSERT_EQ(group.resolve(1, 2, &id), Resolve::kJoin);
  EXPECT_EQ(id, 3u);
}

TEST(WriteGroup, SecondDeleteOfAPairCutsAndThenTakesTheParallelEdge) {
  EdgeList g(3);
  g.edges = {{0, 1, 1.0}, {1, 2, 5.0}, {1, 0, 2.0}};  // ids 0 and 2 parallel
  DynamicMsf d(g);
  WriteGroup group(d.store());
  EdgeId id = 99;
  ASSERT_EQ(group.resolve(0, 1, &id), Resolve::kJoin);
  EXPECT_EQ(id, 0u);
  group.erase(id);
  EXPECT_EQ(group.resolve(0, 1, &id), Resolve::kCut);
  EXPECT_EQ(group.size(), 1u);

  d.apply_batch(group.insertions(), group.deletions());
  group.clear();
  EXPECT_TRUE(group.empty());
  ASSERT_EQ(group.resolve(0, 1, &id), Resolve::kJoin);
  EXPECT_EQ(id, 2u);
  group.erase(id);
  d.apply_batch(group.insertions(), group.deletions());
  group.clear();
  EXPECT_EQ(group.resolve(0, 1, &id), Resolve::kNotLive);
}

TEST(WriteGroup, ReplayIdsAtOrPastTheGroupsFirstNewIdOrRepeatedCut) {
  EdgeList g(4);
  g.edges = {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}};
  DynamicMsf d(g);
  WriteGroup group(d.store());
  EXPECT_FALSE(group.cuts(0));
  EXPECT_FALSE(group.cuts(2));
  EXPECT_TRUE(group.cuts(3));  // the group's first new id
  EXPECT_TRUE(group.cuts(100));
  group.erase(2);
  EXPECT_TRUE(group.cuts(2));  // repeated
  EXPECT_FALSE(group.cuts(1));
  group.insert(WEdge{0, 3, 4.0});
  EXPECT_TRUE(group.cuts(3));  // the id that insertion will get

  d.apply_batch(group.insertions(), group.deletions());
  group.clear();
  EXPECT_FALSE(group.cuts(2));  // tombstoned now; apply_batch rejects it
  EXPECT_FALSE(group.cuts(3));
  EXPECT_TRUE(group.cuts(4));
}

/// A bulk group: the inserted-pair set is built from 100k insertions on the
/// first resolve, answers in both endpoint orders, keeps up with insertions
/// after that, and clear() empties it.
TEST(WriteGroup, BulkGroupResolvesInsertedPairsAfterTheFirstLookup) {
  constexpr VertexId n = 2000;
  EdgeList g(n);
  g.edges = {{0, 1, 1.0}};
  DynamicMsf d(g);
  WriteGroup group(d.store());
  Rng rng(7);
  std::vector<WEdge> bulk;
  for (int i = 0; i < 100000; ++i) {
    // Endpoints >= 2 keep the live pair {0, 1} and {0, 2} out of the bulk.
    const auto u = static_cast<VertexId>(2 + rng.next_below(n - 2));
    auto v = static_cast<VertexId>(2 + rng.next_below(n - 3));
    if (v >= u) ++v;
    bulk.push_back(WEdge{u, v, static_cast<Weight>(rng.next_below(100))});
  }
  group.insert(bulk);
  EXPECT_EQ(group.size(), bulk.size());

  EdgeId id = 99;
  for (const std::size_t i : {std::size_t{0}, bulk.size() / 2,
                              bulk.size() - 1}) {
    EXPECT_EQ(group.resolve(bulk[i].u, bulk[i].v, &id), Resolve::kCut);
    EXPECT_EQ(group.resolve(bulk[i].v, bulk[i].u, &id), Resolve::kCut);
  }
  ASSERT_EQ(group.resolve(1, 0, &id), Resolve::kJoin);
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(group.resolve(0, 2, &id), Resolve::kNotLive);
  group.insert(WEdge{2, 0, 4.0});
  EXPECT_EQ(group.resolve(0, 2, &id), Resolve::kCut);

  group.clear();
  EXPECT_TRUE(group.empty());
  EXPECT_EQ(group.resolve(0, 2, &id), Resolve::kNotLive);
  EXPECT_EQ(group.resolve(bulk[0].u, bulk[0].v, &id), Resolve::kNotLive);
  ASSERT_EQ(group.resolve(0, 1, &id), Resolve::kJoin);
  EXPECT_EQ(id, 0u);
}

/// Random insert / delete-by-endpoints traces on few vertices (many
/// parallel edges and repeated pairs, so many cuts), applied one op per
/// batch and in WriteGroup groups: the stores and forests must agree bit for
/// bit after every group.
TEST(WriteGroup, GroupedTraceMatchesOneOpAtATime) {
  constexpr VertexId n = 6;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    DynamicMsf one(n);
    DynamicMsf grouped(n);
    WriteGroup group(grouped.store());
    std::size_t cuts = 0;
    const auto flush = [&] {
      grouped.apply_batch(group.insertions(), group.deletions());
      group.clear();
      ASSERT_EQ(grouped.store().size(), one.store().size());
      EXPECT_EQ(grouped.forest_edge_ids(), one.forest_edge_ids());
      EXPECT_EQ(grouped.total_weight(), one.total_weight());
    };
    for (int op = 0; op < 300; ++op) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      auto v = static_cast<VertexId>(rng.next_below(n - 1));
      if (v >= u) ++v;
      if (rng.next_below(2) == 0) {
        const WEdge e{u, v, static_cast<Weight>(1 + rng.next_below(4))};
        one.apply_batch(std::vector<WEdge>{e}, {});
        group.insert(e);
        continue;
      }
      EdgeId id = 0;
      Resolve res = group.resolve(u, v, &id);
      if (res == Resolve::kCut) {
        ++cuts;
        flush();
        res = group.resolve(u, v, &id);
        ASSERT_NE(res, Resolve::kCut);  // an empty group never cuts
      }
      const auto live = one.store().find_live(u, v);
      ASSERT_EQ(res == Resolve::kJoin, live.has_value());
      if (!live) continue;
      EXPECT_EQ(id, *live);
      one.apply_batch({}, std::vector<EdgeId>{*live});
      group.erase(id);
    }
    flush();
    EXPECT_GT(cuts, 0u);
  }
}

}  // namespace
