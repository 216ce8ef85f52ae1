// CsrGraph and FlexAdjList representation invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/flex_adj_list.hpp"
#include "graph/generators.hpp"
#include "pprim/rng.hpp"
#include "pprim/thread_team.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

TEST(CsrGraph, DegreesAndArcsMatchEdgeList) {
  const EdgeList g = random_graph(300, 1200, 5);
  const CsrGraph c(g);
  ASSERT_EQ(c.num_vertices(), g.num_vertices);
  ASSERT_EQ(c.num_arcs(), 2 * g.num_edges());

  std::vector<std::size_t> deg(g.num_vertices, 0);
  for (const auto& e : g.edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    EXPECT_EQ(c.degree(v), deg[v]) << v;
  }
}

TEST(CsrGraph, EveryArcReflectsItsOriginalEdge) {
  const EdgeList g = random_graph(200, 800, 6);
  const CsrGraph c(g);
  std::vector<int> arc_count(g.num_edges(), 0);
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    const auto nbrs = c.neighbors(v);
    const auto ws = c.weights(v);
    const auto os = c.origs(v);
    for (std::size_t a = 0; a < nbrs.size(); ++a) {
      const auto& e = g.edges[os[a]];
      EXPECT_EQ(e.w, ws[a]);
      EXPECT_TRUE((e.u == v && e.v == nbrs[a]) || (e.v == v && e.u == nbrs[a]));
      ++arc_count[os[a]];
    }
  }
  for (const int cnt : arc_count) EXPECT_EQ(cnt, 2);  // one arc per direction
}

TEST(CsrGraph, EmptyGraph) {
  const CsrGraph c{EdgeList(0)};
  EXPECT_EQ(c.num_vertices(), 0u);
  EXPECT_EQ(c.num_arcs(), 0u);
  const CsrGraph c5{EdgeList(5)};
  EXPECT_EQ(c5.num_vertices(), 5u);
  EXPECT_EQ(c5.degree(3), 0u);
}

TEST(FlexAdjList, InitialStateOneMemberPerSupervertex) {
  const EdgeList g = random_graph(100, 300, 7);
  const CsrGraph c(g);
  FlexAdjList fal(c);
  EXPECT_EQ(fal.num_super(), 100u);
  for (VertexId v = 0; v < 100; ++v) EXPECT_EQ(fal.super_of(v), v);
  // The structure is the lookup table alone: one label per vertex.
  EXPECT_EQ(fal.labels().size(), 100u);
  const FlexAdjList bare(100);
  EXPECT_TRUE(std::equal(bare.labels().begin(), bare.labels().end(),
                         fal.labels().begin(), fal.labels().end()));
}

TEST(FlexAdjList, ContractMergesMemberListsWithPointerOps) {
  const EdgeList g = random_graph(12, 20, 8);
  const CsrGraph c(g);
  FlexAdjList fal(c);
  ThreadTeam team(2);

  // Merge {0..3}→0, {4..7}→1, {8..11}→2.
  std::vector<VertexId> labels(12);
  for (VertexId v = 0; v < 12; ++v) labels[v] = v / 4;
  fal.contract(team, labels, 3);

  EXPECT_EQ(fal.num_super(), 3u);
  for (VertexId v = 0; v < 12; ++v) EXPECT_EQ(fal.super_of(v), v / 4);
}

TEST(FlexAdjList, RepeatedContractionsComposeLabels) {
  const EdgeList g = random_graph(16, 40, 9);
  const CsrGraph c(g);
  FlexAdjList fal(c);
  ThreadTeam team(3);

  std::vector<VertexId> l1(16);
  for (VertexId v = 0; v < 16; ++v) l1[v] = v / 2;  // 16 → 8
  fal.contract(team, l1, 8);
  std::vector<VertexId> l2(8);
  for (VertexId v = 0; v < 8; ++v) l2[v] = v / 4;  // 8 → 2
  fal.contract(team, l2, 2);

  EXPECT_EQ(fal.num_super(), 2u);
  for (VertexId v = 0; v < 16; ++v) EXPECT_EQ(fal.super_of(v), v / 8);
}

TEST(FlexAdjList, ContractToSingleSupervertex) {
  const EdgeList g = random_graph(50, 100, 10);
  const CsrGraph c(g);
  FlexAdjList fal(c);
  ThreadTeam team(4);
  std::vector<VertexId> labels(50, 0);
  fal.contract(team, labels, 1);
  EXPECT_EQ(fal.num_super(), 1u);
  for (VertexId v = 0; v < 50; ++v) EXPECT_EQ(fal.super_of(v), 0u);
}

TEST(FlexAdjList, ContractComposesNonMonotoneLabels) {
  // Label maps that reverse and permute the supervertex order: the lookup
  // table must hold their composition, whatever the team size.
  constexpr VertexId kN = 64;
  const EdgeList g = random_graph(kN, 200, 11);
  const CsrGraph c(g);

  std::vector<VertexId> l1(kN);  // 64 → 32, reversed: v and v + 32 merge
  for (VertexId v = 0; v < kN; ++v) l1[v] = 31 - v % 32;
  std::vector<VertexId> perm(32);  // 32 → 12 through a shuffled order
  std::iota(perm.begin(), perm.end(), VertexId{0});
  Rng rng(12);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  std::vector<VertexId> l2(32);
  for (VertexId s = 0; s < 32; ++s) l2[s] = perm[s] % 12;
  std::vector<VertexId> l3(12);  // 12 → 3, reversed blocks
  for (VertexId s = 0; s < 12; ++s) l3[s] = 2 - s / 4;

  for (const int p : {1, 2, 4}) {
    SCOPED_TRACE(p);
    FlexAdjList fal(c);
    ThreadTeam team(p);
    fal.contract(team, l1, 32);
    fal.contract(team, l2, 12);
    EXPECT_EQ(fal.num_super(), 12u);
    for (VertexId v = 0; v < kN; ++v) EXPECT_EQ(fal.super_of(v), l2[l1[v]]);
    fal.contract(team, l3, 3);
    EXPECT_EQ(fal.num_super(), 3u);
    for (VertexId v = 0; v < kN; ++v) EXPECT_EQ(fal.super_of(v), l3[l2[l1[v]]]);
  }
}

}  // namespace
