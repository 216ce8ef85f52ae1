// Single-linkage dendrogram built from the MSF.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/dendrogram.hpp"
#include "core/msf.hpp"
#include "graph/generators.hpp"
#include "seq/seq_msf.hpp"
#include "seq/union_find.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

TEST(Dendrogram, HandExampleMergesInWeightOrder) {
  // Path 0 -1.0- 1 -3.0- 2 -2.0- 3: merges at 1.0 (0,1), 2.0 (2,3),
  // 3.0 (both pairs).
  EdgeList g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(2, 3, 2.0);
  const auto msf = seq::kruskal_msf(g);
  const core::Dendrogram d(4, msf);
  ASSERT_EQ(d.num_merges(), 3u);
  EXPECT_DOUBLE_EQ(d.merge_height(0), 1.0);
  EXPECT_DOUBLE_EQ(d.merge_height(1), 2.0);
  EXPECT_DOUBLE_EQ(d.merge_height(2), 3.0);

  std::size_t k = 0;
  const auto two = d.cut_at(2.5, &k);
  EXPECT_EQ(k, 2u);
  EXPECT_EQ(two[0], two[1]);
  EXPECT_EQ(two[2], two[3]);
  EXPECT_NE(two[0], two[2]);

  const auto one = d.cut_at(3.0, &k);  // threshold inclusive
  EXPECT_EQ(k, 1u);
  EXPECT_EQ(one[0], one[3]);
}

TEST(Dendrogram, CutIntoExactClusterCounts) {
  const EdgeList g = random_graph(500, 2500, 3);
  const auto msf = seq::kruskal_msf(g);
  const core::Dendrogram d(500, msf);
  for (const std::size_t k : {1u, 2u, 7u, 100u, 500u}) {
    std::size_t got = 0;
    const auto labels = d.cut_into(k, &got);
    const std::size_t floor_k = std::max<std::size_t>(k, msf.num_trees);
    EXPECT_EQ(got, std::min<std::size_t>(floor_k, 500)) << "k=" << k;
    // Labels dense.
    const auto mx = *std::max_element(labels.begin(), labels.end());
    EXPECT_EQ(static_cast<std::size_t>(mx) + 1, got);
  }
}

TEST(Dendrogram, CutMatchesThresholdedForestComponents) {
  // Cutting the dendrogram at T must equal components of the forest
  // restricted to edges of weight <= T.
  const EdgeList g = geometric_knn(800, 5, 7);
  const auto msf = seq::kruskal_msf(g);
  const core::Dendrogram d(800, msf);
  for (const double t : {0.01, 0.03, 0.06, 0.2}) {
    std::size_t k = 0;
    const auto labels = d.cut_at(t, &k);
    seq::UnionFind uf(800);
    for (const auto& e : msf.edges) {
      if (e.w <= t) uf.unite(e.u, e.v);
    }
    EXPECT_EQ(k, uf.num_sets()) << "threshold " << t;
    for (VertexId u = 0; u < 800; u += 13) {
      for (VertexId v = 0; v < 800; v += 17) {
        EXPECT_EQ(labels[u] == labels[v], uf.connected(u, v))
            << u << "," << v << " @ " << t;
      }
    }
  }
}

TEST(Dendrogram, DisconnectedInputNeverMergesAcrossComponents) {
  EdgeList g(6);  // two triangles
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.add_edge(0, 2, 3);
  g.add_edge(3, 4, 1);
  g.add_edge(4, 5, 2);
  g.add_edge(3, 5, 3);
  const auto msf = seq::kruskal_msf(g);
  const core::Dendrogram d(6, msf);
  EXPECT_EQ(d.num_merges(), 4u);
  std::size_t k = 0;
  const auto labels = d.cut_at(1e9, &k);  // keep everything
  EXPECT_EQ(k, 2u);
  EXPECT_NE(labels[0], labels[3]);
  // cut_into(1) cannot go below the component count.
  (void)d.cut_into(1, &k);
  EXPECT_EQ(k, 2u);
}

TEST(Dendrogram, WorksWithParallelAlgorithmOutput) {
  const EdgeList g = random_graph(2000, 9000, 9);
  const auto msf = test::run_alg(g, core::Algorithm::kBorFAL, 4);
  const core::Dendrogram d(2000, msf);
  std::size_t k = 0;
  (void)d.cut_into(5, &k);
  EXPECT_EQ(k, std::max<std::size_t>(5, msf.num_trees));
}

TEST(Dendrogram, TeamBuildsMatchTheOneThreadBuild) {
  // A random forest on 2^16 vertices whose weights tie in 16 classes, so
  // the weight sort's buckets are tie classes broken by input position.
  const VertexId n = VertexId{1} << 16;
  EdgeList g = random_graph(n, 2 * EdgeId{n}, 67);
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    g.edges[i].w = static_cast<Weight>((i * 2654435761u) % 16);
  }
  const std::vector<EdgeId> ids = test::sorted_ids(seq::kruskal_msf(g));
  std::vector<WEdge> edges;
  for (const EdgeId id : ids) edges.push_back(g.edges[id]);
  ThreadTeam one(1);
  const core::Dendrogram want(one, n, edges, ids);
  ASSERT_EQ(want.num_merges(), edges.size());
  // The one-thread build merges in ⟨weight, position⟩ order.
  for (std::size_t i = 1; i < want.num_merges(); ++i) {
    const std::uint32_t ea = want.merge_edge(i - 1);
    const std::uint32_t eb = want.merge_edge(i);
    ASSERT_TRUE(edges[ea].w < edges[eb].w || (edges[ea].w == edges[eb].w && ea < eb))
        << "merge " << i;
  }
  for (const int p : {1, 2, 3, 4}) {
    ThreadTeam team(p);
    const core::Dendrogram d(team, n, edges, ids);
    ASSERT_EQ(d.num_merges(), want.num_merges()) << "p=" << p;
    for (std::size_t i = 0; i < d.num_merges(); ++i) {
      ASSERT_EQ(d.merge_edge(i), want.merge_edge(i)) << "p=" << p << " merge " << i;
      ASSERT_EQ(d.merge_height(i), want.merge_height(i)) << "p=" << p;
      ASSERT_EQ(d.merge_id(i), want.merge_id(i)) << "p=" << p;
    }
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(d.pos(v), want.pos(v)) << "p=" << p << " v=" << v;
      ASSERT_EQ(d.run(v), want.run(v)) << "p=" << p << " v=" << v;
    }
  }
}

TEST(Dendrogram, EmptyAndSingleton) {
  MsfResult empty;
  const core::Dendrogram d0(0, empty);
  EXPECT_EQ(d0.num_merges(), 0u);
  const core::Dendrogram d1(1, empty);
  std::size_t k = 0;
  const auto labels = d1.cut_at(0.0, &k);
  EXPECT_EQ(k, 1u);
  EXPECT_EQ(labels[0], 0u);
}

}  // namespace
