// Connected components (extension module).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/connected_components.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "pprim/permutation.hpp"
#include "pprim/rng.hpp"
#include "pprim/thread_team.hpp"
#include "seq/union_find.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

/// Reference labels via union-find, densified in first-seen-root order is
/// not directly comparable; compare as partitions instead.
bool same_partition(const std::vector<VertexId>& a, const std::vector<VertexId>& b) {
  if (a.size() != b.size()) return false;
  std::vector<VertexId> map_ab(a.size(), kInvalidVertex);
  std::vector<VertexId> map_ba(b.size(), kInvalidVertex);
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (map_ab[a[v]] == kInvalidVertex) map_ab[a[v]] = b[v];
    if (map_ba[b[v]] == kInvalidVertex) map_ba[b[v]] = a[v];
    if (map_ab[a[v]] != b[v] || map_ba[b[v]] != a[v]) return false;
  }
  return true;
}

std::vector<VertexId> reference_labels(const EdgeList& g) {
  seq::UnionFind uf(g.num_vertices);
  for (const auto& e : g.edges) uf.unite(e.u, e.v);
  std::vector<VertexId> lbl(g.num_vertices);
  for (VertexId v = 0; v < g.num_vertices; ++v) lbl[v] = uf.find(v);
  return lbl;
}

/// Exact labels: each component is numbered by the rank of its minimum
/// vertex among all component minima.
std::vector<VertexId> min_id_labels(const EdgeList& g) {
  seq::UnionFind uf(g.num_vertices);
  for (const auto& e : g.edges) uf.unite(e.u, e.v);
  std::vector<VertexId> min_of(g.num_vertices, kInvalidVertex);
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    const VertexId r = uf.find(v);
    min_of[r] = std::min(min_of[r], v);
  }
  std::vector<VertexId> dense(g.num_vertices, kInvalidVertex);
  std::vector<VertexId> label(g.num_vertices);
  VertexId next = 0;
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    const VertexId m = min_of[uf.find(v)];
    if (dense[m] == kInvalidVertex) dense[m] = next++;
    label[v] = dense[m];
  }
  return label;
}

/// Deep forests over 2^16 vertices in shuffled vertex and edge order: a
/// path, a star, and a path plus a star plus isolated vertices.
std::vector<EdgeList> deep_forests() {
  constexpr VertexId kN = VertexId{1} << 16;
  const std::vector<std::uint32_t> perm = random_permutation(kN, 17);
  Rng rng(23);
  std::vector<EdgeList> out(3, EdgeList(kN));
  EdgeList& path = out[0];
  for (VertexId i = 1; i < kN; ++i) path.add_edge(perm[i - 1], perm[i], 1.0);
  EdgeList& star = out[1];
  const VertexId hub = perm[kN / 2];
  for (VertexId v = 0; v < kN; ++v) {
    if (v != hub) star.add_edge(v, hub, 1.0);
  }
  EdgeList& mixed = out[2];
  for (VertexId i = 1; i < kN / 3; ++i) mixed.add_edge(perm[i - 1], perm[i], 1.0);
  for (VertexId i = kN / 3 + 1; i < 2 * (kN / 3); ++i) {
    mixed.add_edge(perm[kN / 3], perm[i], 1.0);
  }
  for (EdgeList& g : out) {
    for (std::size_t i = g.edges.size(); i > 1; --i) {
      std::swap(g.edges[i - 1], g.edges[rng.next_below(i)]);
    }
  }
  return out;
}

/// Parameterised by the size of the team handed to the `ThreadTeam&`
/// overload: whatever the team, it labels exactly as the plain pass does.
class CcThreads : public ::testing::TestWithParam<int> {};

TEST_P(CcThreads, MatchesUnionFindOnZoo) {
  std::vector<EdgeList> graphs = deep_forests();
  graphs.push_back(random_graph(5000, 3000, 1));   // fragmented
  graphs.push_back(random_graph(5000, 25000, 2));  // near-connected
  graphs.push_back(mesh2d_p(60, 60, 0.5, 3));
  graphs.push_back(structured_graph(0, 1024, 4));
  graphs.push_back(geometric_knn(2000, 4, 5));
  graphs.push_back(EdgeList(100));  // no edges at all
  ThreadTeam team(GetParam());
  for (const auto& g : graphs) {
    const auto cc = core::connected_components(g);
    ASSERT_EQ(cc.label.size(), g.num_vertices);
    EXPECT_EQ(cc.num_components, num_components(g));
    EXPECT_TRUE(same_partition(cc.label, reference_labels(g)));
    // Labels are dense in [0, num_components).
    for (const VertexId l : cc.label) ASSERT_LT(l, cc.num_components);
    EXPECT_EQ(cc.label, min_id_labels(g));
    EXPECT_EQ(core::connected_components(team, g).label, cc.label);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CcThreads, ::testing::Values(1, 2, 4, 8));

TEST(Cc, EmptyGraph) {
  const auto cc = core::connected_components(EdgeList(0));
  EXPECT_EQ(cc.num_components, 0u);
  EXPECT_TRUE(cc.label.empty());
}

TEST(Cc, SingleComponentChain) {
  EdgeList g(10000);
  for (VertexId v = 1; v < 10000; ++v) g.add_edge(v - 1, v, 1.0);
  const auto cc = core::connected_components(g);
  EXPECT_EQ(cc.num_components, 1u);
  for (const VertexId l : cc.label) ASSERT_EQ(l, 0u);
}

TEST(Cc, IsolatedVerticesEachOwnComponent) {
  const auto cc = core::connected_components(EdgeList(50));
  EXPECT_EQ(cc.num_components, 50u);
  std::vector<VertexId> sorted = cc.label;
  std::sort(sorted.begin(), sorted.end());
  for (VertexId v = 0; v < 50; ++v) EXPECT_EQ(sorted[v], v);
}

}  // namespace
