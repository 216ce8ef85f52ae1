// Properties of every graph generator family (§5.1 of the paper).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "graph/generators.hpp"
#include "graph/stats.hpp"

namespace {

using namespace smp::graph;

void expect_well_formed(const EdgeList& g) {
  for (const auto& e : g.edges) {
    ASSERT_LT(e.u, g.num_vertices);
    ASSERT_LT(e.v, g.num_vertices);
    ASSERT_NE(e.u, e.v);
  }
}

TEST(RandomGraph, ExactEdgeCountSimpleAndSeeded) {
  const EdgeList g = random_graph(1000, 5000, 3);
  EXPECT_EQ(g.num_vertices, 1000u);
  EXPECT_EQ(g.num_edges(), 5000u);
  expect_well_formed(g);
  EXPECT_TRUE(is_simple(g));

  const EdgeList g2 = random_graph(1000, 5000, 3);
  EXPECT_EQ(g.edges, g2.edges) << "same seed, same graph";
  const EdgeList g3 = random_graph(1000, 5000, 4);
  EXPECT_NE(g.edges, g3.edges);
}

TEST(RandomGraph, WeightsInUnitInterval) {
  const EdgeList g = random_graph(500, 2000, 8);
  for (const auto& e : g.edges) {
    EXPECT_GE(e.w, 0.0);
    EXPECT_LT(e.w, 1.0);
  }
}

TEST(RandomGraph, NearCompleteDensityStillExact) {
  // 50 vertices, 1225 possible edges; ask for 1200.
  const EdgeList g = random_graph(50, 1200, 5);
  EXPECT_EQ(g.num_edges(), 1200u);
  EXPECT_TRUE(is_simple(g));
}

// FNV-1a over every edge's u, v and weight bytes, in edge order.
std::uint64_t fnv1a(const EdgeList& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& e : g.edges) {
    mix(&e.u, sizeof e.u);
    mix(&e.v, sizeof e.v);
    mix(&e.w, sizeof e.w);
  }
  return h;
}

TEST(RandomGraph, ByteIdenticalToPinnedHashes) {
  // Pinned from the sort-everything top-up; the merge top-up must draw and
  // keep the very same edges.  64 vertices / 2000 of 2016 possible edges
  // takes many top-up rounds.
  struct Case {
    VertexId n;
    EdgeId m;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {4096, 40960, 1, 0xb3e91b2e211daf10ULL},
      {4096, 40960, 2, 0xb61d5b82112facb9ULL},
      {4096, 40960, 7919, 0x1bacb57b8057c10dULL},
      {64, 2000, 1, 0x2dd1d268471f312fULL},
      {64, 2000, 2, 0x3be951298714f1aeULL},
      {64, 2000, 7919, 0xc0917031638309b9ULL},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(fnv1a(random_graph(c.n, c.m, c.seed)), c.hash)
        << "n=" << c.n << " m=" << c.m << " seed=" << c.seed;
  }
}

TEST(RandomGraph, RejectsImpossibleRequests) {
  EXPECT_THROW(random_graph(10, 46, 1), std::invalid_argument);  // > n(n-1)/2
  EXPECT_THROW(random_graph(1, 1, 1), std::invalid_argument);
}

TEST(Mesh2D, StructureAndCounts) {
  const EdgeList g = mesh2d(10, 15, 2);
  EXPECT_EQ(g.num_vertices, 150u);
  // rows*(cols-1) horizontal + (rows-1)*cols vertical
  EXPECT_EQ(g.num_edges(), 10u * 14 + 9 * 15);
  expect_well_formed(g);
  EXPECT_TRUE(is_simple(g));
  EXPECT_EQ(num_components(g), 1u);
  const auto ds = degree_stats(g);
  EXPECT_EQ(ds.min_degree, 2u);  // corners
  EXPECT_EQ(ds.max_degree, 4u);  // interior
}

TEST(Mesh2D60, EdgeProbabilityRoughly60Percent) {
  const EdgeList g = mesh2d_p(200, 200, 0.6, 11);
  const double full = 200.0 * 199 * 2;
  const double frac = static_cast<double>(g.num_edges()) / full;
  EXPECT_NEAR(frac, 0.6, 0.02);
  expect_well_formed(g);
  EXPECT_TRUE(is_simple(g));
}

TEST(Mesh3D40, EdgeProbabilityRoughly40Percent) {
  const EdgeList g = mesh3d_p(30, 30, 30, 0.4, 12);
  EXPECT_EQ(g.num_vertices, 27000u);
  const double full = 3.0 * 29 * 30 * 30;
  EXPECT_NEAR(static_cast<double>(g.num_edges()) / full, 0.4, 0.02);
  expect_well_formed(g);
  EXPECT_TRUE(is_simple(g));
}

TEST(Mesh3D40, FullProbabilityIsRegularLattice) {
  const EdgeList g = mesh3d_p(5, 6, 7, 1.0, 1);
  EXPECT_EQ(g.num_vertices, 210u);
  EXPECT_EQ(g.num_edges(), 4u * 6 * 7 + 5 * 5 * 7 + 5 * 6 * 6);
  EXPECT_EQ(num_components(g), 1u);
}

TEST(GeometricKnn, DegreesAtLeastKAndConnectedish) {
  const int k = 6;
  const EdgeList g = geometric_knn(2000, k, 13);
  expect_well_formed(g);
  EXPECT_TRUE(is_simple(g));
  // After symmetrization each vertex keeps at least its k outgoing picks.
  const auto ds = degree_stats(g);
  EXPECT_GE(ds.min_degree, static_cast<std::size_t>(k));
  // Edge count between n*k/2 (fully mutual) and n*k (no mutual pairs).
  EXPECT_GE(g.num_edges(), 2000u * k / 2);
  EXPECT_LE(g.num_edges(), 2000u * k);
}

TEST(GeometricKnn, WeightsAreEuclideanDistances) {
  const EdgeList g = geometric_knn(500, 4, 14);
  for (const auto& e : g.edges) {
    EXPECT_GT(e.w, 0.0);
    EXPECT_LT(e.w, std::sqrt(2.0) + 1e-9);
  }
}

TEST(GeometricKnn, RejectsBadK) {
  EXPECT_THROW(geometric_knn(10, 0, 1), std::invalid_argument);
  EXPECT_THROW(geometric_knn(10, 10, 1), std::invalid_argument);
}

class StructuredGraphTest : public ::testing::TestWithParam<int> {};

TEST_P(StructuredGraphTest, IsATree) {
  const int variant = GetParam();
  for (const VertexId n : {1u, 2u, 3u, 10u, 64u, 100u, 1024u, 5000u}) {
    const EdgeList g = structured_graph(variant, n, 17);
    EXPECT_EQ(g.num_vertices, n);
    ASSERT_EQ(g.num_edges(), static_cast<EdgeId>(n) - (n > 0 ? 1 : 0))
        << "str" << variant << " n=" << n;
    expect_well_formed(g);
    EXPECT_TRUE(is_simple(g));
    EXPECT_EQ(num_components(g), n > 0 ? 1u : 0u) << "str" << variant << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, StructuredGraphTest, ::testing::Values(0, 1, 2, 3));

TEST(StructuredGraph, RejectsUnknownVariant) {
  EXPECT_THROW(structured_graph(4, 10, 1), std::invalid_argument);
  EXPECT_THROW(structured_graph(-1, 10, 1), std::invalid_argument);
}

TEST(StructuredGraph, Str0WeightBandsIncreaseByLevel) {
  // The first n/2 edges (level 0) must be lighter than all level-1 edges.
  const VertexId n = 64;
  const EdgeList g = structured_graph(0, n, 19);
  double max_lvl0 = 0, min_lvl1 = 1e300;
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    if (i < n / 2) {
      max_lvl0 = std::max(max_lvl0, g.edges[i].w);
    } else if (i < n / 2 + n / 4) {
      min_lvl1 = std::min(min_lvl1, g.edges[i].w);
    }
  }
  EXPECT_LT(max_lvl0, min_lvl1);
}

}  // namespace
