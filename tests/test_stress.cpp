// Differential stress: randomized graph parameters × every MSF algorithm ×
// random thread counts, seeds parameterized so failures name the case.
#include <gtest/gtest.h>

#include "core/msf.hpp"
#include "core/verify_msf.hpp"
#include "graph/generators.hpp"
#include "pprim/rng.hpp"
#include "seq/seq_msf.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

EdgeList random_instance(Rng& rng) {
  switch (rng.next_below(7)) {
    case 0: {
      const auto n = static_cast<VertexId>(50 + rng.next_below(3000));
      const auto maxm = static_cast<EdgeId>(n) * (n - 1) / 2;
      const auto m = 1 + rng.next_below(std::min<EdgeId>(maxm, 6 * n));
      return random_graph(n, m, rng.next());
    }
    case 1: {
      const auto r = static_cast<VertexId>(3 + rng.next_below(60));
      const auto c = static_cast<VertexId>(3 + rng.next_below(60));
      return mesh2d_p(r, c, 0.3 + 0.7 * rng.next_double(), rng.next());
    }
    case 2: {
      const auto s = static_cast<VertexId>(3 + rng.next_below(12));
      return mesh3d_p(s, s, s, 0.2 + 0.8 * rng.next_double(), rng.next());
    }
    case 3: {
      const auto n = static_cast<VertexId>(20 + rng.next_below(2000));
      const int k = 2 + static_cast<int>(rng.next_below(8));
      return geometric_knn(n, k, rng.next());
    }
    case 4:
      return structured_graph(static_cast<int>(rng.next_below(4)),
                              static_cast<VertexId>(2 + rng.next_below(3000)),
                              rng.next());
    case 5: {
      const int scale = 6 + static_cast<int>(rng.next_below(6));
      const auto n = EdgeId{1} << scale;
      return rmat_graph(scale, 1 + rng.next_below(4 * n), rng.next());
    }
    default: {  // multigraph with duplicate weights
      const auto n = static_cast<VertexId>(2 + rng.next_below(200));
      EdgeList g(n);
      const auto m = 1 + rng.next_below(1000);
      for (EdgeId i = 0; i < m; ++i) {
        const auto u = static_cast<VertexId>(rng.next_below(n));
        auto v = static_cast<VertexId>(rng.next_below(n));
        if (u == v) v = (v + 1) % n;
        if (n < 2) break;
        g.add_edge(u, v, static_cast<double>(rng.next_below(8)));  // heavy ties
      }
      return g;
    }
  }
}

class StressSeeds : public ::testing::TestWithParam<int> {};

TEST_P(StressSeeds, AllAlgorithmsMatchOnRandomInstances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int round = 0; round < 6; ++round) {
    const EdgeList g = random_instance(rng);
    if (g.num_vertices < 2) continue;
    const auto ref = seq::kruskal_msf(g);
    const auto ref_ids = test::sorted_ids(ref);
    // Fast full verification of the reference itself.
    std::string err;
    ASSERT_TRUE(core::verify_msf(g, ref, &err))
        << err << " (n=" << g.num_vertices << " m=" << g.num_edges() << ")";

    const int threads = 1 + static_cast<int>(rng.next_below(8));
    for (const auto alg : core::kParallelAlgorithms) {
      ASSERT_EQ(test::sorted_ids(test::run_alg(g, alg, threads)), ref_ids)
          << core::to_string(alg) << " n=" << g.num_vertices
          << " m=" << g.num_edges() << " t=" << threads << " round=" << round;
    }
    ASSERT_EQ(test::sorted_ids(
                  test::run_alg(g, core::Algorithm::kChampion, threads)),
              ref_ids)
        << "Champion n=" << g.num_vertices << " m=" << g.num_edges()
        << " t=" << threads << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, StressSeeds, ::testing::Range(0, 12));

}  // namespace
