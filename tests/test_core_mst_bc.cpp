// MST-BC-specific behaviour: base-size sweep (Prim↔Borůvka spectrum),
// permutation seeds, instrumentation, and heavy-collision stress.
#include <gtest/gtest.h>

#include <vector>

#include "core/msf.hpp"
#include "graph/generators.hpp"
#include "seq/seq_msf.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

TEST(MstBC, BaseSizeSweepAllAgree) {
  const EdgeList g = random_graph(3000, 12000, 5);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  // base >= n: pure sequential Kruskal.  base = 1: full recursion.
  for (const VertexId base : {1u, 16u, 256u, 3000u, 100000u}) {
    for (const int threads : {1, 2, 7}) {
      core::MsfOptions opts;
      opts.algorithm = core::Algorithm::kMstBC;
      opts.threads = threads;
      opts.bc_base_size = base;
      const auto r = core::minimum_spanning_forest(g, opts);
      EXPECT_EQ(test::sorted_ids(r), ref) << "base=" << base << " t=" << threads;
    }
  }
}

TEST(MstBC, PermutationSeedsAllAgree) {
  const EdgeList g = mesh2d(50, 50, 6);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    core::MsfOptions opts;
    opts.algorithm = core::Algorithm::kMstBC;
    opts.threads = 4;
    opts.bc_base_size = 16;
    opts.seed = seed;
    const auto r = core::minimum_spanning_forest(g, opts);
    EXPECT_EQ(test::sorted_ids(r), ref) << "seed=" << seed;
  }
}

TEST(MstBC, SingleThreadBehavesLikePrimOneRound) {
  // With p=1 and a connected graph, the single Prim instance swallows the
  // whole component: after one round the graph is fully contracted.
  const EdgeList g = random_graph(500, 2000, 7);
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kMstBC;
  opts.threads = 1;
  opts.bc_base_size = 1;
  std::vector<core::IterationStat> stats;
  opts.iteration_stats = nullptr;
  const auto r = core::minimum_spanning_forest(g, opts);
  EXPECT_EQ(test::sorted_ids(r), test::sorted_ids(seq::prim_msf(g)));
  (void)stats;
}

TEST(MstBC, HighCollisionStress) {
  // Many threads on a tiny dense graph maximizes coloring collisions and
  // maturity events; repeat with different seeds.
  const EdgeList g = random_graph(64, 1200, 8);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    core::MsfOptions opts;
    opts.algorithm = core::Algorithm::kMstBC;
    opts.threads = 8;
    opts.bc_base_size = 1;  // minimum legal value: maximize the parallel phase
    opts.seed = seed;
    const auto r = core::minimum_spanning_forest(g, opts);
    ASSERT_EQ(test::sorted_ids(r), ref) << "seed=" << seed;
  }
}

TEST(MstBC, StructuredWorstCases) {
  // The paper motivates MST-BC with the str* inputs, which are Borůvka's
  // iteration-count worst cases.
  for (int variant = 0; variant < 4; ++variant) {
    const EdgeList g = structured_graph(variant, 4096, 9);
    const auto ref = test::sorted_ids(seq::kruskal_msf(g));
    for (const int threads : {1, 4}) {
      const auto r = test::run_alg(g, core::Algorithm::kMstBC, threads, 64);
      EXPECT_EQ(test::sorted_ids(r), ref) << "str" << variant << " t=" << threads;
    }
  }
}

TEST(MstBC, StepTimesAccumulate) {
  const EdgeList g = random_graph(2000, 8000, 10);
  core::StepTimes st;
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kMstBC;
  opts.threads = 2;
  opts.bc_base_size = 64;
  opts.step_times = &st;
  (void)core::minimum_spanning_forest(g, opts);
  EXPECT_GT(st.total(), 0.0);
  EXPECT_GE(st.find_min, 0.0);
  EXPECT_GE(st.connect, 0.0);
  EXPECT_GE(st.compact, 0.0);
}

TEST(MstBC, IterationStatsTraceEveryRound) {
  const VertexId n = VertexId{1} << 14;
  const EdgeList g = random_graph(n, EdgeId{4} * n, 13);
  for (const int threads : {1, 4}) {
    std::vector<core::IterationStat> iters;
    core::PhaseStats ps;
    core::MsfOptions opts;
    opts.algorithm = core::Algorithm::kMstBC;
    opts.threads = threads;
    opts.iteration_stats = &iters;
    opts.phase_stats = &ps;
    (void)core::minimum_spanning_forest(g, opts);
    ASSERT_FALSE(iters.empty()) << threads;
    EXPECT_EQ(iters.size(), ps.iterations) << threads;
    EXPECT_EQ(iters.front().vertices, n) << threads;
    EXPECT_EQ(iters.front().directed_edges, 2 * g.edges.size()) << threads;
    for (std::size_t i = 1; i < iters.size(); ++i) {
      EXPECT_LT(iters[i].vertices, iters[i - 1].vertices) << threads << " round " << i;
    }
    for (const core::IterationStat& is : iters) EXPECT_EQ(is.live_fraction, 1.0);
  }
}

TEST(MstBC, DisconnectedInput) {
  // Two random components plus isolated vertices.
  EdgeList g(5000);
  const EdgeList a = random_graph(2000, 6000, 11);
  const EdgeList b = random_graph(2000, 6000, 12);
  for (const auto& e : a.edges) g.add_edge(e.u, e.v, e.w);
  for (const auto& e : b.edges) g.add_edge(e.u + 2000, e.v + 2000, e.w);
  const auto ref = seq::kruskal_msf(g);
  for (const int threads : {1, 4}) {
    const auto r = test::run_alg(g, core::Algorithm::kMstBC, threads, 32);
    EXPECT_EQ(test::sorted_ids(r), test::sorted_ids(ref)) << threads;
    EXPECT_EQ(r.num_trees, ref.num_trees);
  }
}

}  // namespace
