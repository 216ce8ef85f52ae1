// StepTimes and IterationStat instrumentation of the Borůvka variants —
// the hooks behind Table 1 and Fig. 2.
#include <gtest/gtest.h>

#include <string>

#include "core/msf.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

TEST(IterationStats, VerticesAtLeastHalvePerIteration) {
  // Halving needs a connected input (finished components stop shrinking),
  // so use a mesh rather than a random graph with possible isolated
  // vertices.
  const EdgeList g = mesh2d(64, 64, 3);
  for (const auto alg :
       {core::Algorithm::kBorEL, core::Algorithm::kBorAL, core::Algorithm::kBorFAL}) {
    std::vector<core::IterationStat> stats;
    core::MsfOptions opts;
    opts.algorithm = alg;
    opts.threads = 2;
    opts.iteration_stats = &stats;
    (void)core::minimum_spanning_forest(g, opts);
    ASSERT_FALSE(stats.empty()) << core::to_string(alg);
    EXPECT_EQ(stats[0].vertices, 4096u);
    for (std::size_t i = 1; i < stats.size(); ++i) {
      EXPECT_LE(stats[i].vertices, stats[i - 1].vertices / 2)
          << core::to_string(alg) << " iteration " << i;
    }
    // log2(4096) halvings, plus Bor-FAL's final no-progress probe iteration.
    EXPECT_LE(stats.size(), 13u) << core::to_string(alg);
  }
}

TEST(IterationStats, EdgeListShrinksForELGrowsNeverForFAL) {
  const EdgeList g = random_graph(3000, 12000, 4);
  std::vector<core::IterationStat> el_stats, fal_stats;
  {
    // Bor-EL's compact-graph rebuilds the edge list every iteration.
    core::MsfOptions opts;
    opts.algorithm = core::Algorithm::kBorEL;
    opts.iteration_stats = &el_stats;
    (void)core::minimum_spanning_forest(g, opts);
  }
  {
    core::MsfOptions opts;
    opts.algorithm = core::Algorithm::kBorFAL;
    opts.iteration_stats = &fal_stats;
    (void)core::minimum_spanning_forest(g, opts);
  }
  ASSERT_GE(el_stats.size(), 2u);
  EXPECT_EQ(el_stats[0].directed_edges, 2 * g.num_edges());
  for (std::size_t i = 1; i < el_stats.size(); ++i) {
    EXPECT_LT(el_stats[i].directed_edges, el_stats[i - 1].directed_edges)
        << "eager Bor-EL compacts edges every iteration";
  }
  // Bor-FAL never physically removes edges; it reports its live-arc working
  // set (the arcs at or after its find-min cursors), which starts at 2m and
  // only shrinks.
  ASSERT_GE(fal_stats.size(), 2u);
  EXPECT_EQ(fal_stats[0].directed_edges, 2 * g.num_edges());
  for (std::size_t i = 1; i < fal_stats.size(); ++i) {
    EXPECT_LE(fal_stats[i].directed_edges, fal_stats[i - 1].directed_edges)
        << "live-arc working set is monotone non-increasing";
  }
}

TEST(IterationStats, Str0HalvesExactly) {
  // str0 is engineered so Borůvka's vertex count halves exactly (§5.1).
  const EdgeList g = structured_graph(0, 1024, 5);
  std::vector<core::IterationStat> stats;
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kBorAL;
  opts.iteration_stats = &stats;
  (void)core::minimum_spanning_forest(g, opts);
  ASSERT_EQ(stats.size(), 10u) << "log2(1024) iterations";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].vertices, 1024u >> i) << "iteration " << i;
  }
}

TEST(StepTimes, AllVariantsPopulate) {
  const EdgeList g = random_graph(3000, 9000, 6);
  for (const auto alg : core::kParallelAlgorithms) {
    core::StepTimes st;
    core::MsfOptions opts;
    opts.algorithm = alg;
    opts.threads = 2;
    opts.bc_base_size = 64;
    opts.step_times = &st;
    (void)core::minimum_spanning_forest(g, opts);
    EXPECT_GT(st.total(), 0.0) << core::to_string(alg);
  }
}

TEST(StepTimes, PrologueAndAssemblyArePartsOfOther) {
  // Large enough for a many-bucket weight sort.
  const EdgeList g = random_graph(20000, 60000, 8);
  for (const auto alg : {core::Algorithm::kBorFAL, core::Algorithm::kChampion}) {
    for (const int threads : {1, 3}) {
      core::StepTimes st;
      core::MsfOptions opts;
      opts.algorithm = alg;
      opts.threads = threads;
      opts.step_times = &st;
      (void)core::minimum_spanning_forest(g, opts);
      const std::string what =
          std::string(core::to_string(alg)) + " p=" + std::to_string(threads);
      EXPECT_GT(st.rank_build, 0.0) << what;
      EXPECT_GT(st.arc_build, 0.0) << what;
      EXPECT_GT(st.assembly, 0.0) << what;
      EXPECT_LE(st.rank_build + st.arc_build + st.assembly, st.other) << what;
      // The parts are inside `other`: total() still sums the four steps.
      EXPECT_DOUBLE_EQ(st.total(), st.find_min + st.connect + st.compact + st.other)
          << what;
    }
  }
}

TEST(StepTimes, AccumulateAcrossRuns) {
  const EdgeList g = random_graph(1000, 3000, 7);
  core::StepTimes st;
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kBorEL;
  opts.step_times = &st;
  (void)core::minimum_spanning_forest(g, opts);
  const double after_one = st.total();
  (void)core::minimum_spanning_forest(g, opts);
  EXPECT_GT(st.total(), after_one) << "step_times accumulates (+=)";
}

TEST(PhaseStats, FusedAlgorithmsRunOneRegionPerIteration) {
  // The tentpole property of the fused-iteration refactor: every Borůvka
  // iteration of the fig. 2 algorithms is exactly ONE persistent SPMD region
  // (find-min, connect, compact all inside), not one region per phase.
  const EdgeList g = random_graph(5000, 20000, 21);
  for (const auto alg : {core::Algorithm::kBorEL, core::Algorithm::kBorAL,
                         core::Algorithm::kBorALM, core::Algorithm::kBorFAL}) {
    core::PhaseStats ps;
    core::MsfOptions opts;
    opts.algorithm = alg;
    opts.threads = 4;
    opts.phase_stats = &ps;
    (void)core::minimum_spanning_forest(g, opts);
    ASSERT_GT(ps.iterations, 0u) << core::to_string(alg);
    EXPECT_EQ(ps.regions, ps.iterations) << core::to_string(alg);
    EXPECT_DOUBLE_EQ(ps.regions_per_iteration(), 1.0) << core::to_string(alg);
  }
}

TEST(PhaseStats, MstBcRoundsStayWithinRegionBudget) {
  // MST-BC keeps the Prim-growth step (and the optional permutation) as
  // separate regions; the contraction cascade is fused into one.  Bound the
  // per-round region count rather than pinning it exactly.
  const EdgeList g = random_graph(5000, 20000, 22);
  core::PhaseStats ps;
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kMstBC;
  opts.threads = 4;
  opts.bc_base_size = 32;
  opts.phase_stats = &ps;
  (void)core::minimum_spanning_forest(g, opts);
  ASSERT_GT(ps.iterations, 0u);
  EXPECT_LE(ps.regions_per_iteration(), 4.0);
}

TEST(AlgorithmNames, AllDistinct) {
  EXPECT_EQ(core::to_string(core::Algorithm::kBorEL), "Bor-EL");
  EXPECT_EQ(core::to_string(core::Algorithm::kBorAL), "Bor-AL");
  EXPECT_EQ(core::to_string(core::Algorithm::kBorALM), "Bor-ALM");
  EXPECT_EQ(core::to_string(core::Algorithm::kBorFAL), "Bor-FAL");
  EXPECT_EQ(core::to_string(core::Algorithm::kMstBC), "MST-BC");
  EXPECT_EQ(core::to_string(core::Algorithm::kSeqPrim), "Prim");
  EXPECT_EQ(core::to_string(core::Algorithm::kSeqKruskal), "Kruskal");
  EXPECT_EQ(core::to_string(core::Algorithm::kSeqBoruvka), "Boruvka");
}

TEST(AlgorithmNames, ParseCoversEveryAlgorithmOnce) {
  // Every front end parses --alg through kAlgorithmNames, so a missing row
  // is an algorithm no tool can select (the server once lacked champion).
  const core::Algorithm all[] = {
      core::Algorithm::kBorEL,        core::Algorithm::kBorAL,
      core::Algorithm::kBorALM,       core::Algorithm::kBorFAL,
      core::Algorithm::kMstBC,        core::Algorithm::kSeqPrim,
      core::Algorithm::kSeqKruskal,   core::Algorithm::kSeqBoruvka,
      core::Algorithm::kChampion};
  ASSERT_EQ(std::size(core::kAlgorithmNames), std::size(all));
  for (const core::Algorithm a : all) {
    int rows = 0;
    for (const core::AlgorithmName& row : core::kAlgorithmNames) {
      if (row.alg != a) continue;
      ++rows;
      EXPECT_EQ(core::parse_algorithm(row.name), a) << row.name;
    }
    EXPECT_EQ(rows, 1) << core::to_string(a);
  }
  EXPECT_EQ(core::parse_algorithm("champion"), core::Algorithm::kChampion);
  for (const char* removed : {"sample-filter", "par-kruskal", ""}) {
    try {
      (void)core::parse_algorithm(removed);
      ADD_FAILURE() << "accepted '" << removed << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
      EXPECT_NE(std::string(e.what()).find("(valid: champion bor-el"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Dispatcher, RoutesSequentialAlgorithms) {
  const EdgeList g = random_graph(300, 900, 8);
  const auto ref = test::sorted_ids(core::minimum_spanning_forest(
      g, {.algorithm = core::Algorithm::kSeqKruskal}));
  for (const auto alg :
       {core::Algorithm::kSeqPrim, core::Algorithm::kSeqBoruvka}) {
    core::MsfOptions opts;
    opts.algorithm = alg;
    EXPECT_EQ(test::sorted_ids(core::minimum_spanning_forest(g, opts)), ref);
  }
}

}  // namespace
