// The shared find-min layer: packed ⟨weight-rank, arc⟩ keys, Bor-FAL's
// per-vertex cursors over rank-sorted slices, and the contention-aware
// local-best reduction.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/find_min.hpp"
#include "core/msf.hpp"
#include "graph/flex_adj_list.hpp"
#include "graph/generators.hpp"
#include "pprim/fault.hpp"
#include "pprim/thread_team.hpp"
#include "seq/seq_msf.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

MsfResult solve(const EdgeList& g, core::Algorithm alg, int threads) {
  core::MsfOptions opts;
  opts.algorithm = alg;
  opts.threads = threads;
  opts.bc_base_size = 32;
  return core::minimum_spanning_forest(g, opts);
}

EdgeList all_equal_weights(EdgeList g, Weight w) {
  for (auto& e : g.edges) e.w = w;
  return g;
}

EdgeList signed_zero_weights(EdgeList g) {
  // Alternate +0.0 / -0.0: equal as weights, different bit patterns — the
  // forest is then decided purely by the input-index tie-break, which the
  // packed path must reproduce (monotone_weight_bits normalizes -0.0).
  for (EdgeId i = 0; i < g.edges.size(); ++i) {
    g.edges[i].w = (i % 2 == 0) ? 0.0 : -0.0;
  }
  return g;
}

// ---------------------------------------------------------------------------
// Bit-identical forests: all five parallel algorithms against sequential
// Kruskal, across thread counts and graph families.

TEST(FindMin, BitIdenticalForestsAcrossThreads) {
  const EdgeList graphs[] = {
      structured_graph(0, 512, 7),
      rmat_graph(10, 5000, 42),
      random_graph(2000, 8000, 4),
      all_equal_weights(random_graph(1000, 4000, 9), 2.5),
      signed_zero_weights(random_graph(600, 2400, 11)),
  };
  for (std::size_t gi = 0; gi < std::size(graphs); ++gi) {
    const EdgeList& g = graphs[gi];
    const auto baseline = test::sorted_ids(seq::kruskal_msf(g));
    for (const auto alg : core::kParallelAlgorithms) {
      for (const int p : {1, 2, 4, 8}) {
        const auto ids = test::sorted_ids(solve(g, alg, p));
        EXPECT_EQ(ids, baseline)
            << core::to_string(alg) << " graph " << gi << " p=" << p;
      }
    }
  }
}

TEST(FindMin, TuningKnobsDoNotChangeTheForest) {
  // The team size picks the local-best branch: on a graph with at most
  // kFindMinLocalBestCutoff vertices, p = 4 merges per-thread slabs and
  // p = 2 publishes through the shared atomic write-min.
  constexpr VertexId kN = 3000;
  static_assert(kN <= kFindMinLocalBestCutoff);
  static_assert(2 < kFindMinLocalBestThreads && kFindMinLocalBestThreads <= 4);
  const EdgeList g = random_graph(kN, 12000, 21);
  const auto baseline = test::sorted_ids(seq::kruskal_msf(g));
  for (const auto alg : {core::Algorithm::kBorFAL, core::Algorithm::kBorEL}) {
    for (const int p : {2, 4}) {
      const auto ids = test::sorted_ids(solve(g, alg, p));
      EXPECT_EQ(ids, baseline) << core::to_string(alg) << " p=" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Pruning invariants

TEST(FindMin, LiveArcCountsMonotoneNonIncreasingAndPruningCounted) {
  const EdgeList g = random_graph(4000, 16000, 33);
  std::vector<core::IterationStat> stats;
  core::StepTimes st;
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kBorFAL;
  opts.threads = 4;
  opts.iteration_stats = &stats;
  opts.step_times = &st;
  const MsfResult r = core::minimum_spanning_forest(g, opts);
  ASSERT_GE(stats.size(), 2u);
  EXPECT_EQ(stats[0].directed_edges, 2 * g.num_edges());
  for (std::size_t i = 1; i < stats.size(); ++i) {
    EXPECT_LE(stats[i].directed_edges, stats[i - 1].directed_edges)
        << "iteration " << i;
  }
  // A random multigraph sheds most arcs in the first contractions.
  EXPECT_GT(st.pruned_arcs, 0u);
  // The final no-progress probe iteration retires every remaining arc (all
  // are intra-component by then), so across the whole solve pruning must
  // account for exactly all 2m arcs; the live count at the start of the
  // final iteration is what that probe still had to scan.
  EXPECT_EQ(st.pruned_arcs, 2 * g.num_edges());
  EXPECT_GE(stats.back().directed_edges,
            2 * g.num_edges() - st.pruned_arcs);
  // Liveness at selection time: a pruned MSF edge could never be selected,
  // so the forest matching Kruskal's proves every MSF edge was still live
  // when find-min picked it.
  EXPECT_EQ(test::sorted_ids(r), test::sorted_ids(seq::kruskal_msf(g)));
}

TEST(FindMin, ContractionNeverTouchesTheLiveArcSet) {
  // The cursors are keyed by ORIGINAL vertex and only find-min moves them:
  // contract() merges supervertices in the lookup table alone.  After each
  // contraction, first_live_arc from the old cursor lands on the slice's
  // lightest live arc, and every arc it stepped past is dead.
  const EdgeList g = random_graph(256, 1024, 17);
  ThreadTeam team(2);
  core::StepTimes st;
  const core::PackedSolveInput in = core::build_packed_input(team, g, st);
  const std::uint64_t* keys = in.keys.get();
  FlexAdjList fal(g.num_vertices);
  std::vector<EdgeId> cursor(in.offsets.begin(), in.offsets.end() - 1);
  const auto labels = fal.labels();
  for (int round = 0; fal.num_super() > 1; ++round) {
    SCOPED_TRACE(round);
    for (VertexId x = 0; x < g.num_vertices; ++x) {
      const VertexId s = labels[x];
      const EdgeId end = in.offsets[x + 1];
      const EdgeId c = core::first_live_arc(keys, cursor[x], end, labels, s);
      std::uint64_t lightest = core::kEmptyKey;
      for (EdgeId a = in.offsets[x]; a < end; ++a) {
        const bool live = labels[core::key_index(keys[a])] != s;
        if (a < c) {
          ASSERT_FALSE(live) << "live arc behind the cursor of " << x;
        } else if (live && keys[a] < lightest) {
          lightest = keys[a];
        }
      }
      EXPECT_EQ(c == end ? core::kEmptyKey : keys[c], lightest) << "vertex " << x;
      cursor[x] = c;
    }
    // Merge pairs: new_label[s] = s / 2.  The cursors are untouched.
    const std::vector<EdgeId> before = cursor;
    std::vector<VertexId> new_label(fal.num_super());
    for (VertexId s = 0; s < fal.num_super(); ++s) new_label[s] = s / 2;
    fal.contract(team, new_label, (fal.num_super() + 1) / 2);
    EXPECT_EQ(cursor, before);
  }
}

TEST(FindMin, PruneFaultLeavesTeamReusable) {
  const EdgeList g = random_graph(1000, 4000, 3);
  const auto expected = test::sorted_ids(seq::kruskal_msf(g));
  ThreadTeam team(4);
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kBorFAL;
  FaultInjector::arm("bor-fal.find-min.prune", FaultKind::kRuntimeError);
  EXPECT_THROW((void)core::minimum_spanning_forest(team, g, opts),
               std::runtime_error);
  EXPECT_EQ(FaultInjector::hits("bor-fal.find-min.prune"), 1u);
  FaultInjector::disarm_all();
  // The poisoned barrier released every sibling; the same team must solve
  // correctly afterwards.
  const MsfResult r = core::minimum_spanning_forest(team, g, opts);
  EXPECT_EQ(test::sorted_ids(r), expected);
}

// ---------------------------------------------------------------------------
// Packed-key building blocks

TEST(FindMin, MonotoneWeightBitsPreservesOrder) {
  const double samples[] = {-1e300, -2.5, -1.0, -1e-300, -0.0, 0.0,
                            1e-300, 0.5,  1.0,  2.5,     1e300};
  for (std::size_t i = 0; i < std::size(samples); ++i) {
    for (std::size_t j = 0; j < std::size(samples); ++j) {
      const auto bi = core::monotone_weight_bits(samples[i]);
      const auto bj = core::monotone_weight_bits(samples[j]);
      if (samples[i] < samples[j]) {
        EXPECT_LT(bi, bj) << samples[i] << " vs " << samples[j];
      } else if (samples[i] > samples[j]) {
        EXPECT_GT(bi, bj) << samples[i] << " vs " << samples[j];
      } else {
        // Covers -0.0 == +0.0: identical bits, so the stable rank sort
        // falls back to the input-index tie-break.
        EXPECT_EQ(bi, bj) << samples[i] << " vs " << samples[j];
      }
    }
  }
}

TEST(FindMin, PackKeyRoundTrips) {
  const std::uint32_t ranks[] = {0u, 1u, 0x7fffffffu, 0xffffffffu};
  const std::uint64_t arcs[] = {0u, 1u, 0xfffffffeu, 0xffffffffu};
  for (const auto r : ranks) {
    for (const auto a : arcs) {
      const std::uint64_t k = core::pack_key(r, a);
      EXPECT_EQ(core::key_rank(k), r);
      EXPECT_EQ(core::key_index(k), a);
    }
  }
  EXPECT_TRUE(core::find_min_packable(std::size_t{1} << 31));
  EXPECT_FALSE(core::find_min_packable((std::size_t{1} << 31) + 1));
}

TEST(FindMin, EdgeBoundRejectsOnlyThePackedAlgorithms) {
  // Checked on the edge count alone, so no 2^31-edge graph is allocated.
  constexpr std::size_t kBound = std::size_t{1} << 31;
  int bounded = 0;
  for (const core::AlgorithmName& row : core::kAlgorithmNames) {
    SCOPED_TRACE(row.name);
    EXPECT_NO_THROW(core::validate_edge_count(row.alg, kBound));
    const bool packed = row.alg == core::Algorithm::kBorEL ||
                        row.alg == core::Algorithm::kBorFAL ||
                        row.alg == core::Algorithm::kChampion;
    if (!packed) {
      EXPECT_NO_THROW(core::validate_edge_count(row.alg, kBound + 1));
      continue;
    }
    ++bounded;
    try {
      core::validate_edge_count(row.alg, kBound + 1);
      ADD_FAILURE() << "m = 2^31 + 1 accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
      const std::string msg = e.what();
      EXPECT_NE(msg.find("2^31"), std::string::npos) << msg;
      EXPECT_NE(msg.find(core::to_string(row.alg)), std::string::npos) << msg;
      EXPECT_NE(msg.find("Bor-AL, Bor-ALM, MST-BC and the sequential baselines"),
                std::string::npos)
          << msg;
    }
  }
  EXPECT_EQ(std::size(core::kAlgorithmNames), 9u);
  EXPECT_EQ(bounded, 3);
}

TEST(FindMin, WeightRanksAgreeWithWeightOrder) {
  // Heavy weight duplication so the rank sort's stability (the input-index
  // tie-break) actually decides most of the order.
  EdgeList g = random_graph(500, 3000, 8);
  std::mt19937_64 rng(99);
  for (auto& e : g.edges) e.w = static_cast<Weight>(rng() % 7);
  ThreadTeam team(4);
  const auto rank = core::build_weight_ranks(team, g);
  ASSERT_EQ(rank.size(), g.edges.size());
  std::vector<bool> seen(rank.size(), false);
  for (const auto r : rank) {
    ASSERT_LT(r, rank.size());
    EXPECT_FALSE(seen[r]) << "ranks must be a permutation";
    seen[r] = true;
  }
  for (EdgeId i = 0; i < g.edges.size(); ++i) {
    for (EdgeId j = i + 1; j < std::min<EdgeId>(g.edges.size(), i + 40); ++j) {
      const WeightOrder oi{g.edges[i].w, i};
      const WeightOrder oj{g.edges[j].w, j};
      EXPECT_EQ(oi < oj, rank[i] < rank[j]) << i << " vs " << j;
    }
  }
}

}  // namespace
