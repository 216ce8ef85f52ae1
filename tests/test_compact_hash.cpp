// Compact-graph on adversarial multigraphs, the compact scratch's release
// policy, Bor-FAL's live-fraction statistics, and the champion default.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "core/detail.hpp"
#include "core/msf.hpp"
#include "graph/generators.hpp"
#include "pprim/thread_team.hpp"
#include "seq/seq_msf.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

// ---------------------------------------------------------------------------
// Adversarial multigraph builders.  EdgeList permits parallel edges (only
// self-loops are rejected), which is exactly what compact-graph's dedup must
// chew through: few distinct ⟨u, v⟩ pairs, many arcs per pair.

/// Every edge connects the same two vertices: the whole graph is ONE
/// ⟨u, v⟩ group until the first contraction.
EdgeList all_parallel_graph(int copies, std::uint64_t seed) {
  EdgeList g(4);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> w(0.0, 1.0);
  for (int i = 0; i < copies; ++i) g.add_edge(0, 1, w(rng));
  g.add_edge(1, 2, w(rng));
  g.add_edge(2, 3, w(rng));
  return g;
}

/// Every weight identical: winners are decided purely by the WeightOrder
/// orig-index tiebreak, so any encounter-order dependence shows up as a
/// forest mismatch.
EdgeList equal_weight_graph(VertexId n, int m, std::uint64_t seed) {
  EdgeList g(n);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<VertexId> v(0, n - 1);
  for (int i = 0; i < m;) {
    const VertexId a = v(rng), b = v(rng);
    if (a == b) continue;
    g.add_edge(a, b, 1.0);
    ++i;
  }
  return g;
}

/// >90% duplicate pairs: m edges drawn from a pool of distinct pairs that is
/// less than a tenth of m, so nearly every arc is a parallel copy.
EdgeList mostly_duplicate_graph(VertexId n, int pairs, int m,
                                std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<VertexId> v(0, n - 1);
  std::vector<std::pair<VertexId, VertexId>> pool;
  while (static_cast<int>(pool.size()) < pairs) {
    const VertexId a = v(rng), b = v(rng);
    if (a != b) pool.emplace_back(a, b);
  }
  EdgeList g(n);
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  std::uniform_real_distribution<double> w(0.0, 1.0);
  for (int i = 0; i < m; ++i) {
    const auto [a, b] = pool[pick(rng)];
    g.add_edge(a, b, w(rng));
  }
  return g;
}

// ---------------------------------------------------------------------------
// CompactHash: every engine on multigraphs that stress compact-graph.

TEST(CompactHash, AdversarialMultigraphsMatchKruskal) {
  const struct {
    const char* name;
    EdgeList g;
  } cases[] = {
      {"all-parallel", all_parallel_graph(20000, 505)},
      {"equal-weights", equal_weight_graph(400, 24000, 506)},
      {"mostly-duplicate", mostly_duplicate_graph(400, 800, 25000, 507)},
  };
  for (const auto& c : cases) {
    const auto ref = test::sorted_ids(seq::kruskal_msf(c.g));
    std::vector<core::Algorithm> algs(std::begin(core::kParallelAlgorithms),
                                      std::end(core::kParallelAlgorithms));
    algs.push_back(core::Algorithm::kChampion);
    for (const auto alg : algs) {
      for (const int p : {1, 4}) {
        EXPECT_EQ(test::sorted_ids(test::run_alg(c.g, alg, p)), ref)
            << c.name << " " << core::to_string(alg) << " p=" << p;
      }
    }
  }
}

TEST(CompactHash, BitIdenticalAcrossThreadCounts) {
  const EdgeList graphs[] = {
      mostly_duplicate_graph(600, 1200, 40000, 608),
      mesh2d(40, 40, 609),
  };
  for (const auto& g : graphs) {
    for (const auto alg :
         {core::Algorithm::kBorEL, core::Algorithm::kChampion}) {
      std::vector<EdgeId> first;
      double first_weight = 0.0;
      for (const int p : {1, 2, 4, 8}) {
        core::MsfOptions opts;
        opts.algorithm = alg;
        opts.threads = p;
        const auto r = core::minimum_spanning_forest(g, opts);
        if (p == 1) {
          first = test::sorted_ids(r);
          first_weight = r.total_weight;
        } else {
          EXPECT_EQ(test::sorted_ids(r), first)
              << core::to_string(alg) << " p=" << p;
          EXPECT_WEIGHT_EQ(r.total_weight, first_weight);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DeferredCompact: per-iteration statistics and compact scratch release.

TEST(DeferredCompact, StatsExposeStrategyAndLiveFraction) {
  // The champion default runs Bor-FAL, whose pruned live-arc prefixes are
  // observable as a live fraction in [0, 1] per iteration.
  const EdgeList g = random_graph(8000, 32000, 914);
  std::vector<core::IterationStat> champ_stats;
  core::MsfOptions champ;
  champ.threads = 4;
  champ.iteration_stats = &champ_stats;
  (void)core::minimum_spanning_forest(g, champ);
  ASSERT_FALSE(champ_stats.empty());
  for (const auto& s : champ_stats) {
    EXPECT_GE(s.live_fraction, 0.0);
    EXPECT_LE(s.live_fraction, 1.0);
  }
}

TEST(DeferredCompact, CompactScratchReleaseIsObservable) {
  // Build a peak-sized compact, then show maybe_release() returns the slabs
  // once the working set collapses — and retains them while it does not.
  const EdgeList g = mostly_duplicate_graph(600, 1200, 60000, 915);
  std::vector<core::DirEdge> arcs;
  for (EdgeId i = 0; i < g.edges.size(); ++i) {
    const auto& e = g.edges[i];
    arcs.push_back({e.u, e.v, e.w, i});
    arcs.push_back({e.v, e.u, e.w, i});
  }
  std::vector<VertexId> labels(g.num_vertices);
  std::iota(labels.begin(), labels.end(), VertexId{0});
  ThreadTeam team(4);
  core::detail::CompactScratch scratch;
  auto work = arcs;
  team.run([&](TeamCtx& ctx) {
    core::detail::compact_arcs_in_region(ctx, work, labels, scratch);
  });
  const std::size_t peak = scratch.footprint_bytes();
  ASSERT_GT(peak, 0u);
  // A same-scale compact keeps the slabs (grow-only plateau)…
  scratch.maybe_release(arcs.size());
  EXPECT_EQ(scratch.footprint_bytes(), peak);
  // …but once the arc count collapses below capacity / kShrinkDivisor the
  // buffers go back to the allocator, observably.
  scratch.maybe_release(64);
  EXPECT_EQ(scratch.footprint_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Champion: the library default, run by the Bor-FAL engine.

TEST(Champion, IsTheDefaultAlgorithm) {
  EXPECT_EQ(core::MsfOptions{}.algorithm, core::Algorithm::kChampion);
  const EdgeList g = random_graph(2000, 8000, 110);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  EXPECT_EQ(test::sorted_ids(core::minimum_spanning_forest(g, {})), ref);
}

TEST(Champion, MatchesPaperVariantsAcrossThreadCounts) {
  const EdgeList graphs[] = {
      random_graph(4000, 16000, 111),
      mesh2d_p(45, 45, 0.6, 112),
      equal_weight_graph(500, 20000, 113),
  };
  for (const auto& g : graphs) {
    const auto ref = test::sorted_ids(seq::kruskal_msf(g));
    for (const int p : {1, 2, 4, 8}) {
      const auto champ = test::run_alg(g, core::Algorithm::kChampion, p);
      const auto fal = test::run_alg(g, core::Algorithm::kBorFAL, p);
      EXPECT_EQ(test::sorted_ids(champ), ref) << "p=" << p;
      EXPECT_EQ(test::sorted_ids(fal), test::sorted_ids(champ)) << "p=" << p;
      EXPECT_WEIGHT_EQ(champ.total_weight, fal.total_weight);
    }
  }
}

}  // namespace
