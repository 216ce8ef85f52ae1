// Champion's heavy-edge filter (core/champion.hpp): the forest must be the
// unique MSF, bit for bit, at every density, on either side of the light
// target's bend, on empty and tiny inputs, and however the pivot splits ties.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/champion.hpp"
#include "core/compressed_solve.hpp"
#include "core/error.hpp"
#include "core/msf.hpp"
#include "graph/compressed_csr.hpp"
#include "graph/generators.hpp"
#include "pprim/fault.hpp"
#include "pprim/rng.hpp"
#include "pprim/thread_team.hpp"
#include "seq/seq_msf.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

// Densities m/n on both sides of the light target's bend at m = 32n/15.
constexpr int kDensities[] = {1, 2, 4, 10, 64};

/// Kruskal's forest with its weight summed in ascending id order — the order
/// every Borůvka engine's assembly sums in (Kruskal itself sums in weight
/// order, which can round differently).
struct Reference {
  std::vector<EdgeId> ids;
  std::vector<WEdge> edges;  // parallel to ids
  std::uint64_t weight_bits = 0;
  std::size_t num_trees = 0;
};

Reference kruskal_reference(const EdgeList& g) {
  const MsfResult k = seq::kruskal_msf(g);
  Reference ref;
  ref.ids = test::sorted_ids(k);
  for (const EdgeId id : ref.ids) ref.edges.push_back(g.edges[id]);
  ref.weight_bits = std::bit_cast<std::uint64_t>(
      exact_sum(ref.edges, [](const WEdge& e) { return e.w; }));
  ref.num_trees = k.num_trees;
  return ref;
}

MsfResult solve(const EdgeList& g, core::Algorithm alg, int p) {
  core::MsfOptions opts;
  opts.algorithm = alg;
  opts.threads = p;
  return core::minimum_spanning_forest(g, opts);
}

/// Champion and Bor-FAL against Kruskal at p ∈ {1, 2, 4}: edge ids,
/// num_trees and the bits of total_weight.
void expect_identical(const EdgeList& g, const std::string& what) {
  const Reference ref = kruskal_reference(g);
  for (const int p : {1, 2, 4}) {
    const MsfResult champ = solve(g, core::Algorithm::kChampion, p);
    const MsfResult fal = solve(g, core::Algorithm::kBorFAL, p);
    const std::string at = what + " p=" + std::to_string(p);
    EXPECT_EQ(champ.edge_ids, ref.ids) << at;  // already ascending
    EXPECT_EQ(fal.edge_ids, champ.edge_ids) << at;
    EXPECT_EQ(champ.num_trees, ref.num_trees) << at;
    EXPECT_EQ(fal.num_trees, champ.num_trees) << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(champ.total_weight), ref.weight_bits) << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fal.total_weight), ref.weight_bits) << at;
    EXPECT_FALSE(champ.degraded_to_sequential) << at;
  }
}

/// n vertices, m distinct random pairs, weights from `weight(rng)`.
template <class WeightFn>
EdgeList reweighted(VertexId n, EdgeId m, std::uint64_t seed, WeightFn weight) {
  EdgeList g = random_graph(n, m, seed);
  Rng rng(seed ^ 0x5eedULL);
  for (WEdge& e : g.edges) e.w = weight(rng);
  return g;
}

/// `kParts` random components of `kPart` vertices each plus `kIsolated`
/// vertices no edge touches, all over one shuffled vertex set, with
/// m = d · n edges whose weights come from 8 values — so ties straddle the
/// pivot and ⟨w, id⟩ decides the light set and the scan order.
constexpr int kParts = 3;
constexpr VertexId kPart = 400;
constexpr VertexId kIsolated = 120;

EdgeList tied_components(int d, std::uint64_t seed) {
  const VertexId n = kParts * kPart + kIsolated;
  std::vector<VertexId> where(n);
  std::iota(where.begin(), where.end(), VertexId{0});
  Rng rng(seed);
  for (VertexId i = n - 1; i > 0; --i) {
    std::swap(where[i], where[static_cast<VertexId>(rng.next_below(i + 1))]);
  }
  EdgeList g(n);
  for (int c = 0; c < kParts; ++c) {
    const VertexId base = static_cast<VertexId>(c) * kPart;
    const EdgeList part = random_graph(
        kPart, static_cast<EdgeId>(d) * n / kParts, seed + static_cast<std::uint64_t>(c));
    for (const WEdge& e : part.edges) {
      g.add_edge(where[base + e.u], where[base + e.v],
                 static_cast<double>(rng.next_below(8)));
    }
  }
  return g;
}

/// `r` equals Kruskal's forest of `g` field by field: the ids ascending, the
/// edges at those ids, the bits of their exact weight sum, the trees.
void expect_kruskal_forest(const MsfResult& r, const Reference& ref,
                           const std::string& at) {
  EXPECT_EQ(r.edge_ids, ref.ids) << at;
  EXPECT_EQ(r.edges, ref.edges) << at;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.total_weight), ref.weight_bits) << at;
  EXPECT_EQ(r.num_trees, ref.num_trees) << at;
  EXPECT_FALSE(r.degraded_to_sequential) << at;
}

TEST(ChampionFilter, LightScanMatchesKruskalOnTiedComponents) {
  for (const int d : {6, 10, 64}) {
    const EdgeList g = tied_components(d, 960 + static_cast<std::uint64_t>(d));
    const Reference ref = kruskal_reference(g);
    ASSERT_GE(ref.num_trees, std::size_t{kParts + kIsolated});
    const CompressedCsr cz = CompressedCsr::build(g);
    const Reference cref = kruskal_reference(cz.decode_edge_list());
    for (const int p : {1, 2, 4}) {
      const std::string at = "m/n=" + std::to_string(d) + " p=" + std::to_string(p);
      core::MsfOptions opts;
      opts.threads = p;
      expect_kruskal_forest(core::minimum_spanning_forest(g, opts), ref, at);
      expect_kruskal_forest(core::minimum_spanning_forest_compressed(cz, opts),
                            cref, at + " compressed");
    }
  }
}

/// The least m at which the light target of n vertices reaches
/// kChampionLightPerVertex · n = 2n: ⌈32n/15⌉.
EdgeId light_target_bend(VertexId n) {
  return (EdgeId{32} * n + 14) / 15;
}

TEST(ChampionFilter, LightTargetBendsAt32nOver15) {
  const EdgeId bend = light_target_bend(1000);
  ASSERT_EQ(bend, 2134u);
  EXPECT_EQ(core::champion_light_target(1000, bend - 1), 15 * (bend - 1) / 16);
  EXPECT_EQ(core::champion_light_target(1000, bend - 1), 1999u);
  EXPECT_EQ(core::champion_light_target(1000, bend), 2000u);
  EXPECT_EQ(core::champion_light_target(1000, 10000), 2000u);
  EXPECT_EQ(core::champion_light_target(1000, 64000), 2000u);
  // Sparse and tiny inputs: ⌊15m/16⌋, below m whenever there is an edge.
  for (const std::size_t m : {1u, 15u, 16u, 17u, 500u, 1000u}) {
    EXPECT_EQ(core::champion_light_target(1000, m), 15 * m / 16) << m;
    EXPECT_LT(core::champion_light_target(1000, m), m) << m;
  }
  EXPECT_EQ(core::champion_light_target(0, 0), 0u);
  EXPECT_EQ(core::champion_light_target(1000, 0), 0u);
}

TEST(ChampionFilter, MatchesKruskalAndBorFalAcrossDensities) {
  for (const int d : kDensities) {
    const VertexId n = d >= 64 ? 600 : 3000;
    const EdgeList g = random_graph(n, static_cast<EdgeId>(d) * n, 900 + d);
    expect_identical(g, "m/n=" + std::to_string(d));
  }
}

TEST(ChampionFilter, BothSidesOfTheLightTargetBend) {
  const VertexId n = 2500;
  const EdgeId bend = light_target_bend(n);
  ASSERT_LT(core::champion_light_target(n, bend - 1), 2 * std::size_t{n});
  ASSERT_EQ(core::champion_light_target(n, bend), 2 * std::size_t{n});
  for (const EdgeId m : {bend - 2, bend - 1, bend, bend + 1}) {
    const EdgeList g = random_graph(n, m, 77 + m);
    expect_identical(g, "m=" + std::to_string(m));
  }
}

/// Champion on `g` against Kruskal at p ∈ {1, 2, 4}, over the edge list and
/// over its compressed CSR.
void expect_champion_matches_kruskal(const EdgeList& g, const std::string& what) {
  const Reference ref = kruskal_reference(g);
  const CompressedCsr cz = CompressedCsr::build(g);
  const Reference cref = kruskal_reference(cz.decode_edge_list());
  for (const int p : {1, 2, 4}) {
    const std::string at = what + " p=" + std::to_string(p);
    core::MsfOptions opts;
    opts.threads = p;
    expect_kruskal_forest(core::minimum_spanning_forest(g, opts), ref, at);
    expect_kruskal_forest(core::minimum_spanning_forest_compressed(cz, opts),
                          cref, at + " compressed");
  }
}

TEST(ChampionFilter, EmptyAndTinyInputsTakeTheSameStage) {
  expect_champion_matches_kruskal(EdgeList(0), "n=0");
  for (const EdgeId m : {0u, 1u, 15u, 16u, 17u}) {
    expect_champion_matches_kruskal(random_graph(40, m, 600 + m),
                                    "n=40 m=" + std::to_string(m));
  }
}

TEST(ChampionFilter, TreesAndForestsBelowOneEdgePerVertex) {
  for (int variant = 0; variant < 4; ++variant) {
    const EdgeList g =
        structured_graph(variant, 3000, 700 + static_cast<std::uint64_t>(variant));
    expect_champion_matches_kruskal(g, "str" + std::to_string(variant));
  }
  // m = n/2: most vertices are isolated or in small trees.
  expect_champion_matches_kruskal(random_graph(4000, 2000, 710), "m=n/2");
}

TEST(ChampionFilter, AllEqualWeights) {
  // One weight class: the pivot is decided by edge id alone.
  const EdgeList g = reweighted(1500, 30000, 31, [](Rng&) { return 0.5; });
  expect_identical(g, "all-equal");
}

TEST(ChampionFilter, SignedZeroWeights) {
  // -0.0 and +0.0 compare equal, so ids must break every one of their ties
  // whichever sign bit each copy carries.
  const EdgeList g = reweighted(1500, 20000, 32, [](Rng& r) {
    const std::uint64_t k = r.next_below(4);
    return k == 0 ? -0.0 : k == 1 ? 0.0 : static_cast<double>(k);
  });
  expect_identical(g, "signed-zero");
}

TEST(ChampionFilter, TiesStraddlingThePivot) {
  // Eight weight classes over 15n edges: the ~2n-th lightest edge lies deep
  // inside a tie class, so part of that class is light and part heavy.
  const EdgeList g = reweighted(2000, 30000, 33, [](Rng& r) {
    return static_cast<double>(r.next_below(8));
  });
  expect_identical(g, "straddling ties");
}

TEST(ChampionFilter, ManyLightComponentsAndIsolatedVertices) {
  // 60 dense clusters of 20 vertices with light internal edges, joined by
  // heavier cross edges, plus 1200 vertices no edge touches: the light pass
  // leaves many components, and the isolated vertices stay trees of their own.
  constexpr VertexId kClusters = 60;
  constexpr VertexId kSize = 20;
  const VertexId n = kClusters * kSize + 1200;
  EdgeList g(n);
  Rng rng(34);
  for (VertexId c = 0; c < kClusters; ++c) {
    for (VertexId a = 0; a < kSize; ++a) {
      for (VertexId b = a + 1; b < kSize; ++b) {
        g.add_edge(c * kSize + a, c * kSize + b, rng.next_double());
      }
    }
  }
  for (int i = 0; i < 3000; ++i) {
    const auto c1 = static_cast<VertexId>(rng.next_below(kClusters));
    const auto c2 = static_cast<VertexId>(rng.next_below(kClusters));
    if (c1 == c2) continue;
    g.add_edge(c1 * kSize + static_cast<VertexId>(rng.next_below(kSize)),
               c2 * kSize + static_cast<VertexId>(rng.next_below(kSize)),
               1.0 + rng.next_double());
  }
  expect_identical(g, "clusters");
  EXPECT_GE(solve(g, core::Algorithm::kChampion, 2).num_trees, 1200u);
}

TEST(ChampionFilter, CompressedMatchesUncompressed) {
  for (const int d : kDensities) {
    const VertexId n = d >= 64 ? 600 : 2000;
    const EdgeList g = random_graph(n, static_cast<EdgeId>(d) * n, 950 + d);
    const CompressedCsr cz = CompressedCsr::build(g);
    const EdgeList decoded = cz.decode_edge_list();
    for (const int p : {1, 2, 4}) {
      core::MsfOptions opts;
      opts.threads = p;
      const MsfResult rc = core::minimum_spanning_forest_compressed(cz, opts);
      const MsfResult ru = core::minimum_spanning_forest(decoded, opts);
      const std::string at = "m/n=" + std::to_string(d) + " p=" + std::to_string(p);
      EXPECT_EQ(rc.edge_ids, ru.edge_ids) << at;
      EXPECT_EQ(rc.edges, ru.edges) << at;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rc.total_weight),
                std::bit_cast<std::uint64_t>(ru.total_weight))
          << at;
      EXPECT_EQ(rc.num_trees, ru.num_trees) << at;
      EXPECT_EQ(test::sorted_ids(ru), kruskal_reference(decoded).ids) << at;
    }
  }
}

TEST(ChampionFilter, InstrumentationSplitsTheLightScanAndTheSurvivorPass) {
  const EdgeList g = random_graph(20000, 200000, 35);
  core::StepTimes st;
  core::PhaseStats ps;
  std::vector<core::IterationStat> iters;
  core::MsfOptions opts;
  opts.threads = 3;
  opts.step_times = &st;
  opts.phase_stats = &ps;
  opts.iteration_stats = &iters;
  (void)core::minimum_spanning_forest(g, opts);
  EXPECT_GT(st.filter, 0.0);
  EXPECT_GT(st.rank_build, 0.0);
  EXPECT_GT(st.arc_build, 0.0);
  EXPECT_GT(st.assembly, 0.0);
  EXPECT_LE(st.filter + st.rank_build + st.arc_build + st.assembly, st.other);
  // The light scan counts as connect.
  EXPECT_GT(st.connect, 0.0);
  // Only the survivor pass iterates, and it starts on the light components.
  ASSERT_FALSE(iters.empty());
  EXPECT_LT(iters.front().vertices, g.num_vertices);
  EXPECT_EQ(ps.iterations, iters.size());
  EXPECT_EQ(ps.regions_per_iteration(), 1.0);

  // A sparse graph takes the same stage: filter time, a light scan, and a
  // survivor pass that starts on the light components.
  const EdgeList sparse = random_graph(20000, 60000, 36);
  core::StepTimes sparse_st;
  iters.clear();
  opts.step_times = &sparse_st;
  opts.phase_stats = nullptr;
  (void)core::minimum_spanning_forest(sparse, opts);
  EXPECT_GT(sparse_st.filter, 0.0);
  EXPECT_GT(sparse_st.connect, 0.0);
  EXPECT_GT(sparse_st.rank_build, 0.0);
  ASSERT_FALSE(iters.empty());
  EXPECT_LT(iters.front().vertices, sparse.num_vertices);
}

/// Champion on `g` against Kruskal at every p in `ps`, over the edge list
/// and over its compressed CSR: ids, edges, the bits of total_weight and
/// num_trees.
void expect_matches_kruskal_at(const EdgeList& g, const std::string& what,
                               std::initializer_list<int> ps) {
  const Reference ref = kruskal_reference(g);
  const CompressedCsr cz = CompressedCsr::build(g);
  const Reference cref = kruskal_reference(cz.decode_edge_list());
  for (const int p : ps) {
    const std::string at = what + " p=" + std::to_string(p);
    core::MsfOptions opts;
    opts.threads = p;
    expect_kruskal_forest(core::minimum_spanning_forest(g, opts), ref, at);
    expect_kruskal_forest(core::minimum_spanning_forest_compressed(cz, opts),
                          cref, at + " compressed");
  }
}

// The light pass sorts the light edges in weight buckets of about 4096
// edges each, cut at splitters from the pivot sample.  These inputs put the
// light set in one bucket, most of it in one bucket, repeat splitters, and
// put the sign flip of the weight bits inside the light range.
constexpr VertexId kBucketed = VertexId{1} << 15;

TEST(ChampionFilter, LightSetSmallerThanOneBucket) {
  // 3000 light edges: one bucket, no splitter.
  const EdgeList g = random_graph(1500, 6000, 41);
  ASSERT_LT(core::champion_light_target(1500, 6000), 4096u);
  expect_matches_kruskal_at(g, "one bucket", {1, 2, 3, 4});
}

TEST(ChampionFilter, OneBucketHoldsMostLightEdges) {
  // 90 % of the weights equal the minimum: every splitter is that weight,
  // so its tie class and the light part of the rest share the top bucket.
  for (const int d : {2, 10}) {
    const EdgeList g =
        reweighted(kBucketed, static_cast<EdgeId>(d) * kBucketed, 42, [](Rng& r) {
          return r.next_below(10) < 9 ? 0.0 : r.next_double();
        });
    expect_matches_kruskal_at(g, "90% at the minimum m/n=" + std::to_string(d),
                              {1, 2, 3, 4});
  }
}

TEST(ChampionFilter, RepeatedSplittersLeaveEmptyBuckets) {
  // Three weight classes: the splitters repeat, and the buckets between two
  // copies of a splitter stay empty.
  for (const int d : {2, 10}) {
    const EdgeList g =
        reweighted(kBucketed, static_cast<EdgeId>(d) * kBucketed, 43, [](Rng& r) {
          return static_cast<double>(1 + r.next_below(3));
        });
    expect_matches_kruskal_at(g, "3 classes m/n=" + std::to_string(d), {1, 2, 3, 4});
  }
}

TEST(ChampionFilter, SignFlipInsideTheLightRange) {
  // Weights in [-0.1, 0.9) with a tenth ±0.0: the light fifth spans
  // negative, zero and positive weights, so the sign flip of the weight
  // bits falls between splitters, and both zeros share one bucket.
  const EdgeList g = reweighted(kBucketed, 10 * EdgeId{kBucketed}, 44, [](Rng& r) {
    const std::uint64_t k = r.next_below(20);
    return k == 0 ? -0.0 : k == 1 ? 0.0 : r.next_double() - 0.1;
  });
  expect_matches_kruskal_at(g, "signed", {1, 2, 3, 4});
}

TEST(ChampionFilter, WeightsOneUlpApartInAWideBucket) {
  // One bucket whose weights span 1e-300 to 1e6, so its sort key keeps
  // only the top bits and A and B, one ulp apart, share a key.  They join
  // the same two light components {0, 2} and {1, 3}, and the lighter, B,
  // has the larger id: only the full weight bits put it first.
  EdgeList g(100);
  g.add_edge(0, 1, std::nextafter(1.0, 2.0));  // A, id 0
  g.add_edge(2, 3, 1.0);                       // B, id 1
  g.add_edge(0, 2, 1e-300);
  g.add_edge(1, 3, 1e-300);
  for (VertexId v = 4; v + 1 < 100; ++v) g.add_edge(v, v + 1, 1e6 + v);
  expect_matches_kruskal_at(g, "one ulp", {1, 2, 3, 4});
}

TEST(ChampionFilter, LightSetFarAboveTheTarget) {
  // The pivot sample reads every tenth edge id, and only those edges are
  // heavy: the sample sees none of the light ones, so the light set is
  // 90 % of the edges against a 20 % target.  The walk's buffer, sized
  // from the target, fills, and later blocks keep their edges apart; the
  // sample's splitters all lie above those edges, so one bucket holds
  // them.
  const VertexId n = VertexId{1} << 14;
  EdgeList g = random_graph(n, 10 * EdgeId{n}, 48);
  Rng rng(49);
  for (EdgeId e = 0; e < g.edges.size(); ++e) {
    g.edges[e].w = e % 10 == 0 ? 1.0 + rng.next_double() : 0.5 * rng.next_double();
  }
  expect_matches_kruskal_at(g, "misread sample", {1, 2, 3, 4});
}

TEST(ChampionFilter, OversubscribedHelpers) {
  // Eight threads on fewer cores: helpers are descheduled while holding
  // claimed buckets, and the scan waits for them.
  const EdgeList uniform = random_graph(kBucketed, 10 * EdgeId{kBucketed}, 45);
  expect_matches_kruskal_at(uniform, "uniform", {8});
  const EdgeList tied = reweighted(kBucketed, 2 * EdgeId{kBucketed}, 46, [](Rng& r) {
    return static_cast<double>(r.next_below(3));
  });
  expect_matches_kruskal_at(tied, "3 classes", {8});
}

class ChampionFilterFault : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::disarm_all(); }
};

TEST_F(ChampionFilterFault, BadAllocUnwindsAndDegradesToKruskal) {
  const EdgeList g = random_graph(3000, 30000, 37);
  const Reference ref = kruskal_reference(g);
  ThreadTeam team(4);
  FaultInjector::arm("champion.filter", FaultKind::kBadAlloc);
  EXPECT_THROW((void)core::champion_msf(team, g), std::bad_alloc);
  EXPECT_EQ(FaultInjector::hits("champion.filter"), 1u);
  FaultInjector::disarm_all();
  // The same team solves cleanly afterwards.
  EXPECT_EQ(core::champion_msf(team, g).edge_ids, ref.ids);

  // Through the dispatcher the failure degrades, exactly as for Bor-FAL.
  FaultInjector::arm("champion.filter", FaultKind::kBadAlloc);
  core::MsfOptions opts;
  opts.threads = 4;
  const MsfResult r = core::minimum_spanning_forest(g, opts);
  EXPECT_TRUE(r.degraded_to_sequential);
  EXPECT_EQ(test::sorted_ids(r), ref.ids);
}

TEST_F(ChampionFilterFault, CompressedBadAllocDegradesToKruskal) {
  // The .smpz path degrades through the same fallback as the edge list
  // path: Kruskal on the decoded rows, or the same kOutOfMemory message
  // when the fallback is disabled.
  const CompressedCsr cz = CompressedCsr::build(random_graph(3000, 30000, 41));
  const EdgeList el = cz.decode_edge_list();
  const Reference ref = kruskal_reference(el);
  core::MsfOptions opts;
  opts.threads = 4;
  FaultInjector::arm("champion.filter", FaultKind::kBadAlloc);
  const MsfResult r = core::minimum_spanning_forest_compressed(cz, opts);
  EXPECT_EQ(FaultInjector::hits("champion.filter"), 1u);
  EXPECT_TRUE(r.degraded_to_sequential);
  EXPECT_EQ(test::sorted_ids(r), ref.ids);

  opts.allow_sequential_fallback = false;
  const auto out_of_memory = [&](auto&& solve) {
    FaultInjector::arm("champion.filter", FaultKind::kBadAlloc);
    try {
      (void)solve();
      ADD_FAILURE() << "no throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kOutOfMemory);
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string compressed = out_of_memory(
      [&] { return core::minimum_spanning_forest_compressed(cz, opts); });
  const std::string edge_list =
      out_of_memory([&] { return core::minimum_spanning_forest(el, opts); });
  EXPECT_FALSE(compressed.empty());
  EXPECT_EQ(compressed, edge_list);
}

TEST_F(ChampionFilterFault, LightScanBadAllocUnwindsAndDegradesToKruskal) {
  const EdgeList g = random_graph(3000, 30000, 39);
  const Reference ref = kruskal_reference(g);
  ThreadTeam team(4);
  FaultInjector::arm("champion.light-scan", FaultKind::kBadAlloc);
  EXPECT_THROW((void)core::champion_msf(team, g), std::bad_alloc);
  EXPECT_EQ(FaultInjector::hits("champion.light-scan"), 1u);
  FaultInjector::disarm_all();
  // The same team solves cleanly afterwards.
  EXPECT_EQ(core::champion_msf(team, g).edge_ids, ref.ids);

  // Through the dispatcher the failure degrades to Kruskal's forest.
  FaultInjector::arm("champion.light-scan", FaultKind::kBadAlloc);
  core::MsfOptions opts;
  opts.threads = 4;
  const MsfResult r = core::minimum_spanning_forest(g, opts);
  EXPECT_TRUE(r.degraded_to_sequential);
  EXPECT_EQ(test::sorted_ids(r), ref.ids);
}

TEST_F(ChampionFilterFault, LightScanFaultMidPipelineUnwindsAndDegrades) {
  // The scan hits its fault point at every 2^16-edge checkpoint.  Skip 1
  // fires at the second, 2^16 edges into the 2^18 light edges, while the
  // helpers still hold unsorted buckets.
  const VertexId n = VertexId{1} << 17;
  const EdgeList g = random_graph(n, 10 * EdgeId{n}, 47);
  const Reference ref = kruskal_reference(g);
  ThreadTeam team(4);
  FaultInjector::arm("champion.light-scan", FaultKind::kBadAlloc, 1);
  EXPECT_THROW((void)core::champion_msf(team, g), std::bad_alloc);
  EXPECT_EQ(FaultInjector::hits("champion.light-scan"), 2u);
  FaultInjector::disarm_all();
  // The same team runs a clean region, then a clean solve.
  std::atomic<int> ran{0};
  team.run([&](TeamCtx&) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(core::champion_msf(team, g).edge_ids, ref.ids);

  // Through the dispatcher the failure degrades to Kruskal's forest.
  FaultInjector::arm("champion.light-scan", FaultKind::kBadAlloc, 1);
  core::MsfOptions opts;
  opts.threads = 4;
  const MsfResult r = core::minimum_spanning_forest(g, opts);
  EXPECT_TRUE(r.degraded_to_sequential);
  EXPECT_EQ(test::sorted_ids(r), ref.ids);
}

TEST_F(ChampionFilterFault, DeadlineTripsInsideTheStage) {
  const EdgeList g = random_graph(3000, 30000, 38);
  ExecutionBudget budget;
  budget.set_deadline_after(0);
  core::MsfOptions opts;
  opts.budget = &budget;
  ThreadTeam team(4);
  try {
    (void)core::champion_msf(team, g, opts);
    FAIL() << "expected kDeadlineExceeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }
  std::atomic<int> ran{0};
  team.run([&](TeamCtx&) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

}  // namespace
