// The packed solve's prologue and epilogue on the caller's team: the weight
// rank sort, the packed input build (both overloads), result assembly, and
// request validation — each byte-identical to a plain sequential reference
// at every team size.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/detail.hpp"
#include "core/error.hpp"
#include "core/find_min.hpp"
#include "core/msf.hpp"
#include "core/weight_sort.hpp"
#include "graph/compressed_csr.hpp"
#include "graph/generators.hpp"
#include "pprim/partition.hpp"
#include "pprim/thread_team.hpp"
#include "seq/seq_msf.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

constexpr int kTeamSizes[] = {1, 2, 3, 4};

// ---------------------------------------------------------------------------
// Weight ranks

/// Inverse of core::monotone_weight_bits (for keys of finite doubles).
Weight weight_of_key(std::uint64_t key) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return std::bit_cast<Weight>((key & kSign) != 0 ? key & ~kSign : ~key);
}

/// m weights laid out in sorted order as runs of kRun keys that share their
/// top 40 bits, then shuffled into input positions.  Every run that holds a
/// thread-block boundary of a 2-, 3- or 4-thread team (in sorted position)
/// is mixed — distinct low 24 bits, with duplicates among them — so the
/// packed sort's fix-up runs straddle those boundaries.  The other runs
/// alternate between mixed and all-equal (heavy duplication).  The runs
/// cross zero: negative denormals below, ±0.0 in the run at key 2^63, and
/// positive denormals above, so all three radix digits vary.
std::vector<Weight> rank_test_weights(std::size_t m, std::uint64_t seed) {
  constexpr std::size_t kRun = 40;
  constexpr std::uint64_t kHiStep = std::uint64_t{1} << 24;
  std::set<std::size_t> boundary_runs;
  for (int p = 2; p <= 4; ++p) {
    for (int t = 1; t < p; ++t) {
      const std::size_t b = block_range(m, t, p).begin;
      EXPECT_NE(b % kRun, 0u) << "boundary " << b << " must fall inside a run";
      boundary_runs.insert(b / kRun);
    }
  }
  const std::size_t runs = (m + kRun - 1) / kRun;
  const std::uint64_t zero_key = std::uint64_t{1} << 63;
  const std::uint64_t first_hi = zero_key - (runs / 2) * kHiStep;
  std::mt19937_64 rng(seed);
  std::vector<Weight> sorted(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t run = i / kRun;
    const std::uint64_t hi = first_hi + run * kHiStep;
    const bool mixed =
        boundary_runs.count(run) != 0 || (run % 2 == 0 && hi != zero_key);
    if (hi == zero_key && !mixed) {
      sorted[i] = (rng() & 1) != 0 ? 0.0 : -0.0;
      continue;
    }
    const std::uint64_t lo = mixed ? (rng() % 12) * 1398101 % kHiStep : run % 7;
    sorted[i] = weight_of_key(hi | lo);
  }
  std::shuffle(sorted.begin(), sorted.end(), rng);
  return sorted;
}

/// std::sort reference: ⟨monotone weight bits, input index⟩ order.
void reference_ranks(const std::vector<Weight>& w, std::vector<std::uint32_t>& rank,
                     std::vector<std::uint32_t>& rank_to_edge) {
  const std::size_t m = w.size();
  rank_to_edge.resize(m);
  std::iota(rank_to_edge.begin(), rank_to_edge.end(), 0u);
  std::sort(rank_to_edge.begin(), rank_to_edge.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::uint64_t ka = core::monotone_weight_bits(w[a]);
              const std::uint64_t kb = core::monotone_weight_bits(w[b]);
              return ka != kb ? ka < kb : a < b;
            });
  rank.resize(m);
  for (std::size_t r = 0; r < m; ++r) rank[rank_to_edge[r]] = static_cast<std::uint32_t>(r);
}

TEST(WeightRanks, BothRadixPathsMatchSortReferenceAcrossTeams) {
  // Many buckets, with mixed runs of equal top weight bits.
  const std::size_t m = (std::size_t{1} << 17) + 13;
  const std::vector<Weight> w = rank_test_weights(m, 5);
  std::vector<std::uint32_t> want_rank, want_r2e;
  reference_ranks(w, want_rank, want_r2e);

  // The construction really produced mixed runs across the block
  // boundaries, and ±0.0 ties broken by index.
  std::size_t signed_zeros = 0;
  for (const Weight x : w) signed_zeros += x == 0 && std::signbit(x) ? 1 : 0;
  EXPECT_GT(signed_zeros, 0u);
  for (int p = 2; p <= 4; ++p) {
    for (int t = 1; t < p; ++t) {
      const std::size_t b = block_range(m, t, p).begin;
      const std::uint64_t kb = core::monotone_weight_bits(w[want_r2e[b]]);
      const std::uint64_t ka = core::monotone_weight_bits(w[want_r2e[b - 1]]);
      EXPECT_EQ(ka >> 24, kb >> 24) << "run must straddle boundary " << b;
    }
  }

  EdgeList g(2);
  for (const Weight x : w) g.edges.push_back(WEdge{0, 1, x});
  for (const int p : kTeamSizes) {
    ThreadTeam team(p);
    std::vector<std::uint32_t> r2e;
    EXPECT_EQ(core::build_weight_ranks(team, g, &r2e), want_rank) << "p=" << p;
    EXPECT_EQ(r2e, want_r2e) << "p=" << p;
    r2e.clear();
    EXPECT_EQ(core::build_weight_ranks(team, std::span<const Weight>(w), &r2e),
              want_rank)
        << "p=" << p;
    EXPECT_EQ(r2e, want_r2e) << "p=" << p;
  }
}

TEST(WeightRanks, AllEqualWeightsRankByIndex) {
  // One run spanning every thread block, unmixed: the index order stands.
  const std::vector<Weight> w(std::size_t{1} << 16, 2.5);
  for (const int p : kTeamSizes) {
    ThreadTeam team(p);
    std::vector<std::uint32_t> r2e;
    const auto rank = core::build_weight_ranks(team, std::span<const Weight>(w), &r2e);
    for (std::size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(rank[i], i) << "p=" << p;
      ASSERT_EQ(r2e[i], i) << "p=" << p;
    }
  }
}

/// Both build_weight_ranks overloads match reference_ranks at every team
/// size, rank and rank_to_edge alike.
void expect_reference_ranks(const std::vector<Weight>& w) {
  std::vector<std::uint32_t> want_rank, want_r2e;
  reference_ranks(w, want_rank, want_r2e);
  EdgeList g(2);
  for (const Weight x : w) g.edges.push_back(WEdge{0, 1, x});
  for (const int p : kTeamSizes) {
    SCOPED_TRACE(testing::Message() << "m=" << w.size() << " p=" << p);
    ThreadTeam team(p);
    std::vector<std::uint32_t> r2e;
    EXPECT_EQ(core::build_weight_ranks(team, g, &r2e), want_rank);
    EXPECT_EQ(r2e, want_r2e);
    r2e.clear();
    EXPECT_EQ(core::build_weight_ranks(team, std::span<const Weight>(w), &r2e),
              want_rank);
    EXPECT_EQ(r2e, want_r2e);
  }
}

TEST(WeightRanks, FiveWeightClassesRepeatSplittersAndLeaveEmptyBuckets) {
  const std::size_t m = (std::size_t{1} << 17) + 13;
  std::mt19937_64 rng(53);
  std::vector<Weight> w(m);
  for (Weight& x : w) x = 0.25 * static_cast<Weight>(rng() % 5);
  // Far more buckets than classes: the splitters repeat, so every bucket
  // between two copies of one splitter is empty.
  const core::WeightSplit split =
      core::pick_split(m, m, [&](EdgeId e) { return w[e]; });
  ASSERT_GT(split.buckets(), 5u);
  EXPECT_LT(std::set<std::uint64_t>(split.bound.begin() + 1, split.bound.end()).size(),
            split.buckets() - 1);
  expect_reference_ranks(w);
}

TEST(WeightRanks, OneBucketHoldsMostEdges) {
  // 90 % of the edges share one weight, so one bucket holds them all.
  const std::size_t m = std::size_t{1} << 17;
  std::mt19937_64 rng(59);
  std::uniform_real_distribution<Weight> uniform(-1.0, 1.0);
  std::vector<Weight> w(m);
  for (Weight& x : w) x = rng() % 10 == 0 ? uniform(rng) : 0.5;
  expect_reference_ranks(w);
}

TEST(WeightRanks, EmptySingleAndSubBucketInputs) {
  std::mt19937_64 rng(61);
  for (const std::size_t m : {std::size_t{0}, std::size_t{1}, std::size_t{4095}}) {
    std::vector<Weight> w(m);
    for (Weight& x : w) x = static_cast<Weight>(rng() % 1000) - 500.0;
    expect_reference_ranks(w);
  }
}

// ---------------------------------------------------------------------------
// Packed arcs

struct PackedArcs {
  std::vector<EdgeId> offsets;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> rank_to_edge;
  friend bool operator==(const PackedArcs&, const PackedArcs&) = default;
};

PackedArcs arcs_of(core::PackedSolveInput in) {
  PackedArcs out;
  out.offsets = std::move(in.offsets);
  out.keys.assign(in.keys.get(), in.keys.get() + out.offsets.back());
  out.rank_to_edge = std::move(in.rank_to_edge);
  return out;
}

/// The plain sequential reference: a stable counting sort by vertex of the
/// edges taken in rank order — degrees, offsets, then every edge's two arcs
/// in ascending rank.
PackedArcs reference_arcs(const EdgeList& g) {
  PackedArcs out;
  std::vector<std::uint32_t> rank;
  reference_ranks([&] {
    std::vector<Weight> w;
    for (const WEdge& e : g.edges) w.push_back(e.w);
    return w;
  }(), rank, out.rank_to_edge);
  out.offsets.assign(std::size_t{g.num_vertices} + 1, 0);
  for (const WEdge& e : g.edges) {
    ++out.offsets[e.u + 1];
    ++out.offsets[e.v + 1];
  }
  for (std::size_t i = 1; i < out.offsets.size(); ++i) {
    out.offsets[i] += out.offsets[i - 1];
  }
  out.keys.resize(out.offsets.back());
  std::vector<EdgeId> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (std::uint32_t r = 0; r < out.rank_to_edge.size(); ++r) {
    const WEdge& e = g.edges[out.rank_to_edge[r]];
    out.keys[cursor[e.u]++] = core::pack_key(r, e.v);
    out.keys[cursor[e.v]++] = core::pack_key(r, e.u);
  }
  return out;
}

PackedArcs team_arcs(ThreadTeam& team, const EdgeList& g) {
  core::StepTimes st;
  return arcs_of(core::build_packed_input(team, g, st));
}

/// The team-less build_packed_arcs from per-edge ranks (no rank_to_edge).
PackedArcs one_thread_arcs(const EdgeList& g) {
  ThreadTeam one(1);
  const std::vector<std::uint32_t> rank = core::build_weight_ranks(one, g);
  PackedArcs out;
  std::unique_ptr<std::uint64_t[]> keys;
  core::build_packed_arcs(g, g.num_vertices, rank, out.offsets, keys);
  out.keys.assign(keys.get(), keys.get() + out.offsets.back());
  return out;
}

EdgeList star_heavy_graph() {
  // Hub 0 carries two thirds of the 30000 edges — more than m/p for every
  // p >= 2 — so its arc run spans several threads' edge blocks.
  EdgeList g(1000);
  std::mt19937_64 rng(17);
  for (int i = 0; i < 30000; ++i) {
    const auto a = static_cast<VertexId>(1 + rng() % 999);
    auto b = static_cast<VertexId>(rng() % 1000);
    if (i % 3 != 2) b = 0;
    if (a == b) b = a == 1 ? 2 : 1;
    g.edges.push_back(WEdge{a, b, static_cast<Weight>(rng() % 100)});
  }
  return g;
}

EdgeList isolated_vertex_graph() {
  // Only every fifth vertex has edges; the rest (and a tail) are isolated.
  EdgeList g(25000);
  std::mt19937_64 rng(23);
  for (int i = 0; i < 20000; ++i) {
    const auto a = static_cast<VertexId>(5 * (rng() % 4000));
    const auto b = static_cast<VertexId>(5 * (rng() % 4000));
    if (a != b) g.edges.push_back(WEdge{a, b, static_cast<Weight>(rng() % 1000)});
  }
  return g;
}

TEST(PackedArcs, TeamBuildMatchesSequentialReference) {
  const EdgeList graphs[] = {random_graph(4096, 40000, 3), star_heavy_graph(),
                             isolated_vertex_graph()};
  for (const EdgeList& g : graphs) {
    const PackedArcs want = reference_arcs(g);
    for (const int p : kTeamSizes) {
      ThreadTeam team(p);
      EXPECT_TRUE(team_arcs(team, g) == want)
          << "n=" << g.num_vertices << " p=" << p;
    }
    // The team-less build from per-edge ranks emits the same slices.
    PackedArcs seq = one_thread_arcs(g);
    seq.rank_to_edge = want.rank_to_edge;
    EXPECT_TRUE(seq == want) << "n=" << g.num_vertices;
  }
}

TEST(PackedArcs, ManyMoreVerticesThanEdges) {
  // n ≫ m: the count slabs are capped at the 2m-key array, so the count
  // runs on one thread; the output must not change.
  EdgeList g(1'000'000);
  std::mt19937_64 rng(29);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<VertexId>(rng() % g.num_vertices);
    const auto b = static_cast<VertexId>((a + 1 + rng() % 1000) % g.num_vertices);
    g.edges.push_back(WEdge{a, b, static_cast<Weight>(rng() % 10)});
  }
  const PackedArcs want = reference_arcs(g);
  for (const int p : kTeamSizes) {
    ThreadTeam team(p);
    EXPECT_TRUE(team_arcs(team, g) == want) << "p=" << p;
  }
}

TEST(PackedArcs, EveryProloguePathEmitsAscendingSlicesAndOneInput) {
  // A 4-bucket and a 16-bucket input.  Each graph also goes
  // through Champion's flat-array overload.
  for (const std::size_t m : {std::size_t{20000}, std::size_t{1} << 16}) {
    const CompressedCsr cz =
        CompressedCsr::build(random_graph(static_cast<VertexId>(m / 8), m, 47));
    const EdgeList g = cz.decode_edge_list();
    const PackedArcs want = reference_arcs(g);
    for (VertexId x = 0; x < g.num_vertices; ++x) {
      for (EdgeId a = want.offsets[x] + 1; a < want.offsets[x + 1]; ++a) {
        ASSERT_LT(want.keys[a - 1], want.keys[a]) << "vertex " << x;
      }
    }
    std::vector<std::uint64_t> ends;
    std::vector<Weight> w;
    for (const WEdge& e : g.edges) {
      ends.push_back(core::pack_ends(e.u, e.v));
      w.push_back(e.w);
    }
    for (const int p : kTeamSizes) {
      SCOPED_TRACE(testing::Message() << "m=" << g.num_edges() << " p=" << p);
      ThreadTeam team(p);
      core::StepTimes st;
      EXPECT_TRUE(arcs_of(core::build_packed_input(team, g, st)) == want);
      EXPECT_TRUE(arcs_of(core::build_packed_input(team, g.num_vertices, ends,
                                                   w, st)) == want);
      EXPECT_GT(st.rank_build, 0.0);
      EXPECT_GT(st.arc_build, 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Result assembly

bool bit_identical(const MsfResult& a, const MsfResult& b) {
  return a.edge_ids == b.edge_ids && a.edges == b.edges &&
         std::bit_cast<std::uint64_t>(a.total_weight) ==
             std::bit_cast<std::uint64_t>(b.total_weight) &&
         a.num_trees == b.num_trees;
}

TEST(AssembleResult, BitIdenticalAcrossTeamsForShuffledIds) {
  EdgeList g = random_graph(20000, 60000, 37);
  g.num_vertices += 50;  // isolated vertices: extra trees
  std::vector<EdgeId> ids = seq::kruskal_msf(g).edge_ids;
  std::sort(ids.begin(), ids.end());
  // The contract: ascending ids, their edges, their exact weight sum.
  MsfResult want;
  want.edge_ids = ids;
  for (const EdgeId id : ids) want.edges.push_back(g.edges[id]);
  want.total_weight = exact_sum(want.edges, [](const WEdge& e) { return e.w; });
  want.num_trees = g.num_vertices - ids.size();
  std::mt19937_64 rng(41);
  for (const int p : kTeamSizes) {
    std::shuffle(ids.begin(), ids.end(), rng);
    ThreadTeam team(p);
    const MsfResult got = core::detail::assemble_result(team, g, ids);
    EXPECT_TRUE(bit_identical(got, want)) << "p=" << p;
  }
  ThreadTeam team(3);
  const MsfResult empty = core::detail::assemble_result(team, g, {});
  EXPECT_TRUE(empty.edges.empty());
  EXPECT_EQ(empty.num_trees, g.num_vertices);
}

// ---------------------------------------------------------------------------
// Request validation on the caller's team

TEST(ValidateOnTeam, MalformedGraphRejectedWithSameCodeAndMessage) {
  const EdgeList base = random_graph(5000, std::size_t{1} << 17, 43);
  const std::size_t m = base.edges.size();
  ThreadTeam team(4);
  for (const std::size_t at : {std::size_t{0}, m / 2 + 1, m - 1}) {
    for (const WEdge bad : {WEdge{7, 7, 1.0}, WEdge{3, 5000, 1.0}}) {
      EdgeList g = base;
      g.edges[at] = bad;
      std::string per_call;
      try {
        (void)core::minimum_spanning_forest(g, core::MsfOptions{});
        FAIL() << "per-call team accepted a malformed graph";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
        per_call = e.what();
      }
      try {
        (void)core::minimum_spanning_forest(team, g, core::MsfOptions{});
        FAIL() << "caller team accepted a malformed graph";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
        EXPECT_EQ(std::string(e.what()), per_call);
      }
    }
  }
  // A well-formed graph passes on the team and matches the per-call solve.
  const MsfResult a = core::minimum_spanning_forest(team, base, core::MsfOptions{});
  const MsfResult b = core::minimum_spanning_forest(base, core::MsfOptions{});
  EXPECT_TRUE(bit_identical(a, b));
}

}  // namespace
