// The central property suite: every parallel algorithm × every generator
// family × several sizes/seeds × several thread counts must reproduce
// Kruskal's forest exactly (same input-edge-id set).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <random>
#include <string>
#include <tuple>

#include "dynamic/dynamic_msf.hpp"
#include "graph/generators.hpp"
#include "graph/validate.hpp"
#include "seq/seq_msf.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

enum class Family {
  kRandomSparse,
  kRandomDense,
  kUltraSparse,
  kMesh2D,
  kMesh2D60,
  kMesh3D40,
  kGeometric,
  kStr0,
  kStr1,
  kStr2,
  kStr3,
};

const char* family_name(Family f) {
  switch (f) {
    case Family::kRandomSparse: return "random-sparse";
    case Family::kRandomDense: return "random-dense";
    case Family::kUltraSparse: return "ultra-sparse";
    case Family::kMesh2D: return "mesh2d";
    case Family::kMesh2D60: return "mesh2d60";
    case Family::kMesh3D40: return "mesh3d40";
    case Family::kGeometric: return "geometric";
    case Family::kStr0: return "str0";
    case Family::kStr1: return "str1";
    case Family::kStr2: return "str2";
    case Family::kStr3: return "str3";
  }
  return "?";
}

EdgeList make_family(Family f, std::uint64_t seed) {
  switch (f) {
    case Family::kRandomSparse: return random_graph(2000, 6000, seed);
    case Family::kRandomDense: return random_graph(500, 20000, seed);
    case Family::kUltraSparse: return random_graph(3000, 1500, seed);  // disconnected
    case Family::kMesh2D: return mesh2d(45, 45, seed);
    case Family::kMesh2D60: return mesh2d_p(45, 45, 0.6, seed);
    case Family::kMesh3D40: return mesh3d_p(13, 13, 13, 0.4, seed);
    case Family::kGeometric: return geometric_knn(2000, 6, seed);
    case Family::kStr0: return structured_graph(0, 2048, seed);
    case Family::kStr1: return structured_graph(1, 2000, seed);
    case Family::kStr2: return structured_graph(2, 2000, seed);
    case Family::kStr3: return structured_graph(3, 2000, seed);
  }
  return EdgeList(0);
}

using Param = std::tuple<core::Algorithm, Family, int /*threads*/>;

// Readable test names (kept out of the macro: commas in structured bindings
// confuse preprocessor argument splitting).
std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string name(core::to_string(std::get<0>(info.param)));
  name += "_";
  name += family_name(std::get<1>(info.param));
  name += "_t" + std::to_string(std::get<2>(info.param));
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class VariantAgreement : public ::testing::TestWithParam<Param> {};

TEST_P(VariantAgreement, MatchesKruskalExactly) {
  const auto [alg, family, threads] = GetParam();
  for (const std::uint64_t seed : {11ull, 12ull}) {
    const EdgeList g = make_family(family, seed);
    const auto ref = seq::kruskal_msf(g);
    const auto got = test::run_alg(g, alg, threads);
    ASSERT_EQ(test::sorted_ids(got), test::sorted_ids(ref))
        << core::to_string(alg) << " on " << family_name(family)
        << " threads=" << threads << " seed=" << seed;
    EXPECT_WEIGHT_EQ(got.total_weight, ref.total_weight);
    EXPECT_EQ(got.num_trees, ref.num_trees);
    const auto chk = validate_spanning_forest(g, got.edges);
    EXPECT_TRUE(chk.ok) << chk.error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, VariantAgreement,
    ::testing::Combine(
        ::testing::Values(core::Algorithm::kBorEL, core::Algorithm::kBorAL,
                          core::Algorithm::kBorALM, core::Algorithm::kBorFAL,
                          core::Algorithm::kMstBC,
                          core::Algorithm::kChampion),
        ::testing::Values(Family::kRandomSparse, Family::kRandomDense,
                          Family::kUltraSparse, Family::kMesh2D,
                          Family::kMesh2D60, Family::kMesh3D40,
                          Family::kGeometric, Family::kStr0, Family::kStr1,
                          Family::kStr2, Family::kStr3),
        ::testing::Values(1, 3, 8)),
    param_name);

// Determinism: repeated runs with the same options give the same forest,
// regardless of scheduling (the *set* of edges is unique by construction;
// this catches nondeterministic corruption rather than nondeterministic
// choice).
TEST(VariantDeterminism, RepeatedRunsIdentical) {
  const EdgeList g = random_graph(3000, 12000, 99);
  for (const auto alg : core::kParallelAlgorithms) {
    const auto first = test::sorted_ids(test::run_alg(g, alg, 4));
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(test::sorted_ids(test::run_alg(g, alg, 4)), first)
          << core::to_string(alg) << " rep " << rep;
    }
  }
  const auto first =
      test::sorted_ids(test::run_alg(g, core::Algorithm::kChampion, 4));
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(
        test::sorted_ids(test::run_alg(g, core::Algorithm::kChampion, 4)),
        first)
        << "Champion rep " << rep;
  }
}

// One forest, one weight: every solver at p = 1 and p = 4 and
// graph::validate report the bits of the weight DynamicMsf keeps as a running
// sum for the same forest.  Weights span 2^-40 … 2^41 with both signs, so
// left-to-right sums in different orders would disagree in their last bits.
TEST(VariantWeightBits, EverySolverReportsDynamicMsfBits) {
  for (const std::uint64_t seed : {5ull, 6ull}) {
    EdgeList g = random_graph(3000, 12000, seed);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> mant(1.0, 2.0);
    for (WEdge& e : g.edges) {
      const double w = std::ldexp(mant(rng), static_cast<int>(rng() % 81) - 40);
      e.w = rng() % 2 == 0 ? w : -w;
    }
    // DynamicMsf reaches MSF(g) through batches that subtract and add: it
    // deletes 300 edges, forest edges among them, then inserts copies.
    dynamic::DynamicMsf d(g);
    std::vector<EdgeId> del;
    std::vector<WEdge> back;
    for (EdgeId id = 0; id < g.num_edges(); id += 40) {
      del.push_back(id);
      back.push_back(g.edges[id]);
    }
    d.apply_batch({}, del);
    d.apply_batch(back, {});
    const auto want = std::bit_cast<std::uint64_t>(d.total_weight());
    for (const auto& [name, alg] : core::kAlgorithmNames) {
      for (const int p : {1, 4}) {
        const MsfResult r = test::run_alg(g, alg, p);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r.total_weight), want)
            << name << " p=" << p << " seed=" << seed;
        EXPECT_EQ(r.num_trees, d.num_trees()) << name;
        const ForestCheck chk = validate_spanning_forest(g, r.edges);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(chk.total_weight), want) << name;
      }
    }
  }
}

}  // namespace
