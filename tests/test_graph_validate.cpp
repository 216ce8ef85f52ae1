// The forest validator itself: accepts real MSFs and rejects each corruption.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/validate.hpp"
#include "seq/seq_msf.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

EdgeList diamond() {
  // 0-1 (1.0), 1-2 (2.0), 2-3 (3.0), 3-0 (4.0), 0-2 (5.0)
  EdgeList g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 3.0);
  g.add_edge(3, 0, 4.0);
  g.add_edge(0, 2, 5.0);
  return g;
}

TEST(Validate, AcceptsTrueMsf) {
  const EdgeList g = diamond();
  const auto msf = seq::kruskal_msf(g);
  const auto chk = validate_spanning_forest(g, msf.edges);
  EXPECT_TRUE(chk.ok) << chk.error;
  EXPECT_EQ(chk.num_trees, 1u);
  EXPECT_DOUBLE_EQ(chk.total_weight, 6.0);
}

TEST(Validate, RejectsCycle) {
  const EdgeList g = diamond();
  const std::vector<WEdge> cyc = {
      {0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}, {3, 0, 4.0}};
  const auto chk = validate_spanning_forest(g, cyc);
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(chk.error.find("cycle"), std::string::npos);
}

TEST(Validate, RejectsNonSpanning) {
  const EdgeList g = diamond();
  const std::vector<WEdge> partial = {{0, 1, 1.0}, {1, 2, 2.0}};
  const auto chk = validate_spanning_forest(g, partial);
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(chk.error.find("span"), std::string::npos);
}

TEST(Validate, RejectsForeignEdge) {
  const EdgeList g = diamond();
  const std::vector<WEdge> fake = {{0, 1, 1.0}, {1, 2, 2.0}, {1, 3, 2.5}};
  const auto chk = validate_spanning_forest(g, fake);
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(chk.error.find("not present"), std::string::npos);
}

TEST(Validate, RejectsWrongWeightOnRealEndpoints) {
  const EdgeList g = diamond();
  const std::vector<WEdge> fake = {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.5}};
  const auto chk = validate_spanning_forest(g, fake);
  EXPECT_FALSE(chk.ok);
}

TEST(Validate, RejectsDuplicatedEdge) {
  const EdgeList g = diamond();
  // Same graph edge listed twice: acyclicity (or membership multiset) fails.
  const std::vector<WEdge> dup = {{0, 1, 1.0}, {0, 1, 1.0}, {2, 3, 3.0}};
  const auto chk = validate_spanning_forest(g, dup);
  EXPECT_FALSE(chk.ok);
}

TEST(Validate, DisconnectedGraphNeedsPerComponentSpanning) {
  EdgeList g(6);  // two triangles
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 3.0);
  g.add_edge(3, 4, 1.5);
  g.add_edge(4, 5, 2.5);
  g.add_edge(3, 5, 3.5);
  const auto msf = seq::kruskal_msf(g);
  const auto chk = validate_spanning_forest(g, msf.edges);
  EXPECT_TRUE(chk.ok) << chk.error;
  EXPECT_EQ(chk.num_trees, 2u);
}

TEST(CutProperty, HoldsForTrueMsf) {
  const EdgeList g = random_graph(60, 200, 21);
  const auto msf = seq::kruskal_msf(g);
  std::string err;
  EXPECT_TRUE(verify_cut_property(g, msf.edges, &err)) << err;
}

TEST(CutProperty, FailsForNonMinimumSpanningTree) {
  // Triangle 0-1 (1), 1-2 (2), 0-2 (3).  The tree {(0,1), (0,2)} spans but
  // is not minimum: cutting (0,2) separates {0,1} from {2}, and the lighter
  // edge (1,2) crosses that cut.
  EdgeList g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 3.0);
  const std::vector<WEdge> bad = {{0, 1, 1.0}, {0, 2, 3.0}};
  ASSERT_TRUE(validate_spanning_forest(g, bad).ok) << "spanning but not minimum";
  std::string err;
  EXPECT_FALSE(verify_cut_property(g, bad, &err));
  EXPECT_FALSE(err.empty());
}

TEST(Validate, EmptyGraphEmptyForest) {
  const EdgeList g(0);
  const auto chk = validate_spanning_forest(g, {});
  EXPECT_TRUE(chk.ok);
  EXPECT_EQ(chk.num_trees, 0u);
}

TEST(Validate, IsolatedVerticesNeedNoEdges) {
  const EdgeList g(4);  // no edges at all
  const auto chk = validate_spanning_forest(g, {});
  EXPECT_TRUE(chk.ok);
  EXPECT_EQ(chk.num_trees, 4u);
}

TEST(CanonicalizeParallel, MatchesBruteForceOnDuplicateHeavyInputs) {
  // Reference: edge i survives iff no edge on its unordered pair is smaller
  // under WeightOrder ⟨w, id⟩; survivors stay in input order.
  const auto pair_of = [](const WEdge& e) {
    return std::pair{std::min(e.u, e.v), std::max(e.u, e.v)};
  };
  const std::pair<VertexId, std::size_t> sizes[] = {
      {2, 1}, {2, 6}, {5, 30}, {40, 300}, {300, 400}};
  for (const auto& [n, pairs] : sizes) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      const EdgeList g = test::duplicate_heavy_graph(n, pairs, seed);
      std::vector<EdgeId> ref;
      for (EdgeId i = 0; i < g.edges.size(); ++i) {
        bool wins = true;
        for (EdgeId j = 0; j < g.edges.size() && wins; ++j) {
          wins = pair_of(g.edges[j]) != pair_of(g.edges[i]) ||
                 !(WeightOrder{g.edges[j].w, j} < WeightOrder{g.edges[i].w, i});
        }
        if (wins) ref.push_back(i);
      }
      std::vector<EdgeId> kept;
      const EdgeList c = canonicalize_parallel_edges(g, &kept);
      ASSERT_EQ(kept, ref) << "n=" << n << " pairs=" << pairs << " seed=" << seed;
      ASSERT_EQ(c.num_vertices, n);
      ASSERT_EQ(c.edges.size(), ref.size());
      for (std::size_t k = 0; k < ref.size(); ++k) {
        EXPECT_EQ(c.edges[k], g.edges[ref[k]]);
      }
    }
  }
}

}  // namespace
