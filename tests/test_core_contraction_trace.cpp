// The Bor-FAL contraction trace: how many supervertices each Borůvka
// iteration starts with, under Bor-FAL and under Champion, at several team
// sizes, next to the forest itself.  The pinned counts come from
// §2.3's sort-and-append compact-graph, which the lookup-table update must
// reproduce exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/msf.hpp"
#include "graph/generators.hpp"
#include "pprim/permutation.hpp"
#include "pprim/rng.hpp"
#include "seq/seq_msf.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

/// A path over a shuffled vertex order with random weights.
EdgeList path_graph(VertexId n, std::uint64_t seed) {
  const std::vector<std::uint32_t> perm = random_permutation(n, seed);
  Rng rng(seed + 1);
  EdgeList g(n);
  for (VertexId i = 1; i < n; ++i) g.add_edge(perm[i - 1], perm[i], rng.next_double());
  return g;
}

/// Every vertex joined to one hub, random weights.
EdgeList star_graph(VertexId n, VertexId hub, std::uint64_t seed) {
  Rng rng(seed);
  EdgeList g(n);
  for (VertexId v = 0; v < n; ++v) {
    if (v != hub) g.add_edge(v, hub, rng.next_double());
  }
  return g;
}

/// 40 random components of 100 vertices (m = 4n inside each), followed by
/// 1000 vertices no edge touches.
EdgeList components_and_isolated() {
  constexpr VertexId kParts = 40;
  constexpr VertexId kSize = 100;
  EdgeList g(kParts * kSize + 1000);
  for (VertexId c = 0; c < kParts; ++c) {
    const EdgeList part = random_graph(kSize, 4 * kSize, 100 + c);
    for (const auto& e : part.edges) g.add_edge(c * kSize + e.u, c * kSize + e.v, e.w);
  }
  return g;
}

struct Case {
  std::string name;
  EdgeList g;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"random_m4n", random_graph(4096, 4 * 4096, 21)});
  out.push_back({"random_m10n", random_graph(4096, 10 * 4096, 22)});
  out.push_back({"path", path_graph(5000, 23)});
  out.push_back({"star", star_graph(3000, 1234, 24)});
  out.push_back({"components_isolated", components_and_isolated()});
  return out;
}

struct Trace {
  std::vector<EdgeId> ids;
  std::size_t num_trees = 0;
  std::uint64_t iterations = 0;
  std::vector<VertexId> vertices;  // IterationStat::vertices, in order
};

Trace trace_of(const EdgeList& g, core::Algorithm alg, int p) {
  core::MsfOptions opts;
  opts.threads = p;
  opts.algorithm = alg;
  std::vector<core::IterationStat> iters;
  core::PhaseStats phases;
  opts.iteration_stats = &iters;
  opts.phase_stats = &phases;
  const MsfResult r = core::minimum_spanning_forest(g, opts);
  Trace t;
  t.ids = test::sorted_ids(r);
  t.num_trees = r.num_trees;
  t.iterations = phases.iterations;
  for (const auto& is : iters) t.vertices.push_back(is.vertices);
  return t;
}

struct Pinned {
  std::uint64_t iterations;
  std::vector<VertexId> vertices;
};

/// Bor-FAL's trace and Champion's trace per case.  Champion's light pass is
/// one Kruskal scan with no iterations, so it lists its survivor pass's,
/// which starts on the light components: n minus about
/// min(2n, ⌊15m/16⌋) light picks.
struct Expected {
  Pinned bor_fal;
  Pinned champion;
};

Expected pinned(const std::string& name) {
  if (name == "random_m4n") {
    return {{7, {4096, 1019, 198, 39, 7, 3, 2}},
            {2, {73, 2}}};
  }
  if (name == "random_m10n") {
    return {{6, {4096, 1030, 217, 42, 7, 1}},
            {2, {74, 1}}};
  }
  if (name == "path") {
    return {{9, {5000, 1672, 550, 179, 52, 16, 5, 2, 1}},
            {6, {313, 103, 37, 11, 2, 1}}};
  }
  if (name == "star") {
    return {{2, {3000, 1}},
            {2, {188, 1}}};
  }
  if (name == "components_isolated") {
    return {{5, {5000, 2004, 1221, 1050, 1040}},
            {2, {1066, 1040}}};
  }
  ADD_FAILURE() << "no pinned trace for " << name;
  return {};
}

TEST(ContractionTrace, BorFalAndChampionMatchKruskalAndPinnedTrace) {
  for (const Case& c : cases()) {
    const MsfResult k = seq::kruskal_msf(c.g);
    const std::vector<EdgeId> ref_ids = test::sorted_ids(k);
    const Expected want = pinned(c.name);
    for (const auto alg : {core::Algorithm::kBorFAL, core::Algorithm::kChampion}) {
      const Pinned& pin =
          alg == core::Algorithm::kChampion ? want.champion : want.bor_fal;
      for (const int p : {1, 2, 4}) {
        SCOPED_TRACE(c.name + ", " + std::string(core::to_string(alg)) +
                     ", p = " + std::to_string(p));
        const Trace t = trace_of(c.g, alg, p);
        EXPECT_EQ(t.ids, ref_ids);
        EXPECT_EQ(t.num_trees, k.num_trees);
        EXPECT_EQ(t.iterations, pin.iterations);
        EXPECT_EQ(t.vertices, pin.vertices);
      }
    }
  }
}

}  // namespace
