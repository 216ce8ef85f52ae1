// Insert-only batches by path-max: DynamicMsf::apply_batch given the
// core::Dendrogram of a query::ForestIndex of the current forest must commit
// the forest, weight, tree count and MsfDelta the sparsified solve commits,
// bit for bit — on weight ties decided by store id, parallel edges,
// endpoints in one tree or across trees, path- and star-shaped forests, many
// small trees beside isolated vertices, and from an edgeless start.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "dynamic/dynamic_msf.hpp"
#include "pprim/rng.hpp"
#include "pprim/thread_team.hpp"
#include "query/forest_index.hpp"

namespace {

using namespace smp;
using namespace smp::graph;
using smp::dynamic::DynamicMsf;
using smp::dynamic::DynamicMsfOptions;
using smp::dynamic::MsfDelta;
using smp::query::ForestIndex;

DynamicMsfOptions opts() {
  DynamicMsfOptions o;
  o.msf.threads = 2;
  return o;
}

/// Whether an insert-only batch of k edges stays below the scratch crossover
/// (k < kScratchBatchFraction x the live count after it), so the path-max
/// path may take it.
bool below_crossover(std::size_t k, std::size_t live_before) {
  return static_cast<double>(k) <
         dynamic::kScratchBatchFraction * static_cast<double>(live_before + k);
}

bool same_bits(Weight a, Weight b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_delta(const MsfDelta& a, const MsfDelta& b) {
  EXPECT_EQ(a.forest_added, b.forest_added);
  EXPECT_EQ(a.forest_removed, b.forest_removed);
  EXPECT_TRUE(same_bits(a.total_weight, b.total_weight));
  EXPECT_EQ(a.num_trees, b.num_trees);
  EXPECT_EQ(a.candidate_edges, b.candidate_edges);
  EXPECT_EQ(a.live_edges, b.live_edges);
  EXPECT_EQ(a.recomputed_from_scratch, b.recomputed_from_scratch);
}

void expect_same_state(const DynamicMsf& a, const DynamicMsf& b) {
  EXPECT_EQ(a.forest_edge_ids(), b.forest_edge_ids());
  EXPECT_TRUE(same_bits(a.total_weight(), b.total_weight()));
  EXPECT_EQ(a.num_trees(), b.num_trees());
  EXPECT_EQ(a.store().size(), b.store().size());
}

/// Initial graph layout: random edges inside clusters, or a fixed tree.
enum class Topology { kClusters, kPath, kStar };

/// Input shapes for one differential run.
struct Shape {
  const char* name;
  VertexId n;
  std::size_t initial_edges;  ///< kClusters only; 0 = edgeless start
  VertexId clusters;          ///< initial edges stay inside clusters
  std::uint64_t weight_levels;  ///< few levels = many ties
  bool parallel;              ///< batches repeat existing endpoint pairs
  Topology topology = Topology::kClusters;
};

WEdge random_edge(Rng& rng, VertexId lo, VertexId hi, std::uint64_t levels) {
  const auto span = hi - lo;
  const auto u = static_cast<VertexId>(lo + rng.next_below(span));
  auto v = static_cast<VertexId>(lo + rng.next_below(span - 1));
  if (v >= u) ++v;
  return WEdge{u, v, static_cast<Weight>(rng.next_below(levels))};
}

void run_differential(const Shape& shape, std::size_t k, std::uint64_t seed) {
  SCOPED_TRACE(std::string(shape.name) + " k=" + std::to_string(k) +
               " seed=" + std::to_string(seed));
  Rng rng(seed);
  EdgeList g(shape.n);
  const VertexId per = shape.n / shape.clusters;
  for (std::size_t i = 0; i < shape.initial_edges; ++i) {
    const VertexId c = static_cast<VertexId>(rng.next_below(shape.clusters));
    const WEdge e = random_edge(rng, c * per, (c + 1) * per, shape.weight_levels);
    g.add_edge(e.u, e.v, e.w);
  }
  if (shape.topology != Topology::kClusters) {
    for (VertexId x = 1; x < shape.n; ++x) {
      const VertexId y = shape.topology == Topology::kPath ? x - 1 : 0;
      g.add_edge(y, x, static_cast<Weight>(rng.next_below(shape.weight_levels)));
    }
  }
  DynamicMsf solved(g, opts());
  DynamicMsf indexed(g, opts());
  ThreadTeam team(2);
  std::uint64_t version = 0;
  for (int step = 0; step < 12; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<WEdge> batch;
    for (std::size_t i = 0; i < k; ++i) {
      const auto& live = indexed.store();
      if (shape.parallel && live.size() > 0 && rng.next_below(2) == 0) {
        // Same endpoints as some existing edge, weight from the same few
        // levels: a parallel edge that ties or beats it.
        const WEdge& e = live.edge(rng.next_below(live.size()));
        batch.push_back(WEdge{e.v, e.u, static_cast<Weight>(
                                            rng.next_below(shape.weight_levels))});
      } else {
        // Anywhere: same-tree and cross-tree endpoints both occur.
        batch.push_back(random_edge(rng, 0, shape.n, shape.weight_levels));
      }
    }
    const ForestIndex idx(team, indexed.store(), indexed.forest_edge_ids(),
                          ++version);
    const std::uint64_t before = indexed.path_max_batches();
    // Until the live graph outgrows 3k edges (from an edgeless start, say)
    // the batch crosses over to a whole-graph solve on both sides.
    const bool sparse = below_crossover(k, indexed.store().num_live());
    const MsfDelta want = solved.apply_batch(batch, {});
    const MsfDelta got = indexed.apply_batch(batch, {}, &idx.dendrogram());
    ASSERT_EQ(indexed.path_max_batches(), before + (sparse ? 1 : 0));
    EXPECT_EQ(got.recomputed_from_scratch, !sparse);
    EXPECT_EQ(solved.path_max_batches(), 0u);
    expect_same_delta(got, want);
    expect_same_state(indexed, solved);
    if (step % 4 == 3 && !indexed.forest_edge_ids().empty()) {
      // A deletion batch (one tree edge, one maybe non-tree edge) moves the
      // forest on between insert batches; both sides solve it.
      std::vector<EdgeId> del{
          indexed.forest_edge_ids()[rng.next_below(indexed.forest_edge_ids().size())]};
      const EdgeId other = rng.next_below(indexed.store().size());
      if (other != del[0] && indexed.store().is_live(other)) del.push_back(other);
      expect_same_delta(indexed.apply_batch({}, del), solved.apply_batch({}, del));
      expect_same_state(indexed, solved);
    }
  }
  EXPECT_GT(indexed.path_max_batches(), 0u);
}

TEST(DynamicPathMax, BitIdenticalToSolvePath) {
  const Shape shapes[] = {
      {"ties", 120, 400, 1, 3, false},
      {"parallel", 60, 200, 1, 4, true},
      {"cross-tree", 200, 300, 5, 50, false},
      {"edgeless", 90, 0, 1, 6, false},
      {"path", 150, 0, 1, 4, false, Topology::kPath},
      {"star", 100, 0, 1, 50, true, Topology::kStar},
      {"ties4", 200, 800, 1, 4, true},
      {"isolated", 240, 60, 60, 1000, false},
  };
  for (const Shape& shape : shapes) {
    for (const std::size_t k : {1u, 2u, 7u, 64u}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        run_differential(shape, k, seed);
      }
    }
  }
}

TEST(DynamicPathMax, StaleOracleFallsBackToSolve) {
  // 15 path edges keep both batches below the scratch crossover.
  EdgeList g(16);
  for (VertexId i = 0; i + 1 < 16; ++i) g.add_edge(i, i + 1, 1.0 * i);
  DynamicMsf d(g, opts());
  ThreadTeam team(1);
  // An index of a forest with one edge fewer than the one d holds.
  std::vector<EdgeId> older(d.forest_edge_ids().begin(),
                            d.forest_edge_ids().end() - 1);
  const ForestIndex stale(team, d.store(), older, 1);
  DynamicMsf ref(g, opts());
  const std::vector<WEdge> batch{{0, 7, 0.5}};
  expect_same_delta(d.apply_batch(batch, {}, &stale.dendrogram()),
                    ref.apply_batch(batch, {}));
  EXPECT_EQ(d.path_max_batches(), 0u);
  expect_same_state(d, ref);
  // Deletions always solve, oracle or not.
  const ForestIndex fresh(team, d.store(), d.forest_edge_ids(), 2);
  const std::vector<EdgeId> del{d.forest_edge_ids().front()};
  const MsfDelta solved = d.apply_batch(batch, del, &fresh.dendrogram());
  expect_same_delta(solved, ref.apply_batch(batch, del));
  EXPECT_FALSE(solved.recomputed_from_scratch);
  EXPECT_EQ(d.path_max_batches(), 0u);
}

}  // namespace
