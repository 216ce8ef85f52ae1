// Forest Kruskal batches: DynamicMsf applies a sparsified batch by one
// union-find scan over its candidates (the insertions and, after a cut, the
// Borůvka replacements among the crossing edges) merged with the forest
// edges on their endpoints' root paths, whatever the backend.  Every
// MsfDelta is checked against a reference built from sequential Kruskal of
// the live graph before and after the batch — the forest diff, the weight
// bits and tree count of the "after" forest, the live and candidate counts,
// and the scratch crossover — and the maintained state against Kruskal after
// it, through insert-only, deletion-only and mixed batches, weight ties,
// ±0.0, parallel edges, an edgeless start, store compaction, recompute,
// scratch crossovers, the restore constructor and path-max batches that
// change the forest.  The shapes the pass depends on get cases of their own
// at p ∈ {1, 2, 4}: a path-shaped forest whose everts pass the cap, a star
// cut into about n pieces, mostly isolated vertices, tied and parallel
// crossing edges, a tree edge deleted and re-inserted in one batch,
// compaction or a restore between Kruskal batches, and pieces joined by
// runs of tied crossing edges (swept and searched, with the crossing and
// pair counts known by hand); and the shapes of the compressed path tree:
// long chains along a path, a dangling chain holding the heaviest forest
// edge, a star joined leaf to leaf, a terminal inside another candidate's
// chain, and walks stopped by a cut partway up a chain.
// Also: the pass honours the budget and fills StepTimes; no batch after a
// constructor or a recompute builds the rooted forest, and one whose build
// failed inside recompute is left unrooted with the commit standing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/msf.hpp"
#include "dynamic/dynamic_msf.hpp"
#include "pprim/fault.hpp"
#include "pprim/rng.hpp"
#include "pprim/thread_team.hpp"
#include "query/forest_index.hpp"
#include "seq/seq_msf.hpp"
#include "seq/union_find.hpp"

namespace {

using namespace smp;
using namespace smp::graph;
using smp::dynamic::DynamicMsf;
using smp::dynamic::DynamicMsfOptions;
using smp::dynamic::EdgeStore;
using smp::dynamic::MsfDelta;
using smp::query::ForestIndex;

bool same_bits(Weight a, Weight b) { return std::memcmp(&a, &b, sizeof a) == 0; }

DynamicMsfOptions make_opts(core::Algorithm alg, ThreadTeam* team) {
  DynamicMsfOptions o;
  o.msf.algorithm = alg;
  o.msf.threads = team != nullptr ? team->size() : 2;
  o.team = team;
  return o;
}

void expect_same_delta(const MsfDelta& a, const MsfDelta& b) {
  EXPECT_EQ(a.forest_added, b.forest_added);
  EXPECT_EQ(a.forest_removed, b.forest_removed);
  EXPECT_TRUE(same_bits(a.total_weight, b.total_weight));
  EXPECT_EQ(a.num_trees, b.num_trees);
  EXPECT_EQ(a.candidate_edges, b.candidate_edges);
  EXPECT_EQ(a.live_edges, b.live_edges);
  EXPECT_EQ(a.recomputed_from_scratch, b.recomputed_from_scratch);
}

/// Sequential Kruskal of the store's live graph, as ascending store ids.
std::vector<EdgeId> kruskal_ids(const EdgeStore& s, std::size_t* trees) {
  std::vector<EdgeId> ids;
  const EdgeList live = s.live_graph(&ids);
  const MsfResult k = seq::kruskal_msf(live);
  std::vector<EdgeId> out;
  out.reserve(k.edge_ids.size());
  for (const EdgeId e : k.edge_ids) out.push_back(ids[e]);
  std::sort(out.begin(), out.end());
  if (trees != nullptr) *trees = k.num_trees;
  return out;
}

/// The forest part of the delta a batch or recompute must report, from
/// Kruskal of the live graph before it (`before`) and after it (the store
/// as it is now): the diff of the two forests, and the weight (the exact
/// sum), tree count and live count after it.
MsfDelta forest_delta(const EdgeStore& s, const std::vector<EdgeId>& before) {
  MsfDelta want;
  const std::vector<EdgeId> after = kruskal_ids(s, &want.num_trees);
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(want.forest_added));
  std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                      std::back_inserter(want.forest_removed));
  want.total_weight = exact_sum(after, [&](EdgeId id) { return s.edge(id).w; });
  want.live_edges = s.num_live();
  return want;
}

/// The maintained state equals sequential Kruskal of the live graph, with
/// the weight its exact sum.
void expect_kruskal_state(const DynamicMsf& d) {
  std::size_t trees = 0;
  const std::vector<EdgeId> want = kruskal_ids(d.store(), &trees);
  const Weight w = exact_sum(want, [&](EdgeId id) { return d.store().edge(id).w; });
  ASSERT_EQ(d.forest_edge_ids(), want);
  EXPECT_TRUE(same_bits(d.total_weight(), w));
  EXPECT_EQ(d.num_trees(), trees);
}

enum class Weights { kRandom, kAllEqual, kSignedZero };

Weight draw_weight(Rng& rng, Weights mode) {
  switch (mode) {
    case Weights::kAllEqual:
      return 1.0;
    case Weights::kSignedZero: {
      static constexpr Weight kLevels[] = {-0.0, 0.0, 0.5};
      return kLevels[rng.next_below(3)];
    }
    case Weights::kRandom:
    default:
      return rng.next_double();
  }
}

/// A DynamicMsf whose every delta is checked against Kruskal references.
struct Checked {
  ThreadTeam* team;
  std::unique_ptr<DynamicMsf> d;

  Checked(const EdgeList& g, ThreadTeam* t)
      : team(t),
        d(std::make_unique<DynamicMsf>(
            g, make_opts(core::Algorithm::kChampion, t))) {}

  /// Sparsified batches that changed the forest.
  int sparsified_changes = 0;

  MsfDelta apply(const std::vector<WEdge>& ins, const std::vector<EdgeId>& del,
                 const core::Dendrogram* oracle = nullptr) {
    const std::vector<EdgeId> before = kruskal_ids(d->store(), nullptr);
    const EdgeId first_new = d->store().size();
    const MsfDelta got = d->apply_batch(ins, del, oracle);
    const EdgeStore& s = d->store();
    MsfDelta want = forest_delta(s, before);
    // The deleted forest edges.
    std::vector<EdgeId> cut;
    for (const EdgeId id : del) {
      if (std::binary_search(before.begin(), before.end(), id)) {
        cut.push_back(id);
      }
    }
    const std::size_t ops = ins.size() + del.size();
    if (ins.empty() && cut.empty()) {
      // Only non-tree edges died: the forest stands, nothing is decided.
    } else if (static_cast<double>(ops) >=
               dynamic::kScratchBatchFraction *
                   static_cast<double>(s.num_live())) {
      want.recomputed_from_scratch = true;
      want.candidate_edges = s.num_live();
    } else {
      // The retained forest, the insertions and, after a cut, the live
      // pre-batch edges that cross two trees of the split forest.
      want.candidate_edges = before.size() - cut.size() + ins.size();
      if (!cut.empty()) {
        seq::UnionFind uf(s.num_vertices());
        for (const EdgeId id : before) {
          if (!std::binary_search(cut.begin(), cut.end(), id)) {
            uf.unite(s.edge(id).u, s.edge(id).v);
          }
        }
        for (EdgeId id = 0; id < first_new; ++id) {
          if (s.is_live(id) && !uf.connected(s.edge(id).u, s.edge(id).v)) {
            ++want.candidate_edges;
          }
        }
      }
    }
    expect_same_delta(got, want);
    expect_kruskal_state(*d);
    if (!got.recomputed_from_scratch && got.changed_forest()) {
      ++sparsified_changes;
    }
    return got;
  }

  void recompute() {
    const std::vector<EdgeId> before = kruskal_ids(d->store(), nullptr);
    MsfDelta want = forest_delta(d->store(), before);
    want.recomputed_from_scratch = true;
    want.candidate_edges = d->store().num_live();
    expect_same_delta(d->recompute(), want);
    expect_kruskal_state(*d);
  }

  /// Compacts the store: the forest follows the remap and stays Kruskal's.
  void compact() {
    const std::vector<EdgeId> old = d->forest_edge_ids();
    const std::vector<EdgeId> remap = d->compact_store();
    std::vector<EdgeId> want;
    for (const EdgeId id : old) want.push_back(remap[id]);
    EXPECT_EQ(d->forest_edge_ids(), want);
    EXPECT_EQ(d->store().size(), d->store().num_live());
    expect_kruskal_state(*d);
  }

  /// Rebuilds from a copy of the store and forest.
  void restore() {
    d = std::make_unique<DynamicMsf>(
        EdgeStore(d->store()), d->forest_edge_ids(),
        make_opts(core::Algorithm::kChampion, team));
    expect_kruskal_state(*d);
  }
};

/// Random edges, about a third of them parallel to an existing edge.
std::vector<WEdge> draw_insertions(Rng& rng, const DynamicMsf& d, std::size_t k,
                                   Weights mode) {
  const VertexId n = d.store().num_vertices();
  std::vector<WEdge> ins;
  for (std::size_t i = 0; i < k; ++i) {
    const EdgeId slots = d.store().size();
    if (slots > 0 && rng.next_below(3) == 0) {
      const WEdge& e = d.store().edge(rng.next_below(slots));
      ins.push_back(WEdge{e.v, e.u, draw_weight(rng, mode)});
      continue;
    }
    const auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n - 1));
    if (v >= u) ++v;
    ins.push_back(WEdge{u, v, draw_weight(rng, mode)});
  }
  return ins;
}

/// `tree` forest edges and up to `other` arbitrary live edges, distinct.
std::vector<EdgeId> draw_deletions(Rng& rng, const DynamicMsf& d,
                                   std::size_t tree, std::size_t other) {
  std::vector<EdgeId> del;
  const auto& f = d.forest_edge_ids();
  for (std::size_t i = 0; i < tree && !f.empty(); ++i) {
    del.push_back(f[rng.next_below(f.size())]);
  }
  for (std::size_t i = 0; i < other && d.store().size() > 0; ++i) {
    const EdgeId id = rng.next_below(d.store().size());
    if (d.store().is_live(id)) del.push_back(id);
  }
  std::sort(del.begin(), del.end());
  del.erase(std::unique(del.begin(), del.end()), del.end());
  return del;
}

class DynamicForestKruskal
    : public ::testing::TestWithParam<std::tuple<Weights, int, bool>> {};

TEST_P(DynamicForestKruskal, BitIdenticalToSolverAndKruskal) {
  // p = 0 gives no team: the DynamicMsf runs on its own team of two.
  const auto [mode, p, edgeless] = GetParam();
  std::unique_ptr<ThreadTeam> team;
  if (p > 0) team = std::make_unique<ThreadTeam>(p);
  const VertexId n = 300;
  Rng rng(7 + static_cast<std::uint64_t>(p) * 31 +
          static_cast<std::uint64_t>(mode) * 101 + (edgeless ? 1 : 0));
  EdgeList g(n);
  if (!edgeless) {
    for (int i = 0; i < 900; ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      auto v = static_cast<VertexId>(rng.next_below(n - 1));
      if (v >= u) ++v;
      g.add_edge(u, v, draw_weight(rng, mode));
    }
  }
  Checked t(g, team.get());
  expect_kruskal_state(*t.d);

  for (int step = 0; step < 36; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    switch (step % 3) {
      case 0:  // insert-only
        t.apply(draw_insertions(rng, *t.d, 1 + rng.next_below(12), mode), {});
        break;
      case 1:  // deletion-only, tree edges included
        t.apply({}, draw_deletions(rng, *t.d, 1 + rng.next_below(4),
                                   rng.next_below(6)));
        break;
      default:  // mixed
        t.apply(draw_insertions(rng, *t.d, 1 + rng.next_below(8), mode),
                draw_deletions(rng, *t.d, rng.next_below(3),
                               rng.next_below(6)));
        break;
    }
    if (step == 9) {
      // Compaction renumbers ids in place; the rooted forest must follow.
      t.compact();
    }
    if (step == 16) t.recompute();
    if (step == 22 && t.d->store().num_live() > 0) {
      // A batch past the crossover fraction solves the whole live graph.
      const std::size_t live = t.d->store().num_live();
      EXPECT_TRUE(t.apply(draw_insertions(rng, *t.d, live / 2 + 1, mode), {})
                      .recomputed_from_scratch);
    }
    if (step == 28) t.restore();
  }
  EXPECT_GE(t.sparsified_changes, 10);
}

std::string shape_name(
    const ::testing::TestParamInfo<std::tuple<Weights, int, bool>>& info) {
  static constexpr const char* kWeights[] = {"Random", "AllEqual", "SignedZero"};
  const int p = std::get<1>(info.param);
  return std::string(kWeights[static_cast<int>(std::get<0>(info.param))]) +
         (p == 0 ? "_NoTeam" : "_Team" + std::to_string(p)) +
         (std::get<2>(info.param) ? "_Edgeless" : "");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DynamicForestKruskal,
    ::testing::Combine(::testing::Values(Weights::kRandom, Weights::kAllEqual,
                                         Weights::kSignedZero),
                       ::testing::Values(0, 1, 4), ::testing::Bool()),
    shape_name);

/// The shapes the Kruskal pass depends on, each run through Checked on a
/// team of p.
class DynamicForestKruskalCases : public ::testing::TestWithParam<int> {
 protected:
  ThreadTeam team{GetParam()};
};

TEST_P(DynamicForestKruskalCases, PathForestPassesTheEvertCap) {
  // A path 0 — 1 — … — n−1 cut into eight pieces of L vertices, then joined
  // again in one batch by the lightest edges in the graph, into one long
  // path: each joins the far end of the pieces joined so far to the left
  // end of the next piece.  Every root path spans whole pieces, and the
  // everts of the one commit add up to about L · (1 + 2 + … + 7) steps,
  // past n, so the rooted forest is dropped and rebuilt.
  constexpr VertexId kL = 50;
  constexpr VertexId kPieces = 8;
  const VertexId n = kL * kPieces;
  Rng rng(11 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g(n);
  for (VertexId v = 1; v < n; ++v) g.add_edge(v - 1, v, 1.0 + rng.next_double());
  // Heavy chords: crossing edges the light insertions outbid.
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n - 1));
    if (v >= u) ++v;
    g.add_edge(u, v, 3.0 + rng.next_double());
  }
  Checked t(g, &team);
  // A Kruskal batch first, so the rooted forest (rooted at 0) exists.
  t.apply({WEdge{0, n - 1, 5.0}}, {});

  std::vector<EdgeId> del;
  for (VertexId j = 1; j < kPieces; ++j) del.push_back(j * kL - 1);  // (jL−1, jL)
  std::vector<WEdge> ins;
  // Piece j spans [jL, (j+1)L).  When piece j is joined, pieces 0..j−1
  // form one path rooted at the left end of piece j−1; its far end, where
  // the join starts, is L − 1 for j = 1, 0 for j = 2 and the right end of
  // piece j−2 after that.
  for (VertexId j = 1; j < kPieces; ++j) {
    const VertexId far = j == 1 ? kL - 1 : j == 2 ? 0 : (j - 1) * kL - 1;
    ins.push_back(WEdge{far, j * kL, 1e-3 * j});
  }
  // Counts the rooted forest's builds from here on, without failing one.
  FaultInjector::arm("dynamic.rooted-build", FaultKind::kBadAlloc, 1u << 30);
  const MsfDelta d = t.apply(ins, del);
  EXPECT_FALSE(d.recomputed_from_scratch);
  EXPECT_EQ(d.forest_added.size(), ins.size());
  EXPECT_EQ(FaultInjector::hits("dynamic.rooted-build"), 0u);
  // The batches after it rebuild the rooted forest, the first of them
  // once, and walk long paths.
  for (int step = 0; step < 6; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    t.apply(draw_insertions(rng, *t.d, 3, Weights::kRandom),
            draw_deletions(rng, *t.d, 2, 1));
    if (step == 0) {
      EXPECT_EQ(FaultInjector::hits("dynamic.rooted-build"), 1u);
    }
  }
  FaultInjector::disarm_all();
  EXPECT_GE(t.sparsified_changes, 5);
}

/// A random graph on n vertices with 3n edges.
EdgeList random_edges(VertexId n, Rng& rng) {
  EdgeList g(n);
  while (g.edges.size() < 3 * static_cast<std::size_t>(n)) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n - 1));
    if (v >= u) ++v;
    g.add_edge(u, v, rng.next_double());
  }
  return g;
}

TEST_P(DynamicForestKruskalCases, NoBatchAfterSetUpRootsTheForest) {
  // Every constructor and every recompute, a crossover batch's included,
  // roots the forest.  With the rooted build's fault point counting from
  // then on, an insert-only batch and a cut batch after any of them build
  // nothing.  (An edgeless start roots nothing: its first batch that
  // decides anything is a crossover, which does.)
  Rng rng(211 + static_cast<std::uint64_t>(GetParam()));
  const VertexId n = 400;
  const EdgeList g = random_edges(n, rng);
  const auto expect_no_build = [&](Checked& t) {
    FaultInjector::arm("dynamic.rooted-build", FaultKind::kBadAlloc, 1u << 30);
    const MsfDelta a = t.apply(draw_insertions(rng, *t.d, 4, Weights::kRandom), {});
    const MsfDelta b = t.apply(draw_insertions(rng, *t.d, 2, Weights::kRandom),
                               draw_deletions(rng, *t.d, 3, 1));
    EXPECT_EQ(FaultInjector::hits("dynamic.rooted-build"), 0u);
    FaultInjector::disarm_all();
    EXPECT_FALSE(a.recomputed_from_scratch);
    EXPECT_FALSE(b.recomputed_from_scratch);
    EXPECT_NE(b.replacement_path, dynamic::ReplacementPath::kNone);
  };
  const auto crossover = [&](Checked& t, const std::vector<WEdge>& ins) {
    EXPECT_TRUE(t.apply(ins, {}).recomputed_from_scratch);
  };
  Checked t(g, &team);
  {
    SCOPED_TRACE("edge-list constructor");
    expect_no_build(t);
  }
  {
    SCOPED_TRACE("restore constructor");
    t.restore();
    expect_no_build(t);
  }
  {
    SCOPED_TRACE("crossover batch");
    crossover(t, draw_insertions(rng, *t.d, 2 * n, Weights::kRandom));
    expect_no_build(t);
  }
  {
    SCOPED_TRACE("recompute");
    t.recompute();
    expect_no_build(t);
  }
  {
    SCOPED_TRACE("edgeless constructor and a crossover batch");
    t.d = std::make_unique<DynamicMsf>(n, make_opts(core::Algorithm::kChampion, &team));
    crossover(t, g.edges);
    expect_no_build(t);
  }
}

TEST_P(DynamicForestKruskalCases, FailedRootedBuildAfterRecomputeKeepsTheCommit) {
  // recompute() commits the solve's forest and then roots it.  When the
  // build fails the commit stands, unrooted, and nothing escapes: a
  // crossover batch keeps its store changes.  The forest, weight and store
  // read as on a twin whose build passed, and the next batch roots the
  // forest once and decides as on the twin.
  Rng rng(223 + static_cast<std::uint64_t>(GetParam()));
  const VertexId n = 400;
  const EdgeList g = random_edges(n, rng);
  for (const bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "crossover batch" : "recompute");
    Checked t(g, &team);
    DynamicMsf twin(g, make_opts(core::Algorithm::kChampion, &team));
    const std::vector<WEdge> warm = draw_insertions(rng, *t.d, 4, Weights::kRandom);
    const std::vector<EdgeId> warm_del = draw_deletions(rng, *t.d, 2, 2);
    expect_same_delta(t.apply(warm, warm_del), twin.apply_batch(warm, warm_del));

    std::vector<WEdge> ins;
    if (batch) ins = draw_insertions(rng, *t.d, 2 * n, Weights::kRandom);
    const MsfDelta want = batch ? twin.apply_batch(ins, {}) : twin.recompute();
    FaultInjector::arm("dynamic.rooted-build", FaultKind::kBadAlloc);
    if (batch) {
      expect_same_delta(t.apply(ins, {}), want);
    } else {
      t.recompute();
    }
    EXPECT_EQ(FaultInjector::hits("dynamic.rooted-build"), 1u);
    FaultInjector::disarm_all();

    EXPECT_EQ(t.d->forest_edge_ids(), twin.forest_edge_ids());
    EXPECT_TRUE(same_bits(t.d->total_weight(), twin.total_weight()));
    EXPECT_EQ(t.d->num_trees(), twin.num_trees());
    const EdgeStore& a = t.d->store();
    const EdgeStore& b = twin.store();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.num_live(), b.num_live());
    for (EdgeId id = 0; id < a.size(); ++id) {
      EXPECT_EQ(a.edge(id), b.edge(id)) << id;
      EXPECT_EQ(a.is_live(id), b.is_live(id)) << id;
    }

    FaultInjector::arm("dynamic.rooted-build", FaultKind::kBadAlloc, 1u << 30);
    const std::vector<WEdge> next = draw_insertions(rng, *t.d, 3, Weights::kRandom);
    const std::vector<EdgeId> next_del = draw_deletions(rng, *t.d, 3, 1);
    expect_same_delta(t.apply(next, next_del), twin.apply_batch(next, next_del));
    EXPECT_EQ(FaultInjector::hits("dynamic.rooted-build"), 1u);
    FaultInjector::disarm_all();
  }
}

TEST_P(DynamicForestKruskalCases, StarCutIntoAboutNPieces) {
  // A light star on n vertices with heavier chords between leaves.  One
  // batch cuts three quarters of the spokes, so F' has about n pieces and
  // the replacement Borůvka contracts nearly nothing.
  const VertexId n = 400;
  Rng rng(23 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g(n);
  for (VertexId v = 1; v < n; ++v) g.add_edge(0, v, 0.01 * rng.next_double());
  for (int i = 0; i < 5 * static_cast<int>(n); ++i) {
    const auto u = 1 + static_cast<VertexId>(rng.next_below(n - 1));
    auto v = 1 + static_cast<VertexId>(rng.next_below(n - 2));
    if (v >= u) ++v;
    g.add_edge(u, v, rng.next_double());
  }
  Checked t(g, &team);
  t.apply(draw_insertions(rng, *t.d, 4, Weights::kRandom), {});
  std::vector<EdgeId> del;
  for (VertexId v = 1; v < n; ++v) {
    if (v % 4 != 0) del.push_back(v - 1);  // spoke (0, v) is store id v − 1
  }
  const MsfDelta d = t.apply(draw_insertions(rng, *t.d, 8, Weights::kRandom), del);
  EXPECT_FALSE(d.recomputed_from_scratch);
  EXPECT_GT(d.forest_added.size(), n / 2);
  t.apply({}, draw_deletions(rng, *t.d, 40, 10));
  t.apply(draw_insertions(rng, *t.d, 20, Weights::kRandom), {});
}

TEST_P(DynamicForestKruskalCases, MostVerticesIsolated) {
  // Edges only among the first 150 of 400 vertices: most trees are single
  // vertices, roots with no path to walk, until insertions reach them.
  const VertexId n = 400;
  const VertexId used = 150;
  Rng rng(37 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g(n);
  for (int i = 0; i < 4 * static_cast<int>(used); ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(used));
    auto v = static_cast<VertexId>(rng.next_below(used - 1));
    if (v >= u) ++v;
    g.add_edge(u, v, rng.next_double());
  }
  Checked t(g, &team);
  for (int step = 0; step < 12; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<WEdge> ins;
    if (step % 3 != 1) ins = draw_insertions(rng, *t.d, 6, Weights::kRandom);
    t.apply(ins, draw_deletions(rng, *t.d, step % 3 == 0 ? 0 : 3, 2));
    EXPECT_GE(t.d->num_trees(), static_cast<std::size_t>(n - used) - 6 * 12);
  }
  EXPECT_GE(t.sparsified_changes, 6);
}

TEST_P(DynamicForestKruskalCases, TiedAndParallelCrossingEdges) {
  // Two paths A = [0, 60) and B = [60, 120) joined by the bridge (59, 60).
  // Cutting the bridge leaves every crossing edge joining the same two
  // pieces: parallels of one pair and other pairs, at weights −0.0, 0.0 and
  // 0.5, so only the store-id tie-break picks the replacement.
  const VertexId n = 120;
  Rng rng(41 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g(n);
  for (VertexId v = 1; v < n; ++v) {
    g.add_edge(v - 1, v, v == 60 ? -1.0 : -2.0);
  }
  for (int i = 0; i < 120; ++i) {
    static constexpr Weight kLevels[] = {0.0, -0.0, 0.5};
    const Weight w = kLevels[rng.next_below(3)];
    if (i % 3 == 0) {
      g.add_edge(i % 2 == 0 ? 10 : 70, i % 2 == 0 ? 70 : 10, w);  // parallels
    } else {
      g.add_edge(static_cast<VertexId>(rng.next_below(60)),
                 60 + static_cast<VertexId>(rng.next_below(60)), w);
    }
  }
  Checked t(g, &team);
  const EdgeId bridge = 59;
  ASSERT_TRUE(std::binary_search(t.d->forest_edge_ids().begin(),
                                 t.d->forest_edge_ids().end(), bridge));
  const MsfDelta d = t.apply({}, {bridge});
  ASSERT_EQ(d.forest_added.size(), 1u);
  // Fresh parallels of the replacement, tied with it both ways, and a cut
  // of it in the same batch.
  const WEdge r = t.d->store().edge(d.forest_added[0]);
  t.apply({WEdge{r.v, r.u, -0.0}, WEdge{r.u, r.v, 0.0}, WEdge{r.u, r.v, r.w}},
          {d.forest_added[0]});
  t.apply({WEdge{10, 70, -0.0}}, draw_deletions(rng, *t.d, 2, 3));
}

TEST_P(DynamicForestKruskalCases, TreeEdgeDeletedAndReinsertedInOneBatch) {
  Rng rng(53 + static_cast<std::uint64_t>(GetParam()));
  const VertexId n = 200;
  EdgeList g(n);
  for (int i = 0; i < 600; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n - 1));
    if (v >= u) ++v;
    g.add_edge(u, v, rng.next_double());
  }
  Checked t(g, &team);
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::vector<EdgeId>& f = t.d->forest_edge_ids();
    const EdgeId id = f[rng.next_below(f.size())];
    const WEdge e = t.d->store().edge(id);
    // The same edge again (flipped on odd rounds), a lighter and a heavier
    // parallel.  The cut edge was the lightest across its cut, so the
    // lighter parallel enters in its place.
    const WEdge same = round % 2 == 0 ? e : WEdge{e.v, e.u, e.w};
    const MsfDelta d =
        t.apply({same, WEdge{e.u, e.v, e.w * 0.5}, WEdge{e.v, e.u, e.w + 1.0}},
                {id});
    EXPECT_EQ(d.forest_removed, std::vector<EdgeId>{id});
    ASSERT_EQ(d.forest_added.size(), 1u);
    EXPECT_EQ(d.forest_added[0], t.d->store().size() - 2);
  }
}

TEST_P(DynamicForestKruskalCases, CompactionAndRestoreBetweenKruskalBatches) {
  Rng rng(67 + static_cast<std::uint64_t>(GetParam()));
  const VertexId n = 300;
  EdgeList g(n);
  for (int i = 0; i < 900; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n - 1));
    if (v >= u) ++v;
    g.add_edge(u, v, rng.next_double());
  }
  Checked t(g, &team);
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Kruskal batches on both sides of each compaction and restore; the
    // deletions leave tombstones for the compaction to drop.
    t.apply(draw_insertions(rng, *t.d, 6, Weights::kRandom),
            draw_deletions(rng, *t.d, 3, 6));
    t.compact();
    t.apply(draw_insertions(rng, *t.d, 6, Weights::kRandom),
            draw_deletions(rng, *t.d, 3, 6));
    t.apply(draw_insertions(rng, *t.d, 6, Weights::kRandom), {});
    t.restore();
    t.apply({}, draw_deletions(rng, *t.d, 3, 2));
  }
  EXPECT_GE(t.sparsified_changes, 12);
}

/// A path 0 — 1 — … — n−1 of edges lighter than 1e-3, so the MSF is the
/// path and vertex 0, the least, roots it.
EdgeList light_path(VertexId n) {
  EdgeList g(n);
  for (VertexId v = 1; v < n; ++v) g.add_edge(v - 1, v, 1e-3 * v / n);
  return g;
}

/// `k` random chords inside [lo, hi), at weights in [w, w + 1).
void add_chords(EdgeList& g, VertexId lo, VertexId hi, int k, Weight w,
                Rng& rng) {
  for (int i = 0; i < k; ++i) {
    const auto u = lo + static_cast<VertexId>(rng.next_below(hi - lo));
    auto v = lo + static_cast<VertexId>(rng.next_below(hi - lo - 1));
    if (v >= u) ++v;
    g.add_edge(u, v, w + rng.next_double());
  }
}

TEST_P(DynamicForestKruskalCases, MiddlePieceSmallReplacementJoinsTheOuterPieces) {
  // One path cut twice into pieces A = [0, 600), B = [600, 603) and
  // C = [603, 615).  B is the smallest, so the searches from both of its
  // cuts are exhausted first; the tree is done only once C is too, and the
  // lightest crossing edges are the A–C chords.  A search that stopped each
  // cut at its first exhausted side would never read them, and would join
  // A, B and C through B's heavy edges instead.
  const VertexId n = 615;
  Rng rng(71 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g = light_path(n);
  add_chords(g, 0, 600, 3000, 1.0, rng);
  for (int i = 0; i < 4; ++i) {
    g.add_edge(static_cast<VertexId>(rng.next_below(600)),
               603 + static_cast<VertexId>(rng.next_below(12)),
               0.5 + 0.01 * i);  // A–C
  }
  for (const VertexId b : {600u, 601u, 602u}) {
    g.add_edge(b, static_cast<VertexId>(rng.next_below(600)), 5.0);  // A–B
    g.add_edge(b, 603 + static_cast<VertexId>(rng.next_below(12)), 6.0);  // B–C
  }
  Checked t(g, &team);
  // Path edge (v − 1, v) is store id v − 1.
  const MsfDelta d = t.apply({}, {599, 602});
  EXPECT_EQ(d.replacement_path, dynamic::ReplacementPath::kSearch);
  EXPECT_GT(d.search_arcs, 0u);
  ASSERT_EQ(d.forest_added.size(), 2u);
  const WEdge& ac = t.d->store().edge(d.forest_added[0]);
  EXPECT_TRUE(ac.u < 600 && ac.v >= 603) << ac.u << " " << ac.v;
}

TEST_P(DynamicForestKruskalCases, PathCutInTheMiddleFallsBackToTheSweep) {
  // Cutting a path in the middle leaves two pieces of half the graph each:
  // the search passes kSearchFraction of the live edges before either is
  // exhausted, and the batch labels and sweeps instead.
  const VertexId n = 400;
  Rng rng(83 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g = light_path(n);
  add_chords(g, 0, n, 800, 1.0, rng);
  Checked t(g, &team);
  const MsfDelta d = t.apply(draw_insertions(rng, *t.d, 4, Weights::kRandom),
                             {n / 2 - 1});
  EXPECT_EQ(d.replacement_path, dynamic::ReplacementPath::kSweep);
  EXPECT_GT(static_cast<double>(d.search_arcs),
            dynamic::kSearchFraction * static_cast<double>(d.live_edges - 4));
  // A cut near the end of the path searches again.
  EXPECT_EQ(t.apply({}, {n - 3}).replacement_path,
            dynamic::ReplacementPath::kSearch);
}

TEST_P(DynamicForestKruskalCases, OneStarLeafSearchesOnlyTheLeaf) {
  // A star's centre 0 roots it and has degree n − 1.  Cutting one spoke
  // leaves the leaf alone: its search is exhausted after the leaf's few
  // arcs, while the centre's search reads about as many.
  const VertexId n = 2000;
  Rng rng(97 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g(n);
  for (VertexId v = 1; v < n; ++v) g.add_edge(0, v, 1e-3 * rng.next_double());
  add_chords(g, 1, n, 4000, 1.0, rng);
  Checked t(g, &team);
  for (const VertexId leaf : {7u, 1234u, n - 1}) {
    SCOPED_TRACE("leaf " + std::to_string(leaf));
    const MsfDelta d = t.apply({}, {leaf - 1});  // spoke (0, v) is id v − 1
    EXPECT_EQ(d.replacement_path, dynamic::ReplacementPath::kSearch);
    EXPECT_LT(d.search_arcs, 64u);
    EXPECT_EQ(d.forest_added.size(), 1u);
  }
}

TEST_P(DynamicForestKruskalCases, RandomBatchesOnBothSidesOfTheSearchLimit) {
  // Cutting three forest edges at forest leaves leaves pieces of one vertex,
  // far below the search limit; cutting a fifth of the forest leaves pieces
  // that hold most of the graph, far above it.  Both kinds, with insertions and
  // non-tree deletions, decide like Kruskal.
  const VertexId n = 600;
  Rng rng(101 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g(n);
  add_chords(g, 0, n, 2400, 0.0, rng);
  Checked t(g, &team);
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Forest edges with an end of forest degree 1.
    std::vector<std::size_t> degree(n, 0);
    const std::vector<EdgeId>& f = t.d->forest_edge_ids();
    for (const EdgeId id : f) {
      ++degree[t.d->store().edge(id).u];
      ++degree[t.d->store().edge(id).v];
    }
    std::vector<EdgeId> del;
    for (const EdgeId id : f) {
      const WEdge& e = t.d->store().edge(id);
      if ((degree[e.u] == 1 || degree[e.v] == 1) && del.size() < 3 &&
          rng.next_below(8) == 0) {
        del.push_back(id);
      }
    }
    ASSERT_EQ(del.size(), 3u);
    for (const EdgeId id : draw_deletions(rng, *t.d, 0, 4)) {
      if (!std::binary_search(f.begin(), f.end(), id)) del.push_back(id);
    }
    std::sort(del.begin(), del.end());
    del.erase(std::unique(del.begin(), del.end()), del.end());
    const MsfDelta small =
        t.apply(draw_insertions(rng, *t.d, 6, Weights::kRandom), del);
    EXPECT_EQ(small.replacement_path, dynamic::ReplacementPath::kSearch);

    const MsfDelta big = t.apply(draw_insertions(rng, *t.d, 6, Weights::kRandom),
                                 draw_deletions(rng, *t.d, n / 5, 4));
    EXPECT_EQ(big.replacement_path, dynamic::ReplacementPath::kSweep);
  }
}

/// A path 0 — 1 — … — n−1 at tiny weights but for the edges (v − 1, v)
/// named in `heavy`, each with its weight.  Vertex 0, the least, roots it.
EdgeList weighted_path(VertexId n,
                       std::initializer_list<std::pair<VertexId, Weight>> heavy) {
  EdgeList g = light_path(n);
  for (const auto& [v, w] : heavy) g.edges[v - 1].w = w;
  return g;
}

TEST_P(DynamicForestKruskalCases, CandidatesAlongALongPathMakeManyChains) {
  // Insertions with endpoints spread along one long path: every walk runs
  // to vertex 0, so the gathered edges are one path with many terminals on
  // it and long chains between them.
  const VertexId n = 3000;
  Rng rng(107 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g = light_path(n);
  add_chords(g, 0, n, 3000, 1.0, rng);
  Checked t(g, &team);
  for (int step = 0; step < 6; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<WEdge> ins;
    for (int i = 0; i < 12; ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      auto v = static_cast<VertexId>(rng.next_below(n - 1));
      if (v >= u) ++v;
      ins.push_back(WEdge{u, v, 1e-3 * rng.next_double()});
    }
    const MsfDelta d = t.apply(ins, {});
    EXPECT_GT(d.gathered_edges, 10 * d.path_records);
    EXPECT_LE(d.path_records, 2 * 2 * ins.size() - 1);
  }
  EXPECT_GE(t.sparsified_changes, 5);
}

TEST_P(DynamicForestKruskalCases, DanglingChainAboveTheTopKeyKeepsTheHeaviestEdge) {
  // The walks from 50, 100, 200 and 400 meet at 50; the chain from 50 up
  // to the root 0 meets no other key vertex and holds the heaviest forest
  // edge, (0, 1).  It is all bridges and stays.  The insertion (100, 200)
  // closes a cycle whose heaviest edge is (150, 151); (50, 400) is heavier
  // than every edge of its cycle.
  const VertexId n = 600;
  Checked t(weighted_path(n, {{1, 10.0}, {151, 3.0}}), &team);
  const EdgeId first_new = t.d->store().size();
  const MsfDelta d =
      t.apply({WEdge{100, 200, -1.0}, WEdge{50, 400, 7.0}}, {});
  EXPECT_EQ(d.forest_removed, std::vector<EdgeId>{150});  // (150, 151)
  EXPECT_EQ(d.forest_added, std::vector<EdgeId>{first_new});
  // 400 → 200 → 100 → 50 sorted; 50 → 0 dropped.
  EXPECT_EQ(d.gathered_edges, 400u);
  EXPECT_EQ(d.path_records, 3u);
  EXPECT_TRUE(std::binary_search(t.d->forest_edge_ids().begin(),
                                 t.d->forest_edge_ids().end(), EdgeId{0}));
}

TEST_P(DynamicForestKruskalCases, StarWhoseInsertionsJoinLeaves) {
  // Every insertion joins two leaves of a star rooted at its centre 0, so
  // the centre is the one key vertex that is not a terminal, and each
  // touched spoke is a chain of its own.
  const VertexId n = 500;
  Rng rng(109 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g(n);
  for (VertexId v = 1; v < n; ++v) g.add_edge(0, v, 0.5 + 0.5 * rng.next_double());
  add_chords(g, 1, n, 2000, 1.0, rng);
  Checked t(g, &team);
  for (int step = 0; step < 5; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<WEdge> ins;
    std::vector<VertexId> leaves;
    for (int i = 0; i < 20; ++i) {
      const auto u = 1 + static_cast<VertexId>(rng.next_below(n - 1));
      auto v = 1 + static_cast<VertexId>(rng.next_below(n - 2));
      if (v >= u) ++v;
      ins.push_back(WEdge{u, v, rng.next_double()});
      leaves.push_back(u);
      leaves.push_back(v);
    }
    std::sort(leaves.begin(), leaves.end());
    leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
    const MsfDelta d = t.apply(ins, {});
    // The first batch roots the star at 0; the later ones walk from leaves
    // of a re-rooted forest, where only the bound holds.
    if (step == 0) {
      EXPECT_EQ(d.gathered_edges, leaves.size());
      EXPECT_EQ(d.path_records, leaves.size());
    }
    EXPECT_LE(d.path_records, 2 * leaves.size() - 1);
  }
  EXPECT_GE(t.sparsified_changes, 4);
}

TEST_P(DynamicForestKruskalCases, CandidateEndpointSplitsAnotherCandidatesChain) {
  // (10, 300) alone would make one chain 300 → 10 with max (200, 201).  The
  // endpoint 150 of (150, 500) lies inside it and splits it at 150: the
  // pass must see that (10, 300) enters before (150, 500) is decided, and
  // that (200, 201) then closes a cycle with both.
  const VertexId n = 600;
  Checked t(weighted_path(n, {{101, 2.0}, {201, 3.0}}), &team);
  const EdgeId first_new = t.d->store().size();
  const MsfDelta d =
      t.apply({WEdge{10, 300, 2.5}, WEdge{150, 500, 2.8}}, {});
  EXPECT_EQ(d.forest_removed, std::vector<EdgeId>{200});  // (200, 201)
  EXPECT_EQ(d.forest_added, std::vector<EdgeId>{first_new});
  // 500 → 300 → 150 → 10 sorted; 10 → 0 dropped.
  EXPECT_EQ(d.path_records, 3u);
}

TEST_P(DynamicForestKruskalCases, CutStopsTheWalksPartwayUpAChain) {
  // Cutting (300, 301) stops every walk from above it at 301.  The
  // replacement (100, 380) and the insertion (350, 450) make 350 and 380
  // key vertices; the chain 350 → 301 ends at the cut and is dropped.  The
  // insertion outbids (420, 421), the heaviest edge between 380 and 450.
  const VertexId n = 600;
  EdgeList g = weighted_path(n, {{361, 4.0}, {421, 4.5}});
  const EdgeId first_chord = g.num_edges();
  g.add_edge(100, 380, 5.0);
  g.add_edge(50, 420, 6.0);
  Checked t(g, &team);
  const EdgeId first_new = t.d->store().size();
  const MsfDelta d = t.apply({WEdge{350, 450, 4.2}}, {300});
  EXPECT_EQ(d.forest_removed, (std::vector<EdgeId>{300, 420}));
  EXPECT_EQ(d.forest_added, (std::vector<EdgeId>{first_chord, first_new}));
  // 450 → 380 → 350 sorted; 350 → 301 and 100 → 0 dropped.
  EXPECT_EQ(d.path_records, 2u);
}

TEST_P(DynamicForestKruskalCases, PathRecordsStayUnderTwiceTheTerminals) {
  // Key vertices are the terminals and the branch points of the gathered
  // forest, whose leaves are all terminals, so there are fewer than twice
  // as many as terminals; each sends up at most one record.
  const VertexId n = 2000;
  Rng rng(113 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g(n);
  add_chords(g, 0, n, 6000, 0.0, rng);
  Checked t(g, &team);
  for (int step = 0; step < 20; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::vector<WEdge> ins =
        draw_insertions(rng, *t.d, 1 + rng.next_below(64), Weights::kRandom);
    std::vector<VertexId> terminals;
    for (const WEdge& e : ins) {
      terminals.push_back(e.u);
      terminals.push_back(e.v);
    }
    std::sort(terminals.begin(), terminals.end());
    terminals.erase(std::unique(terminals.begin(), terminals.end()),
                    terminals.end());
    const MsfDelta d = t.apply(ins, {});
    EXPECT_LE(d.path_records, 2 * terminals.size() - 1);
    EXPECT_LE(d.path_records, d.gathered_edges);
  }
  EXPECT_GE(t.sparsified_changes, 10);
}

/// A DynamicMsf on the case's team and a twin on one thread, both checked
/// against Kruskal: every batch runs on both, and their searches must read
/// the same arcs in the same rounds and take the same path.
struct Twins {
  ThreadTeam one{1};
  Checked t;
  Checked ref;

  Twins(const EdgeList& g, ThreadTeam* team) : t(g, team), ref(g, &one) {}

  MsfDelta apply(const std::vector<WEdge>& ins, const std::vector<EdgeId>& del) {
    const MsfDelta a = t.apply(ins, del);
    const MsfDelta b = ref.apply(ins, del);
    EXPECT_EQ(a.replacement_path, b.replacement_path);
    EXPECT_EQ(a.search_arcs, b.search_arcs);
    EXPECT_EQ(a.search_pieces, b.search_pieces);
    EXPECT_EQ(a.search_rounds, b.search_rounds);
    EXPECT_EQ(a.largest_piece_arcs, b.largest_piece_arcs);
    return a;
  }
};

TEST_P(DynamicForestKruskalCases, AdjacentCutsNameTheMiddlePieceOnce) {
  // Cutting (449, 450) and (450, 451) of a path rooted at 0 leaves 450 a
  // piece of its own: the child end of one cut is the parent end of the
  // other, so that walk ends where it starts.  With (480, 481) cut too,
  // the pieces are [0, 450), {450}, [451, 481) and [481, 500).
  const VertexId n = 500;
  Rng rng(127 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g = light_path(n);
  add_chords(g, 0, 450, 3000, 1.0, rng);
  add_chords(g, 0, n, 200, 2.0, rng);
  for (const VertexId v : {450u, 460u, 490u}) g.add_edge(v, v - 440, 3.0);
  Twins t(g, &team);
  const MsfDelta d = t.apply({}, {449, 450, 480});
  EXPECT_EQ(d.replacement_path, dynamic::ReplacementPath::kSearch);
  EXPECT_EQ(d.search_pieces, 4u);
  EXPECT_EQ(d.forest_added.size(), 3u);
}

TEST_P(DynamicForestKruskalCases, CutOfARootsChildEdge) {
  // A spider: legs of 40, 40 and 300 vertices from the root 0.  Cutting
  // the first edge of a short leg starts a walk at the root itself, which
  // names the root piece at once; the leg is the child piece.
  const VertexId n = 381;
  Rng rng(131 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g(n);
  for (VertexId v = 1; v < n; ++v) {
    const bool leg_start = v == 1 || v == 41 || v == 81;
    g.add_edge(leg_start ? 0 : v - 1, v, 1e-3 * v / n);
  }
  add_chords(g, 81, n, 1500, 1.0, rng);
  add_chords(g, 0, n, 300, 2.0, rng);
  for (const EdgeId leg : {EdgeId{0}, EdgeId{40}}) {  // (0, 1) and (0, 41)
    SCOPED_TRACE("leg " + std::to_string(leg));
    Twins t(g, &team);
    const MsfDelta d = t.apply({}, {leg});
    EXPECT_EQ(d.replacement_path, dynamic::ReplacementPath::kSearch);
    EXPECT_EQ(d.search_pieces, 2u);
    EXPECT_EQ(d.forest_added.size(), 1u);
  }
}

TEST_P(DynamicForestKruskalCases, CutsInThreeTreesInOneBatch) {
  // Three paths, [0, 200), [200, 400) and [400, 600), rooted at 0, 200 and
  // 400, each cut twice near its end into child pieces of 30 vertices, too
  // large to be exhausted before the walks: nine pieces in three piece
  // trees, each done with its root piece read only a little.
  const VertexId n = 600;
  Rng rng(137 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g(n);
  std::vector<EdgeId> del;
  for (VertexId base = 0; base < n; base += 200) {
    for (VertexId v = base + 1; v < base + 200; ++v) {
      if (v == base + 140 || v == base + 170) del.push_back(g.num_edges());
      g.add_edge(v - 1, v, 1e-3 * v / n);
    }
    add_chords(g, base, base + 140, 2000, 1.0, rng);
    add_chords(g, base, base + 200, 60, 2.0, rng);
  }
  Twins t(g, &team);
  ASSERT_EQ(t.t.d->num_trees(), 3u);
  const MsfDelta d = t.apply({}, del);
  EXPECT_EQ(d.replacement_path, dynamic::ReplacementPath::kSearch);
  EXPECT_EQ(d.search_pieces, 9u);
  EXPECT_EQ(d.forest_added.size(), 6u);
  EXPECT_EQ(d.num_trees, 3u);
}

TEST_P(DynamicForestKruskalCases, SmallChildPiecesEndTheSearchUnwalked) {
  // Cuts of the last edges of a path rooted at 0 leave child pieces of two
  // or three vertices.  They are exhausted in the first rounds, before any
  // walk looks for the root: every tree then has only its root piece left,
  // so the search names no more pieces than it has cuts.
  const VertexId n = 400;
  Rng rng(163 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g = light_path(n);
  add_chords(g, 0, n - 8, 1200, 1.0, rng);
  for (const VertexId v : {392u, 394u, 396u, 398u}) g.add_edge(v, v - 300, 2.0);
  Twins t(g, &team);
  const MsfDelta d = t.apply({}, {391, 394, 397});  // (391, 392) …
  EXPECT_EQ(d.replacement_path, dynamic::ReplacementPath::kSearch);
  EXPECT_EQ(d.search_pieces, 3u);
  EXPECT_EQ(d.forest_added.size(), 3u);
}

TEST_P(DynamicForestKruskalCases, PieceTreeThreeLevelsDeep) {
  // Cuts at (329, 330), (359, 360) and (379, 380) of a path rooted at 0
  // nest the pieces A = [0, 330) ⊃ B = [330, 360) ⊃ C = [360, 380) ⊃
  // D = [380, 400): each walk stops at the top of the piece just above.
  // The lightest crossing edges join A to D and B to C, so the labels of
  // pieces two levels apart must meet.
  const VertexId n = 400;
  Rng rng(139 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g = light_path(n);
  add_chords(g, 0, 330, 4000, 2.0, rng);
  const EdgeId ad = g.num_edges();
  g.add_edge(100, 390, 0.5);
  const EdgeId bc = g.num_edges();
  g.add_edge(340, 370, 0.6);
  g.add_edge(20, 345, 0.7);  // A–B
  g.add_edge(50, 375, 0.8);  // A–C
  Twins t(g, &team);
  const MsfDelta d = t.apply({}, {329, 359, 379});
  EXPECT_EQ(d.replacement_path, dynamic::ReplacementPath::kSearch);
  EXPECT_EQ(d.search_pieces, 4u);
  EXPECT_EQ(d.forest_added, (std::vector<EdgeId>{ad, bc, bc + 1}));
}

TEST_P(DynamicForestKruskalCases, ChildPieceLargerThanItsRootPiece) {
  // Cutting (19, 20) of a path rooted at 0 leaves a root piece of 20
  // vertices above a child piece of 580 with all the chords.  The root
  // piece, read at a quarter of the child's rate, is the one exhausted: the
  // child is read to a few times its size, not whole.
  const VertexId n = 600;
  Rng rng(149 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g = light_path(n);
  add_chords(g, 20, n, 4000, 1.0, rng);
  for (int i = 0; i < 6; ++i) {
    g.add_edge(static_cast<VertexId>(rng.next_below(20)),
               20 + static_cast<VertexId>(rng.next_below(n - 20)), 3.0 + i);
  }
  Twins t(g, &team);
  const MsfDelta d = t.apply({}, {19});
  EXPECT_EQ(d.replacement_path, dynamic::ReplacementPath::kSearch);
  EXPECT_EQ(d.search_pieces, 2u);
  // The root piece: 39 path arcs and the six crossing chords' ends.
  EXPECT_EQ(d.largest_piece_arcs, 45u);
  EXPECT_LT(d.search_arcs, 8 * d.largest_piece_arcs);
  EXPECT_EQ(d.forest_added.size(), 1u);
}

TEST_P(DynamicForestKruskalCases, SearchLimitDecidesTheSameAtEveryP) {
  // Cutting the path's edge into its last s vertices leaves a child piece
  // of s vertices; growing s by 4 at a time, the search passes the limit
  // somewhere around s = 60.  The last batch that searches and the first
  // that sweeps read the same arcs at every p.
  const VertexId n = 1200;
  Rng rng(151 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g = light_path(n);
  add_chords(g, 0, n, 2400, 1.0, rng);
  const auto limit = static_cast<std::size_t>(
      dynamic::kSearchFraction * static_cast<double>(g.num_edges() - 1));
  VertexId searched = 0;
  VertexId swept = 0;
  for (VertexId s = 4; s < 200 && swept == 0; s += 4) {
    SCOPED_TRACE("child piece of " + std::to_string(s));
    Twins t(g, &team);
    const MsfDelta d = t.apply({}, {n - s - 1});
    if (d.replacement_path == dynamic::ReplacementPath::kSearch) {
      EXPECT_LE(d.search_arcs, limit);
      searched = s;
    } else {
      EXPECT_EQ(d.replacement_path, dynamic::ReplacementPath::kSweep);
      EXPECT_GT(d.search_arcs, limit);
      swept = s;
    }
  }
  EXPECT_GT(searched, 0u);
  EXPECT_EQ(swept, searched + 4);
}

TEST_P(DynamicForestKruskalCases, ManyPiecesAreReadOnTheTeam) {
  // A broom: a core [0, 5000) with 60k heavy chords, and 96 legs of 12
  // vertices, each hanging from the core by a light edge, with 20 chords
  // inside and two to the core.  Cutting the hanging edges leaves a piece
  // per leg, each about 65 arcs, so the legs read for four rounds and the
  // walks name the core's root piece; by the second round their quotas sum
  // past what the calling thread reads alone, and the rounds from there on
  // run on the team when there is one.
  constexpr VertexId kCore = 5000;
  constexpr VertexId kLegs = 96;
  constexpr VertexId kLen = 12;
  const VertexId n = kCore + kLegs * kLen;
  Rng rng(157 + static_cast<std::uint64_t>(GetParam()));
  EdgeList g = light_path(kCore);
  g.num_vertices = n;
  add_chords(g, 0, kCore, 60000, 1.0, rng);
  std::vector<EdgeId> hanging;
  for (VertexId leg = 0; leg < kLegs; ++leg) {
    const VertexId first = kCore + leg * kLen;
    hanging.push_back(g.num_edges());
    g.add_edge(static_cast<VertexId>(rng.next_below(kCore)), first, 1e-3);
    for (VertexId v = first + 1; v < first + kLen; ++v) g.add_edge(v - 1, v, 1e-3);
    add_chords(g, first, first + kLen, 20, 1.0, rng);
    for (int i = 0; i < 2; ++i) {
      g.add_edge(static_cast<VertexId>(rng.next_below(kCore)),
                 first + static_cast<VertexId>(rng.next_below(kLen)),
                 2.0 + rng.next_double());
    }
  }
  Twins t(g, &team);
  // A first cut builds the incidence lists, so the batch below runs no
  // region but the search's.
  t.apply({}, {hanging.back()});
  hanging.pop_back();
  const std::uint64_t regions = team.regions_started();
  const MsfDelta d = t.apply({}, hanging);
  EXPECT_EQ(team.regions_started() - regions, GetParam() > 1 ? 1u : 0u);
  EXPECT_EQ(d.replacement_path, dynamic::ReplacementPath::kSearch);
  EXPECT_EQ(d.search_pieces, kLegs);
  EXPECT_GE(d.search_rounds, 4u);
  EXPECT_EQ(d.forest_added.size(), kLegs - 1);
}

/// Pieces of a light path joined by runs of tied crossing edges.  The path
/// 0 — … — n−1 is cut at each inner bound b (its edge (b − 1, b) is store
/// id b − 1) into the pieces [bounds[i], bounds[i + 1]), each with `chords`
/// heavy chords inside.  Each pair of pieces in `pairs` is joined by kRun
/// crossing edges at weight 0.5, a run of ties that only its lowest store
/// id may win, and kHeavier heavier ones.  A pair's edges alternate in
/// direction and are spread over the store between the chords, so a sweep
/// on p threads finds some of each in every thread's block.
struct TiedPieces {
  static constexpr int kRun = 4;
  static constexpr int kHeavier = 3;
  EdgeList g;
  std::vector<EdgeId> cut;
  std::vector<EdgeId> run_heads;  ///< the lowest id of each pair's run
  std::size_t crossing = 0;       ///< the crossing edges the cut leaves

  TiedPieces(const std::vector<VertexId>& bounds,
             const std::vector<std::pair<int, int>>& pairs,
             const std::vector<int>& chords, Rng& rng)
      : g(light_path(bounds.back())) {
    for (std::size_t i = 1; i + 1 < bounds.size(); ++i) cut.push_back(bounds[i] - 1);
    const auto in = [&](int piece) {
      return bounds[piece] + static_cast<VertexId>(
                                 rng.next_below(bounds[piece + 1] - bounds[piece]));
    };
    run_heads.assign(pairs.size(), 0);
    crossing = pairs.size() * (kRun + kHeavier);
    for (int k = 0; k < kRun + kHeavier; ++k) {
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto [a, b] = pairs[i];
        const Weight w = k < kRun ? 0.5 : 0.9 + rng.next_double();
        if (k == 0) run_heads[i] = g.num_edges();
        if (k % 2 == 0) {
          g.add_edge(in(a), in(b), w);
        } else {
          g.add_edge(in(b), in(a), w);
        }
      }
      for (std::size_t piece = 0; piece + 1 < bounds.size(); ++piece) {
        add_chords(g, bounds[piece], bounds[piece + 1],
                   chords[piece] / (kRun + kHeavier), 1.0, rng);
      }
    }
  }
};

TEST_P(DynamicForestKruskalCases, SweptBatchKeepsTheLowestIdOfEachTiedPair) {
  // Four pieces of 100 vertices, each with 700 chords: the search passes
  // its limit long before any piece is exhausted, and the batch sweeps.
  // Five pairs of pieces are joined, by 35 crossing edges; the
  // replacement solve reads one per pair, and the three that enter are
  // each the lowest id of its pair's run.
  Rng rng(163 + static_cast<std::uint64_t>(GetParam()));
  const std::vector<std::pair<int, int>> pairs{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 2}};
  const TiedPieces tp({0, 100, 200, 300, 400}, pairs, {700, 700, 700, 700}, rng);
  Checked t(tp.g, &team);
  const MsfDelta d = t.apply({}, tp.cut);
  EXPECT_EQ(d.replacement_path, dynamic::ReplacementPath::kSweep);
  EXPECT_EQ(d.candidate_edges, 399 - tp.cut.size() + tp.crossing);
  EXPECT_EQ(d.crossing_pairs, pairs.size());
  ASSERT_EQ(d.forest_added.size(), 3u);
  for (const EdgeId id : d.forest_added) {
    EXPECT_EQ(std::count(tp.run_heads.begin(), tp.run_heads.end(), id), 1) << id;
  }
  // An insert-only batch cuts nothing and reads no pairs.
  EXPECT_EQ(t.apply({WEdge{0, 399, 0.25}}, {}).crossing_pairs, 0u);
}

TEST_P(DynamicForestKruskalCases, SearchedBatchKeepsTheLowestIdOfEachTiedPair) {
  // The same shape with three child pieces of 10 vertices below a root
  // piece of 370: the search exhausts the child pieces, labels the root
  // piece 0, and hands the replacement solve the same one edge per pair.
  Rng rng(167 + static_cast<std::uint64_t>(GetParam()));
  const std::vector<std::pair<int, int>> pairs{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 2}};
  const TiedPieces tp({0, 370, 380, 390, 400}, pairs, {2800, 14, 14, 14}, rng);
  Checked t(tp.g, &team);
  const MsfDelta d = t.apply({}, tp.cut);
  EXPECT_EQ(d.replacement_path, dynamic::ReplacementPath::kSearch);
  EXPECT_EQ(d.candidate_edges, 399 - tp.cut.size() + tp.crossing);
  EXPECT_EQ(d.crossing_pairs, pairs.size());
  ASSERT_EQ(d.forest_added.size(), 3u);
  for (const EdgeId id : d.forest_added) {
    EXPECT_EQ(std::count(tp.run_heads.begin(), tp.run_heads.end(), id), 1) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Team, DynamicForestKruskalCases,
                         ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "p";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(DynamicForestKruskal, PathMaxBatchThatChangesTheForestDropsTheOrder) {
  ThreadTeam team(2);
  const VertexId n = 200;
  Rng rng(4242);
  EdgeList g(n);
  for (int i = 0; i < 600; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n - 1));
    if (v >= u) ++v;
    g.add_edge(u, v, rng.next_double());
  }
  Checked t(g, &team);
  std::uint64_t version = 0;
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // A Kruskal batch: the rooted forest exists from here on.
    t.apply(draw_insertions(rng, *t.d, 4, Weights::kRandom),
            draw_deletions(rng, *t.d, 1, 2));

    // A path-max batch.  Light edges change the forest (even rounds); heavy
    // ones only close cycles and leave it as it was.
    std::vector<WEdge> ins = draw_insertions(rng, *t.d, 6, Weights::kRandom);
    for (WEdge& e : ins) e.w = round % 2 == 0 ? e.w * 1e-3 : 2.0 + e.w;
    const ForestIndex idx(team, t.d->store(), t.d->forest_edge_ids(),
                          ++version);
    const std::uint64_t before = t.d->path_max_batches();
    const MsfDelta a = t.apply(ins, {}, &idx.dendrogram());
    ASSERT_EQ(t.d->path_max_batches(), before + 1);
    if (round % 2 == 0) {
      EXPECT_TRUE(a.changed_forest());
    } else {
      EXPECT_FALSE(a.changed_forest());
    }

    // Sparsified batches after it must see the forest as it is now.
    t.apply(draw_insertions(rng, *t.d, 5, Weights::kRandom), {});
    t.apply({}, draw_deletions(rng, *t.d, 2, 0));
  }
}

TEST(DynamicForestKruskal, ZeroDeadlineFailsTheSparsifiedBatch) {
  ThreadTeam team(2);
  const VertexId n = 100;
  EdgeList g(n);
  for (VertexId v = 1; v < n; ++v) g.add_edge(v - 1, v, static_cast<Weight>(v));
  for (const bool cut : {false, true}) {
    SCOPED_TRACE(cut ? "cut batch" : "insert-only batch");
    DynamicMsf d(g, make_opts(core::Algorithm::kChampion, &team));
    DynamicMsf twin(g, make_opts(core::Algorithm::kChampion, &team));
    // Build the pair index, so the failed batch has one to undo.
    ASSERT_EQ(d.store().find_live(0, 1), std::optional<EdgeId>(0));
    const EdgeId size = d.store().size();
    const std::size_t live = d.store().num_live();
    const std::vector<EdgeId> forest = d.forest_edge_ids();
    const Weight weight = d.total_weight();

    ExecutionBudget budget;
    budget.set_deadline_after(0);
    d.set_budget(&budget);
    const std::vector<WEdge> ins{WEdge{0, 50, 0.5}};
    std::vector<EdgeId> del;
    if (cut) del.push_back(d.forest_edge_ids()[10]);
    try {
      d.apply_batch(ins, del);
      FAIL() << "expected kDeadlineExceeded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
    }
    d.set_budget(nullptr);

    // Nothing of the batch is left: the store, the forest and the pair
    // index read as they did before it.
    EXPECT_EQ(d.store().size(), size);
    EXPECT_EQ(d.store().num_live(), live);
    EXPECT_EQ(d.forest_edge_ids(), forest);
    EXPECT_TRUE(same_bits(d.total_weight(), weight));
    for (VertexId v = 1; v < n; ++v) {
      EXPECT_EQ(d.store().find_live(v - 1, v), std::optional<EdgeId>(v - 1));
    }
    EXPECT_FALSE(d.store().find_live(0, 50).has_value());
    expect_kruskal_state(d);

    // The same batch, retried, decides exactly as on a twin that never saw
    // the failed one.
    expect_same_delta(d.apply_batch(ins, del), twin.apply_batch(ins, del));
    EXPECT_EQ(d.forest_edge_ids(), twin.forest_edge_ids());
    EXPECT_EQ(d.store().find_live(0, 50), twin.store().find_live(0, 50));
  }
}

TEST(DynamicForestKruskal, FillsStepTimes) {
  ThreadTeam team(2);
  Rng rng(99);
  const VertexId n = 4000;
  EdgeList g(n);
  for (int i = 0; i < 12000; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n - 1));
    if (v >= u) ++v;
    g.add_edge(u, v, rng.next_double());
  }
  core::StepTimes steps;
  DynamicMsfOptions o = make_opts(core::Algorithm::kChampion, &team);
  DynamicMsf d(g, o);
  o.msf.step_times = &steps;
  DynamicMsf traced(g, o);
  for (const bool cut : {false, true}) {
    SCOPED_TRACE(cut ? "cut batch" : "insert-only batch");
    steps = {};
    const std::vector<WEdge> ins = draw_insertions(rng, d, 64, Weights::kRandom);
    const std::vector<EdgeId> del =
        cut ? draw_deletions(rng, d, 8, 8) : std::vector<EdgeId>{};
    expect_same_delta(traced.apply_batch(ins, del), d.apply_batch(ins, del));
    EXPECT_GT(steps.connect, 0.0);
    EXPECT_GT(steps.rank_build, 0.0);
    EXPECT_EQ(steps.other, steps.rank_build);
    EXPECT_EQ(steps.find_min, 0.0);
    EXPECT_EQ(steps.compact, 0.0);
    EXPECT_GT(steps.total(), 0.0);
  }
}

}  // namespace
