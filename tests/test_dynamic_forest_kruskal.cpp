// Forest-ordered Kruskal batches: under the default backend (Champion)
// DynamicMsf applies a sparsified batch by one union-find scan over its
// weight-ordered forest merged with the sorted new candidates, instead of a
// solve of F ∪ B.  After every batch that state must be bit-identical to a
// DynamicMsf that solves its candidate sets with Bor-FAL and to sequential
// Kruskal of the live graph — forest ids, weight bits, tree count and every
// MsfDelta field — through insert-only, deletion-only and mixed batches,
// weight ties, ±0.0, parallel edges, an edgeless start, store compaction,
// recompute, scratch crossovers, the restore constructor and path-max
// batches that change the forest.  Also: the pass honours the budget and
// fills StepTimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/error.hpp"
#include "core/msf.hpp"
#include "dynamic/dynamic_msf.hpp"
#include "pprim/rng.hpp"
#include "pprim/thread_team.hpp"
#include "query/forest_index.hpp"
#include "seq/seq_msf.hpp"

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

/// The maintained state equals sequential Kruskal of the live graph, with
/// the weight summed in ascending store-id order.
void expect_kruskal_state(const DynamicMsf& d) {
  std::vector<EdgeId> ids;
  const EdgeList live = d.store().live_graph(&ids);
  const MsfResult k = seq::kruskal_msf(live);
  std::vector<EdgeId> want;
  want.reserve(k.edge_ids.size());
  for (const EdgeId e : k.edge_ids) want.push_back(ids[e]);
  std::sort(want.begin(), want.end());
  Weight w = 0;
  for (const EdgeId id : want) w += d.store().edge(id).w;
  ASSERT_EQ(d.forest_edge_ids(), want);
  EXPECT_TRUE(same_bits(d.total_weight(), w));
  EXPECT_EQ(d.num_trees(), k.num_trees);
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

/// A Champion DynamicMsf and a Bor-FAL one fed the same batches.
struct Twins {
  ThreadTeam* team;
  std::unique_ptr<DynamicMsf> kruskal;
  std::unique_ptr<DynamicMsf> solver;

  Twins(const EdgeList& g, ThreadTeam* t)
      : team(t),
        kruskal(std::make_unique<DynamicMsf>(
            g, make_opts(core::Algorithm::kChampion, t))),
        solver(std::make_unique<DynamicMsf>(
            g, make_opts(core::Algorithm::kBorFAL, t))) {}

  /// Sparsified batches that changed the forest.
  int sparsified_changes = 0;

  MsfDelta apply(const std::vector<WEdge>& ins, const std::vector<EdgeId>& del) {
    const MsfDelta a = kruskal->apply_batch(ins, del);
    const MsfDelta b = solver->apply_batch(ins, del);
    expect_same_delta(a, b);
    check();
    if (!a.recomputed_from_scratch && a.changed_forest()) ++sparsified_changes;
    return a;
  }

  void check() const {
    EXPECT_EQ(kruskal->forest_edge_ids(), solver->forest_edge_ids());
    EXPECT_TRUE(same_bits(kruskal->total_weight(), solver->total_weight()));
    EXPECT_EQ(kruskal->num_trees(), solver->num_trees());
    expect_kruskal_state(*kruskal);
  }

  /// Rebuilds both sides from copies of their stores and forests.
  void restore() {
    kruskal = std::make_unique<DynamicMsf>(
        EdgeStore(kruskal->store()), kruskal->forest_edge_ids(),
        make_opts(core::Algorithm::kChampion, team));
    solver = std::make_unique<DynamicMsf>(
        EdgeStore(solver->store()), solver->forest_edge_ids(),
        make_opts(core::Algorithm::kBorFAL, team));
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
  // p = 0 runs without a team: sequential sweep, no team regions.
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
  Twins t(g, team.get());
  t.check();

  for (int step = 0; step < 36; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    switch (step % 3) {
      case 0:  // insert-only
        t.apply(draw_insertions(rng, *t.kruskal, 1 + rng.next_below(12), mode),
                {});
        break;
      case 1:  // deletion-only, tree edges included
        t.apply({}, draw_deletions(rng, *t.kruskal, 1 + rng.next_below(4),
                                   rng.next_below(6)));
        break;
      default:  // mixed
        t.apply(draw_insertions(rng, *t.kruskal, 1 + rng.next_below(8), mode),
                draw_deletions(rng, *t.kruskal, rng.next_below(3),
                               rng.next_below(6)));
        break;
    }
    if (step == 9) {
      // Compaction renumbers ids in place; the ordered forest must follow.
      EXPECT_EQ(t.kruskal->compact_store(), t.solver->compact_store());
      t.check();
    }
    if (step == 16) {
      expect_same_delta(t.kruskal->recompute(), t.solver->recompute());
      t.check();
    }
    if (step == 22 && t.kruskal->store().num_live() > 0) {
      // A batch past the crossover fraction solves the whole live graph.
      const std::size_t live = t.kruskal->store().num_live();
      EXPECT_TRUE(
          t.apply(draw_insertions(rng, *t.kruskal, live / 2 + 1, mode), {})
              .recomputed_from_scratch);
    }
    if (step == 28) {
      t.restore();
      t.check();
    }
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
  Twins t(g, &team);
  std::uint64_t version = 0;
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // A Kruskal batch: the ordered forest exists from here on.
    t.apply(draw_insertions(rng, *t.kruskal, 4, Weights::kRandom),
            draw_deletions(rng, *t.kruskal, 1, 2));

    // A path-max batch on the Champion side.  Light edges change the forest
    // (even rounds); heavy ones only close cycles and leave it as it was.
    std::vector<WEdge> ins =
        draw_insertions(rng, *t.kruskal, 6, Weights::kRandom);
    for (WEdge& e : ins) e.w = round % 2 == 0 ? e.w * 1e-3 : 2.0 + e.w;
    const ForestIndex idx(team, t.kruskal->store(),
                          t.kruskal->forest_edge_ids(), ++version);
    const std::uint64_t before = t.kruskal->path_max_batches();
    const MsfDelta a = t.kruskal->apply_batch(ins, {}, &idx.dendrogram());
    const MsfDelta b = t.solver->apply_batch(ins, {});
    ASSERT_EQ(t.kruskal->path_max_batches(), before + 1);
    expect_same_delta(a, b);
    if (round % 2 == 0) {
      EXPECT_TRUE(a.changed_forest());
    } else {
      EXPECT_FALSE(a.changed_forest());
    }
    t.check();

    // Sparsified batches after it must see the forest as it is now.
    t.apply(draw_insertions(rng, *t.kruskal, 5, Weights::kRandom), {});
    t.apply({}, draw_deletions(rng, *t.kruskal, 2, 0));
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
