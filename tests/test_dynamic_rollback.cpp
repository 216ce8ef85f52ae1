// All-or-nothing batches: DynamicMsf::apply_batch commits a whole batch or,
// when anything fails after validation, rolls the store back and rethrows.
// Every apply path — the scratch crossover, path-max over a fresh
// dendrogram, the forest Kruskal pass and a candidate solve under an
// explicit backend — is failed with a zero deadline and with an injected
// bad_alloc (sequential fallback off), starting from a full slot buffer so
// the batch's first insertion grows it.  Afterwards the DynamicMsf and a
// StoreView taken before the batch must read bit for bit as before, and the
// retried batch must decide exactly as on a twin that never saw the failure.
// Also: an insertion that fails after an earlier one of the same batch was
// stored.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/msf.hpp"
#include "dynamic/dynamic_msf.hpp"
#include "pprim/fault.hpp"
#include "pprim/rng.hpp"
#include "pprim/thread_team.hpp"
#include "query/forest_index.hpp"

namespace {

using namespace smp;
using namespace smp::graph;
using smp::dynamic::DynamicMsf;
using smp::dynamic::DynamicMsfOptions;
using smp::dynamic::MsfDelta;
using smp::dynamic::StoreView;
using smp::query::ForestIndex;

bool same_bits(Weight a, Weight b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_edge(const WEdge& a, const WEdge& b) {
  return a.u == b.u && a.v == b.v && same_bits(a.w, b.w);
}

/// Everything a DynamicMsf exposes, read out slot by slot.
struct Frozen {
  EdgeId size = 0;
  std::size_t live = 0;
  std::vector<WEdge> slots;
  std::vector<bool> alive;
  std::vector<EdgeId> forest;
  Weight weight = 0;
  std::size_t trees = 0;
  std::uint64_t path_max_batches = 0;
};

Frozen freeze(const DynamicMsf& d) {
  Frozen f;
  f.size = d.store().size();
  f.live = d.store().num_live();
  for (EdgeId id = 0; id < f.size; ++id) {
    f.slots.push_back(d.store().edge(id));
    f.alive.push_back(d.store().is_live(id));
  }
  f.forest = d.forest_edge_ids();
  f.weight = d.total_weight();
  f.trees = d.num_trees();
  f.path_max_batches = d.path_max_batches();
  return f;
}

void expect_same(const Frozen& a, const Frozen& b) {
  ASSERT_EQ(a.size, b.size);
  EXPECT_EQ(a.live, b.live);
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_TRUE(same_edge(a.slots[i], b.slots[i])) << "slot " << i;
  }
  EXPECT_EQ(a.alive, b.alive);
  EXPECT_EQ(a.forest, b.forest);
  EXPECT_TRUE(same_bits(a.weight, b.weight));
  EXPECT_EQ(a.trees, b.trees);
  EXPECT_EQ(a.path_max_batches, b.path_max_batches);
}

/// A view and what it read when it was taken.
struct PinnedView {
  StoreView view;
  EdgeList live;
  std::vector<EdgeId> ids;
  std::vector<bool> alive;
};

PinnedView pin(const DynamicMsf& d) {
  PinnedView p;
  p.view = d.store().view();
  p.live = p.view.live_graph(&p.ids);
  for (EdgeId id = 0; id < p.view.size(); ++id) {
    p.alive.push_back(p.view.is_live(id));
  }
  return p;
}

void expect_unchanged(const PinnedView& p) {
  std::vector<EdgeId> ids;
  const EdgeList live = p.view.live_graph(&ids);
  EXPECT_EQ(ids, p.ids);
  ASSERT_EQ(live.edges.size(), p.live.edges.size());
  for (std::size_t i = 0; i < live.edges.size(); ++i) {
    EXPECT_TRUE(same_edge(live.edges[i], p.live.edges[i])) << "edge " << i;
  }
  EXPECT_EQ(p.view.num_live(), p.ids.size());
  for (EdgeId id = 0; id < p.view.size(); ++id) {
    EXPECT_EQ(p.view.is_live(id), p.alive[id]) << "slot " << id;
  }
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

enum class Path { kScratch, kPathMax, kKruskal, kCandidateSolve };
enum class Failure { kDeadline, kBadAlloc };

const char* name(Path p) {
  switch (p) {
    case Path::kScratch:
      return "scratch crossover";
    case Path::kPathMax:
      return "path-max";
    case Path::kKruskal:
      return "forest Kruskal pass";
    case Path::kCandidateSolve:
      return "Bor-EL candidate solve";
  }
  return "?";
}

DynamicMsfOptions options(Path path, ThreadTeam* team) {
  DynamicMsfOptions o;
  o.msf.algorithm = path == Path::kCandidateSolve ? core::Algorithm::kBorEL
                                                  : core::Algorithm::kChampion;
  o.msf.threads = team->size();
  o.msf.allow_sequential_fallback = false;
  o.team = team;
  // <= 0 sends every batch to the whole-graph solve; a huge value none.
  o.scratch_batch_fraction = path == Path::kScratch ? 0.0 : 1e9;
  return o;
}

/// The fault point inside each path that an armed bad_alloc trips.
const char* fault_site(Path p) {
  switch (p) {
    case Path::kScratch:
      return "bor-fal.find-min";  // Champion's engine at m <= 4n
    case Path::kPathMax:
      return "dynamic.path-max";
    case Path::kKruskal:
      return "dynamic.kruskal-scan";
    case Path::kCandidateSolve:
      return "bor-el.find-min";
  }
  return "";
}

/// A connected random graph: a spanning path plus random chords, m = 3n.
EdgeList random_graph(VertexId n, Rng& rng) {
  EdgeList g(n);
  for (VertexId v = 1; v < n; ++v) g.add_edge(v - 1, v, rng.next_double());
  while (g.edges.size() < 3 * static_cast<std::size_t>(n)) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n - 1));
    if (v >= u) ++v;
    g.add_edge(u, v, rng.next_double());
  }
  return g;
}

/// Runs `batch` on `d` with the failure armed and expects it to throw.
void apply_failing(DynamicMsf& d, Path path, Failure failure,
                   const std::vector<WEdge>& ins,
                   const std::vector<EdgeId>& del,
                   const core::Dendrogram* oracle) {
  ExecutionBudget budget;
  if (failure == Failure::kDeadline) {
    budget.set_deadline_after(0);
    d.set_budget(&budget);
  } else {
    FaultInjector::arm(fault_site(path), FaultKind::kBadAlloc);
  }
  bool threw = false;
  try {
    d.apply_batch(ins, del, oracle);
  } catch (const Error& e) {
    threw = true;
    EXPECT_EQ(e.code(), failure == Failure::kDeadline
                            ? ErrorCode::kDeadlineExceeded
                            : ErrorCode::kOutOfMemory);
  } catch (const std::bad_alloc&) {
    threw = true;
    EXPECT_EQ(failure, Failure::kBadAlloc);
  }
  EXPECT_TRUE(threw) << "the batch did not fail";
  if (failure == Failure::kBadAlloc) {
    EXPECT_GE(FaultInjector::hits(fault_site(path)), 1u);
  }
  FaultInjector::disarm_all();
  d.set_budget(nullptr);
}

TEST(DynamicRollback, EveryApplyPathLeavesNoTrace) {
  ThreadTeam team(2);
  for (const Path path : {Path::kScratch, Path::kPathMax, Path::kKruskal,
                          Path::kCandidateSolve}) {
    for (const Failure failure : {Failure::kDeadline, Failure::kBadAlloc}) {
      SCOPED_TRACE(std::string(name(path)) + ", " +
                   (failure == Failure::kDeadline ? "zero deadline"
                                                  : "injected bad_alloc"));
      Rng rng(7);
      const VertexId n = 300;
      const EdgeList g = random_graph(n, rng);
      // m >= 16 edges fill the store's first slot buffer exactly, so the
      // batch's first insertion grows it.
      DynamicMsf d(g, options(path, &team));
      DynamicMsf twin(g, options(path, &team));
      ASSERT_EQ(d.forest_edge_ids(), twin.forest_edge_ids());
      // Build the pair index, so the failed batch has one to undo.
      ASSERT_TRUE(d.store().find_live(0, 1).has_value());

      // Deletions: non-tree edges always; forest edges too where the path
      // takes a cut (path-max only serves batches that keep the forest).
      std::vector<EdgeId> del;
      const std::vector<EdgeId>& forest = d.forest_edge_ids();
      for (EdgeId id = 0; id < d.store().size() && del.size() < 4; ++id) {
        if (!std::binary_search(forest.begin(), forest.end(), id)) {
          del.push_back(id);
        }
      }
      if (path != Path::kPathMax) {
        del.push_back(forest[forest.size() / 3]);
        del.push_back(forest[forest.size() / 2]);
      }
      std::vector<WEdge> ins;
      for (int i = 0; i < 6; ++i) {
        const auto u = static_cast<VertexId>(rng.next_below(n));
        const auto v =
            static_cast<VertexId>((u + 1 + rng.next_below(n - 1)) % n);
        ins.push_back(WEdge{u, v, rng.next_double() * 1e-3});
      }
      std::optional<ForestIndex> idx;
      if (path == Path::kPathMax) {
        idx.emplace(team, d.store(), d.forest_edge_ids(), 1);
      }
      const core::Dendrogram* oracle = idx ? &idx->dendrogram() : nullptr;

      const Frozen before = freeze(d);
      const PinnedView view = pin(d);
      std::vector<std::optional<EdgeId>> pairs;
      for (const WEdge& e : g.edges) {
        pairs.push_back(d.store().find_live(e.u, e.v));
      }

      apply_failing(d, path, failure, ins, del, oracle);

      expect_same(freeze(d), before);
      expect_unchanged(view);
      for (std::size_t i = 0; i < g.edges.size(); ++i) {
        EXPECT_EQ(d.store().find_live(g.edges[i].u, g.edges[i].v), pairs[i]);
      }

      // The retried batch takes the intended path and decides exactly as on
      // the twin that never saw the failure.
      const MsfDelta a = d.apply_batch(ins, del, oracle);
      const MsfDelta b = twin.apply_batch(ins, del, oracle);
      expect_same_delta(a, b);
      expect_same(freeze(d), freeze(twin));
      EXPECT_EQ(a.recomputed_from_scratch, path == Path::kScratch);
      EXPECT_EQ(d.path_max_batches(), path == Path::kPathMax ? 1u : 0u);
      expect_unchanged(view);
    }
  }
}

TEST(DynamicRollback, InsertionFailingAfterAnEarlierOneWasStored) {
  // 15 edges leave exactly one free slot in the store's 16-slot buffer: the
  // batch's first insertion lands in it, the second must grow the buffer,
  // and the growth fails.
  const VertexId n = 16;
  EdgeList g(n);
  for (VertexId v = 1; v < n; ++v) g.add_edge(v - 1, v, static_cast<Weight>(v));
  for (const Path path : {Path::kKruskal, Path::kCandidateSolve}) {
    SCOPED_TRACE(name(path));
    ThreadTeam team(2);
    DynamicMsf d(g, options(path, &team));
    DynamicMsf twin(g, options(path, &team));
    ASSERT_EQ(d.store().find_live(3, 4), std::optional<EdgeId>(3));
    const std::vector<WEdge> ins{WEdge{0, 9, 0.5}, WEdge{2, 12, 0.25}};
    const std::vector<EdgeId> del{d.forest_edge_ids()[5]};
    const Frozen before = freeze(d);
    const PinnedView view = pin(d);

    FaultInjector::arm("edge-store.grow", FaultKind::kBadAlloc);
    EXPECT_THROW(d.apply_batch(ins, del), std::bad_alloc);
    EXPECT_EQ(FaultInjector::hits("edge-store.grow"), 1u);
    FaultInjector::disarm_all();

    expect_same(freeze(d), before);
    expect_unchanged(view);
    EXPECT_EQ(d.store().find_live(5, 6), std::optional<EdgeId>(5));
    EXPECT_FALSE(d.store().find_live(0, 9).has_value());

    expect_same_delta(d.apply_batch(ins, del), twin.apply_batch(ins, del));
    expect_same(freeze(d), freeze(twin));
    EXPECT_EQ(d.store().find_live(0, 9), std::optional<EdgeId>(15));
    EXPECT_FALSE(d.store().find_live(5, 6).has_value());
  }
}

TEST(DynamicRollback, RejectedBatchMutatesNothing) {
  // Validation failures throw before the store is touched; a second bad
  // batch after a rolled-back one still finds the store as it was.
  ThreadTeam team(2);
  Rng rng(3);
  const EdgeList g = random_graph(64, rng);
  DynamicMsf d(g, options(Path::kKruskal, &team));
  const Frozen before = freeze(d);
  const std::vector<WEdge> bad_ins{WEdge{0, 1, 0.5}, WEdge{3, 3, 1.0}};
  EXPECT_THROW(d.apply_batch(bad_ins, {}), Error);
  apply_failing(d, Path::kKruskal, Failure::kDeadline, {WEdge{0, 5, 0.1}},
                {d.forest_edge_ids()[0]}, nullptr);
  const std::vector<EdgeId> dup{1, 1};
  EXPECT_THROW(d.apply_batch({}, dup), Error);
  expect_same(freeze(d), before);
}

}  // namespace
