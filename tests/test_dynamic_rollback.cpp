// All-or-nothing batches: DynamicMsf::apply_batch commits a whole batch or,
// when anything fails after validation, rolls the store back and rethrows.
// Every apply path — the scratch crossover, path-max over a fresh
// dendrogram and the forest Kruskal pass — is failed with a zero deadline
// and with an injected bad_alloc (sequential fallback off), starting from a
// full slot buffer so the batch's first insertion grows it.  Afterwards the DynamicMsf and a
// StoreView taken before the batch must read bit for bit as before, and the
// retried batch must decide exactly as on a twin that never saw the failure.
// Also: a failed cut batch leaves the rooted forest the Kruskal pass walks
// as it was, a cancel at a budget check inside the piece search's team
// region unwinds the batch, a fault or a cancel inside either region of
// the sweep fallback (the piece labels and the slot sweep) unwinds it too,
// and an insertion that fails after an earlier one of the same batch was
// stored.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/msf.hpp"
#include "dynamic/dynamic_msf.hpp"
#include "pprim/fault.hpp"
#include "pprim/rng.hpp"
#include "pprim/thread_team.hpp"
#include "seq/seq_msf.hpp"
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

enum class Path { kScratch, kPathMax, kKruskal };
enum class Failure { kDeadline, kBadAlloc };

const char* name(Path p) {
  switch (p) {
    case Path::kScratch:
      return "scratch crossover";
    case Path::kPathMax:
      return "path-max";
    case Path::kKruskal:
      return "forest Kruskal pass";
  }
  return "?";
}

DynamicMsfOptions options(ThreadTeam* team) {
  DynamicMsfOptions o;
  o.msf.threads = team->size();
  o.msf.allow_sequential_fallback = false;
  o.team = team;
  return o;
}

/// The fault point inside each path that an armed bad_alloc trips.
const char* fault_site(Path p) {
  switch (p) {
    case Path::kScratch:
      return "champion.light-scan";  // every Champion solve scans
    case Path::kPathMax:
      return "dynamic.path-max";
    case Path::kKruskal:
      return "dynamic.kruskal-scan";
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
  for (const Path path : {Path::kScratch, Path::kPathMax, Path::kKruskal}) {
    for (const Failure failure : {Failure::kDeadline, Failure::kBadAlloc}) {
      SCOPED_TRACE(std::string(name(path)) + ", " +
                   (failure == Failure::kDeadline ? "zero deadline"
                                                  : "injected bad_alloc"));
      Rng rng(7);
      const VertexId n = 300;
      const EdgeList g = random_graph(n, rng);
      // m >= 16 edges fill the store's first slot buffer exactly, so the
      // batch's first insertion grows it.
      DynamicMsf d(g, options(&team));
      DynamicMsf twin(g, options(&team));
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
      // The scratch crossover takes a batch of at least kScratchBatchFraction
      // of the live edges after it (300 + 6 ops vs 0.25 x 1194 live, a
      // Champion solve that runs its light scan); every other path a small
      // one.
      const std::size_t num_ins = path == Path::kScratch ? n : 6;
      std::vector<WEdge> ins;
      for (std::size_t i = 0; i < num_ins; ++i) {
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
      const std::size_t ops = ins.size() + del.size();
      const std::size_t live_after = d.store().num_live() + ins.size() - del.size();
      ASSERT_EQ(static_cast<double>(ops) >=
                    dynamic::kScratchBatchFraction * static_cast<double>(live_after),
                path == Path::kScratch);

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

TEST(DynamicRollback, FailedCutBatchLeavesTheRootedForest) {
  // A first Kruskal batch builds the rooted forest the pass walks.  A cut
  // batch that then fails — at the scan's fault point or by deadline — must
  // leave it describing the entry forest: the batches after it decide
  // exactly as on a twin that never saw the failed one.
  ThreadTeam team(2);
  for (const Failure failure : {Failure::kDeadline, Failure::kBadAlloc}) {
    SCOPED_TRACE(failure == Failure::kDeadline ? "zero deadline"
                                               : "injected bad_alloc");
    Rng rng(19);
    const VertexId n = 300;
    const EdgeList g = random_graph(n, rng);
    DynamicMsf d(g, options(&team));
    DynamicMsf twin(g, options(&team));
    const auto light_edges = [&](std::size_t k) {
      std::vector<WEdge> ins;
      for (std::size_t i = 0; i < k; ++i) {
        const auto u = static_cast<VertexId>(rng.next_below(n));
        const auto v =
            static_cast<VertexId>((u + 1 + rng.next_below(n - 1)) % n);
        ins.push_back(WEdge{u, v, rng.next_double() * 1e-2});
      }
      return ins;
    };
    const auto forest_ids = [&](std::initializer_list<std::size_t> at) {
      std::vector<EdgeId> del;
      for (const std::size_t i : at) del.push_back(d.forest_edge_ids()[i]);
      return del;
    };

    // Warm-up: a Kruskal batch that cuts, inserts and changes the forest.
    const std::vector<WEdge> warm = light_edges(6);
    const std::vector<EdgeId> warm_del = forest_ids({7, 100});
    const MsfDelta w = d.apply_batch(warm, warm_del);
    expect_same_delta(w, twin.apply_batch(warm, warm_del));
    ASSERT_FALSE(w.recomputed_from_scratch);
    ASSERT_GT(w.forest_added.size(), 2u);

    const std::vector<WEdge> ins = light_edges(6);
    const std::vector<EdgeId> del = forest_ids({3, 50, 150, 250});
    const Frozen before = freeze(d);
    apply_failing(d, Path::kKruskal, failure, ins, del, nullptr);
    expect_same(freeze(d), before);

    // A different cut batch first, then the failed one retried.
    const std::vector<WEdge> next_ins = light_edges(5);
    const std::vector<EdgeId> next_del = forest_ids({10, 60, 200});
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE(round == 0 ? "next batch" : "retried batch");
      const MsfDelta a = round == 0 ? d.apply_batch(next_ins, next_del)
                                    : d.apply_batch(ins, del);
      const MsfDelta b = round == 0 ? twin.apply_batch(next_ins, next_del)
                                    : twin.apply_batch(ins, del);
      expect_same_delta(a, b);
      EXPECT_FALSE(a.recomputed_from_scratch);
      EXPECT_TRUE(a.changed_forest());
      expect_same(freeze(d), freeze(twin));
    }
  }
}

TEST(DynamicRollback, FailedCutBatchLeavesNoIncidenceForItsInsertions) {
  // The first cut batch builds the incidence lists the piece search reads.
  // A cut batch with insertions then fails at the scan, and the next batch
  // inserts different edges under the same store ids.  A later cut must
  // find those edges in their own endpoints' lists: the only edges left at
  // vertex z are the reused ids, so a list that still held the failed
  // batch's edges would leave z cut off.
  ThreadTeam team(2);
  Rng rng(29);
  const VertexId n = 300;
  const EdgeList g = random_graph(n, rng);
  DynamicMsf d(g, options(&team));
  DynamicMsf twin(g, options(&team));
  // Forest edges at vertices of forest degree 1, and those vertices.
  const auto leaf_edges = [&] {
    std::vector<std::size_t> degree(n, 0);
    for (const EdgeId id : d.forest_edge_ids()) {
      ++degree[d.store().edge(id).u];
      ++degree[d.store().edge(id).v];
    }
    std::vector<std::pair<EdgeId, VertexId>> out;
    for (const EdgeId id : d.forest_edge_ids()) {
      const WEdge& e = d.store().edge(id);
      if (degree[e.u] == 1) out.emplace_back(id, e.u);
      if (degree[e.v] == 1) out.emplace_back(id, e.v);
    }
    return out;
  };
  const auto apply_both = [&](const std::vector<WEdge>& ins,
                              const std::vector<EdgeId>& del) {
    const MsfDelta a = d.apply_batch(ins, del);
    expect_same_delta(a, twin.apply_batch(ins, del));
    expect_same(freeze(d), freeze(twin));
    // Both are also what a solve from scratch gives.
    std::vector<EdgeId> ids;
    const EdgeList live = d.store().live_graph(&ids);
    std::vector<EdgeId> want;
    for (const EdgeId e : seq::kruskal_msf(live).edge_ids) want.push_back(ids[e]);
    std::sort(want.begin(), want.end());
    EXPECT_EQ(d.forest_edge_ids(), want);
    EXPECT_EQ(a.replacement_path, dynamic::ReplacementPath::kSearch);
    return a;
  };

  std::vector<std::pair<EdgeId, VertexId>> leaves = leaf_edges();
  ASSERT_GE(leaves.size(), 4u);
  apply_both({}, {leaves[0].first});

  // z: a leaf vertex the failed batch does not touch.
  leaves = leaf_edges();
  const VertexId z = leaves.back().second;
  const auto heavy_edges = [&](VertexId from) {
    std::vector<WEdge> ins;
    for (VertexId k = 1; k <= 4; ++k) {
      ins.push_back(WEdge{from, static_cast<VertexId>((from + 37 * k) % n),
                          5.0 + 0.1 * k});
    }
    return ins;
  };
  VertexId other = leaves[0].second;
  if (other == z) other = leaves[1].second;
  const std::vector<EdgeId> cut{leaves[0].first == leaves.back().first
                                    ? leaves[1].first
                                    : leaves[0].first};
  const Frozen before = freeze(d);
  apply_failing(d, Path::kKruskal, Failure::kBadAlloc, heavy_edges(other), cut,
                nullptr);
  expect_same(freeze(d), before);

  // The same store ids, now at z.
  const EdgeId first = d.store().size();
  apply_both(heavy_edges(z), cut);
  ASSERT_EQ(d.store().edge(first).u, z);

  // Cut z off from everything but those edges: the lightest enters.
  std::vector<EdgeId> del;
  for (EdgeId id = 0; id < first; ++id) {
    const WEdge& e = d.store().edge(id);
    if (d.store().is_live(id) && (e.u == z || e.v == z)) del.push_back(id);
  }
  const MsfDelta last = apply_both({}, del);
  EXPECT_EQ(std::count(last.forest_added.begin(), last.forest_added.end(), first),
            1);
}

TEST(DynamicRollback, InsertionFailingAfterAnEarlierOneWasStored) {
  // 15 edges leave exactly one free slot in the store's 16-slot buffer: the
  // batch's first insertion lands in it, the second must grow the buffer,
  // and the growth fails.
  const VertexId n = 16;
  EdgeList g(n);
  for (VertexId v = 1; v < n; ++v) g.add_edge(v - 1, v, static_cast<Weight>(v));
  ThreadTeam team(2);
  DynamicMsf d(g, options(&team));
  DynamicMsf twin(g, options(&team));
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

TEST(DynamicRollback, CancelInsideTheSearchRegion) {
  // A broom: a core [0, 5000) with 80k heavy chords and 96 legs of 20
  // vertices hanging from it by light edges.  Cutting the hanging edges
  // makes a search whose later rounds run on the team, each ending at a
  // budget check on one thread while the others wait at the barrier.  A
  // cancel at the last round's check unwinds the region and the batch;
  // the retried batch decides as on a twin that never saw it.
  ThreadTeam team(4);
  Rng rng(31);
  constexpr VertexId kCore = 5000;
  constexpr VertexId kLegs = 96;
  constexpr VertexId kLen = 20;
  EdgeList g(kCore + kLegs * kLen);
  const auto chord = [&](VertexId lo, VertexId hi, Weight w) {
    const auto u = lo + static_cast<VertexId>(rng.next_below(hi - lo));
    auto v = lo + static_cast<VertexId>(rng.next_below(hi - lo - 1));
    if (v >= u) ++v;
    g.add_edge(u, v, w + rng.next_double());
  };
  for (VertexId v = 1; v < kCore; ++v) g.add_edge(v - 1, v, 1e-3);
  for (int i = 0; i < 80000; ++i) chord(0, kCore, 1.0);
  std::vector<EdgeId> hanging;
  for (VertexId leg = 0; leg < kLegs; ++leg) {
    const VertexId first = kCore + leg * kLen;
    hanging.push_back(g.num_edges());
    g.add_edge(static_cast<VertexId>(rng.next_below(kCore)), first, 1e-3);
    for (VertexId v = first + 1; v < first + kLen; ++v) g.add_edge(v - 1, v, 1e-3);
    for (int i = 0; i < 20; ++i) chord(first, first + kLen, 1.0);
    g.add_edge(static_cast<VertexId>(rng.next_below(kCore)), first + 1, 2.0);
  }
  DynamicMsf d(g, options(&team));
  DynamicMsf twin(g, options(&team));
  // A first cut builds the incidence lists.
  const std::vector<EdgeId> warm{hanging.back()};
  expect_same_delta(d.apply_batch({}, warm), twin.apply_batch({}, warm));
  hanging.pop_back();

  // The twin counts the batch's budget checks: one before the search, one
  // per round and one before the scan.  Its one region is the search's.
  ExecutionBudget budget;
  twin.set_budget(&budget);
  FaultInjector::arm("budget.check", FaultKind::kCancel, 1u << 30);
  const std::uint64_t regions = team.regions_started();
  const MsfDelta want = twin.apply_batch({}, hanging);
  ASSERT_EQ(team.regions_started() - regions, 1u);
  ASSERT_EQ(want.replacement_path, dynamic::ReplacementPath::kSearch);
  ASSERT_EQ(FaultInjector::hits("budget.check"), want.search_rounds + 2);
  FaultInjector::disarm_all();
  twin.set_budget(nullptr);

  const Frozen before = freeze(d);
  d.set_budget(&budget);
  FaultInjector::arm("budget.check", FaultKind::kCancel, want.search_rounds);
  try {
    d.apply_batch({}, hanging);
    ADD_FAILURE() << "the batch was not cancelled";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
  }
  EXPECT_EQ(FaultInjector::hits("budget.check"), want.search_rounds + 1);
  FaultInjector::disarm_all();
  d.set_budget(nullptr);
  expect_same(freeze(d), before);

  const MsfDelta got = d.apply_batch({}, hanging);
  expect_same_delta(got, want);
  EXPECT_EQ(got.search_arcs, want.search_arcs);
  expect_same(freeze(d), freeze(twin));
}

TEST(DynamicRollback, FailedSweepRegionsLeaveNoStaleScratch) {
  // A path of 2000 light edges under 6000 heavy chords: a batch that cuts
  // it in three places leaves pieces too large to search, so it labels
  // every vertex and sweeps every slot, each in a region on the team.  A
  // fault on a helper thread of either region, or a cancel at either
  // region's checkpoint, unwinds the batch and leaves everything as it
  // was; that batch and a second swept one then decide exactly as on a
  // fresh copy.
  Rng rng(37);
  const VertexId n = 2000;
  EdgeList g(n);
  for (VertexId v = 1; v < n; ++v) g.add_edge(v - 1, v, 1e-3 * rng.next_double());
  for (int i = 0; i < 6000; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>((u + 1 + rng.next_below(n - 1)) % n);
    g.add_edge(u, v, 1.0 + rng.next_double());
  }
  // Path edge (v − 1, v) is store id v − 1.
  const std::vector<EdgeId> first{399, 999, 1499};
  const std::vector<EdgeId> second{199, 1299};
  struct Case {
    const char* site;  ///< the fault point armed, or nullptr for a cancel
    bool sweep;        ///< in the sweep region, not the label region
  };
  for (const int p : {1, 4}) {
    ThreadTeam team(p);
    // A counting run: one check before the search, one per search round,
    // the label region's and the sweep region's, which are the batch's
    // last two regions, and one before the scan.
    DynamicMsf counter(g, options(&team));
    ExecutionBudget budget;
    counter.set_budget(&budget);
    FaultInjector::arm("budget.check", FaultKind::kCancel, 1u << 30);
    std::uint64_t regions = team.regions_started();
    const MsfDelta counted = counter.apply_batch({}, first);
    regions = team.regions_started() - regions;
    ASSERT_EQ(counted.replacement_path, dynamic::ReplacementPath::kSweep);
    ASSERT_EQ(FaultInjector::hits("budget.check"), counted.search_rounds + 4);
    FaultInjector::disarm_all();

    for (const Case c : {Case{"dynamic.piece-labels", false},
                         Case{"dynamic.sweep", true}, Case{nullptr, false},
                         Case{nullptr, true}}) {
      SCOPED_TRACE("p = " + std::to_string(p) + ", " +
                   (c.site != nullptr ? c.site : "cancel") + " in the " +
                   (c.sweep ? "sweep" : "label") + " region");
      DynamicMsf d(g, options(&team));
      DynamicMsf fresh(g, options(&team));
      const Frozen before = freeze(d);
      const PinnedView view = pin(d);
      const std::uint64_t started = team.regions_started();
      if (c.site != nullptr) {
        FaultInjector::arm(c.site, FaultKind::kBadAlloc);
        EXPECT_THROW(d.apply_batch({}, first), std::bad_alloc);
        EXPECT_EQ(FaultInjector::hits(c.site), 1u);
      } else {
        const std::uint64_t skip = counted.search_rounds + (c.sweep ? 2 : 1);
        d.set_budget(&budget);
        FaultInjector::arm("budget.check", FaultKind::kCancel, skip);
        try {
          d.apply_batch({}, first);
          ADD_FAILURE() << "the batch was not cancelled";
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kCancelled);
        }
        EXPECT_EQ(FaultInjector::hits("budget.check"), skip + 1);
        d.set_budget(nullptr);
      }
      // The failure unwound the region it names: a label-region failure
      // starts no sweep region.
      EXPECT_EQ(team.regions_started() - started, regions - (c.sweep ? 0 : 1));
      FaultInjector::disarm_all();
      expect_same(freeze(d), before);
      expect_unchanged(view);

      for (const std::vector<EdgeId>* batch : {&first, &second}) {
        const MsfDelta a = d.apply_batch({}, *batch);
        const MsfDelta b = fresh.apply_batch({}, *batch);
        expect_same_delta(a, b);
        EXPECT_EQ(a.replacement_path, dynamic::ReplacementPath::kSweep);
        EXPECT_EQ(a.crossing_pairs, b.crossing_pairs);
        EXPECT_EQ(a.search_arcs, b.search_arcs);
        expect_same(freeze(d), freeze(fresh));
      }
    }
  }
}

TEST(DynamicRollback, RejectedBatchMutatesNothing) {
  // Validation failures throw before the store is touched; a second bad
  // batch after a rolled-back one still finds the store as it was.
  ThreadTeam team(2);
  Rng rng(3);
  const EdgeList g = random_graph(64, rng);
  DynamicMsf d(g, options(&team));
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
