// Batch-dynamic MSF subsystem: after every batch of a randomized
// insert/delete trace the maintained forest must be bit-identical (edge ids
// and deterministically-summed weight) to a from-scratch solve on the
// current live graph — for every algorithm backend and thread count.  Also:
// the restore constructor rejects forest ids that are not a forest of the
// store, and an adoption split across a team names the first bad edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/msf.hpp"
#include "dynamic/dynamic_msf.hpp"
#include "graph/generators.hpp"
#include "graph/validate.hpp"
#include "pprim/fault.hpp"
#include "pprim/rng.hpp"
#include "pprim/thread_team.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;
using smp::dynamic::DynamicMsf;
using smp::dynamic::DynamicMsfOptions;
using smp::dynamic::EdgeStore;
using smp::dynamic::MsfDelta;

DynamicMsfOptions dyn_opts(core::Algorithm alg, int threads) {
  DynamicMsfOptions o;
  o.msf.algorithm = alg;
  o.msf.threads = threads;
  o.msf.bc_base_size = 32;  // exercise MST-BC's parallel phase, not just base
  return o;
}

/// From-scratch reference on the store's live graph, in store-id space:
/// forest ids (ascending) and the weight's exact sum — the quantities
/// DynamicMsf maintains incrementally.
struct Reference {
  std::vector<EdgeId> forest;
  Weight weight = 0;
  std::size_t trees = 0;
};

Reference scratch_reference(const DynamicMsf& d, core::Algorithm alg,
                            int threads) {
  std::vector<EdgeId> ids;
  const EdgeList live = d.store().live_graph(&ids);
  const MsfResult r = core::minimum_spanning_forest_of_candidates(
      live, ids, dyn_opts(alg, threads).msf);
  Reference ref;
  ref.forest = r.edge_ids;
  std::sort(ref.forest.begin(), ref.forest.end());
  ref.weight =
      exact_sum(ref.forest, [&](EdgeId id) { return d.store().edge(id).w; });
  ref.trees = r.num_trees;
  return ref;
}

class DynamicMsfTrace
    : public ::testing::TestWithParam<std::tuple<core::Algorithm, int>> {};

TEST_P(DynamicMsfTrace, BitIdenticalToScratchAfterEveryBatch) {
  const auto [alg, threads] = GetParam();
  const VertexId n = 200;
  const EdgeList g0 = random_graph(n, 600, 42);
  DynamicMsf d(g0, dyn_opts(alg, threads));

  Rng rng(2026);
  std::vector<EdgeId> live_ids(g0.num_edges());
  for (EdgeId i = 0; i < g0.num_edges(); ++i) live_ids[i] = i;

  for (int batch = 0; batch < 8; ++batch) {
    // Mixed batch: a few inserts (parallel edges and duplicate weights
    // included on purpose) and a few deletes of arbitrary live edges —
    // forest edges very much eligible.
    std::vector<WEdge> ins;
    for (std::uint64_t i = 0; i < 2 + rng.next_below(6); ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      auto v = static_cast<VertexId>(rng.next_below(n - 1));
      if (v >= u) ++v;
      const Weight w = (rng.next_below(4) == 0) ? 0.5 : rng.next_double();
      ins.push_back(WEdge{u, v, w});
    }
    std::vector<EdgeId> del;
    for (std::uint64_t i = 0; i < 1 + rng.next_below(5) && !live_ids.empty();
         ++i) {
      const std::size_t k =
          static_cast<std::size_t>(rng.next_below(live_ids.size()));
      del.push_back(live_ids[k]);
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(k));
    }
    const EdgeId first_new = d.store().size();
    const MsfDelta delta = d.apply_batch(ins, del);
    for (EdgeId id = first_new; id < d.store().size(); ++id) {
      live_ids.push_back(id);
    }

    const Reference ref = scratch_reference(d, alg, threads);
    ASSERT_EQ(d.forest_edge_ids(), ref.forest)
        << "batch " << batch << " alg " << core::to_string(alg) << " p="
        << threads;
    ASSERT_EQ(d.total_weight(), ref.weight) << "weight must be bit-identical";
    ASSERT_EQ(d.num_trees(), ref.trees);
    ASSERT_EQ(delta.total_weight, ref.weight);
    ASSERT_EQ(delta.num_trees, ref.trees);
    ASSERT_EQ(delta.live_edges, d.store().num_live());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, DynamicMsfTrace,
    ::testing::Combine(
        ::testing::Values(core::Algorithm::kBorEL, core::Algorithm::kBorAL,
                          core::Algorithm::kBorALM, core::Algorithm::kBorFAL,
                          core::Algorithm::kMstBC, core::Algorithm::kSeqPrim,
                          core::Algorithm::kSeqKruskal,
                          core::Algorithm::kSeqBoruvka,
                          core::Algorithm::kChampion),
        ::testing::Values(1, 2, 4, 8)),
    [](const auto& info) {
      std::string name(core::to_string(std::get<0>(info.param)));
      std::erase_if(name, [](char c) { return !std::isalnum(
                                static_cast<unsigned char>(c)); });
      return name + "_p" + std::to_string(std::get<1>(info.param));
    });

TEST(DynamicMsf, DeltaAlgebraReconstructsForest) {
  const EdgeList g0 = random_graph(120, 400, 7);
  DynamicMsf d(g0, dyn_opts(core::Algorithm::kBorFAL, 4));
  Rng rng(5);
  std::vector<EdgeId> old_forest = d.forest_edge_ids();
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<WEdge> ins;
    for (int i = 0; i < 4; ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(120));
      auto v = static_cast<VertexId>(rng.next_below(119));
      if (v >= u) ++v;
      ins.push_back(WEdge{u, v, rng.next_double()});
    }
    std::vector<EdgeId> del;
    if (!old_forest.empty()) del.push_back(old_forest[batch % old_forest.size()]);
    const MsfDelta delta = d.apply_batch(ins, del);

    // old ∖ removed ∪ added == new, and the two sets are disjoint.
    std::vector<EdgeId> rebuilt;
    std::set_difference(old_forest.begin(), old_forest.end(),
                        delta.forest_removed.begin(),
                        delta.forest_removed.end(),
                        std::back_inserter(rebuilt));
    std::vector<EdgeId> merged;
    std::set_union(rebuilt.begin(), rebuilt.end(), delta.forest_added.begin(),
                   delta.forest_added.end(), std::back_inserter(merged));
    EXPECT_EQ(merged, d.forest_edge_ids());
    std::vector<EdgeId> overlap;
    std::set_intersection(delta.forest_added.begin(),
                          delta.forest_added.end(),
                          delta.forest_removed.begin(),
                          delta.forest_removed.end(),
                          std::back_inserter(overlap));
    EXPECT_TRUE(overlap.empty());
    old_forest = d.forest_edge_ids();
  }
}

TEST(DynamicMsf, InsertOnlySmallBatchSparsifies) {
  const EdgeList g0 = random_graph(2000, 12000, 3);
  DynamicMsf d(g0, dyn_opts(core::Algorithm::kSeqKruskal, 1));
  const std::vector<WEdge> ins = {{0, 1000, 0.00001}, {5, 1500, 0.00002}};
  const MsfDelta delta = d.apply_batch(ins, {});
  EXPECT_FALSE(delta.recomputed_from_scratch);
  // Candidate set is forest + batch, independent of m.
  EXPECT_LE(delta.candidate_edges, 2000u + ins.size());
  EXPECT_LT(delta.candidate_edges, delta.live_edges / 2);
  // The near-zero-weight insertions must have entered the forest.
  const auto& f = d.forest_edge_ids();
  EXPECT_TRUE(std::binary_search(f.begin(), f.end(), g0.num_edges()));
  EXPECT_TRUE(std::binary_search(f.begin(), f.end(), g0.num_edges() + 1));
}

TEST(DynamicMsf, LargeBatchCrossesOverToScratch) {
  const EdgeList g0 = random_graph(100, 300, 11);
  DynamicMsf d(g0, dyn_opts(core::Algorithm::kBorEL, 2));
  Rng rng(9);
  std::vector<WEdge> ins;
  for (int i = 0; i < 200; ++i) {  // 200 ops vs 300 live: way past 25%
    const auto u = static_cast<VertexId>(rng.next_below(100));
    auto v = static_cast<VertexId>(rng.next_below(99));
    if (v >= u) ++v;
    ins.push_back(WEdge{u, v, rng.next_double()});
  }
  const MsfDelta delta = d.apply_batch(ins, {});
  EXPECT_TRUE(delta.recomputed_from_scratch);
  const Reference ref = scratch_reference(d, core::Algorithm::kBorEL, 2);
  EXPECT_EQ(d.forest_edge_ids(), ref.forest);
}

TEST(DynamicMsf, CrossoverThresholdIsAQuarterOfLiveAfterTheBatch) {
  // The crossover compares the batch's ops against kScratchBatchFraction x
  // the live count after the batch: on 300 live edges, 99 insertions stay
  // sparsified (99 < 0.25 x 399) and 100 recompute (100 >= 0.25 x 400).
  ASSERT_EQ(dynamic::kScratchBatchFraction, 0.25);
  const EdgeList g0 = random_graph(100, 300, 11);
  Rng rng(17);
  std::vector<WEdge> ins;
  for (int i = 0; i < 100; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(100));
    auto v = static_cast<VertexId>(rng.next_below(99));
    if (v >= u) ++v;
    ins.push_back(WEdge{u, v, rng.next_double()});
  }
  for (const std::size_t k : {std::size_t{99}, std::size_t{100}}) {
    DynamicMsf d(g0, dyn_opts(core::Algorithm::kChampion, 2));
    ASSERT_EQ(d.store().num_live(), 300u);
    const MsfDelta delta =
        d.apply_batch(std::span<const WEdge>(ins).first(k), {});
    EXPECT_EQ(delta.recomputed_from_scratch, k == 100) << "batch=" << k;
    const Reference ref = scratch_reference(d, core::Algorithm::kSeqKruskal, 1);
    EXPECT_EQ(d.forest_edge_ids(), ref.forest) << "batch=" << k;
    EXPECT_EQ(d.total_weight(), ref.weight) << "batch=" << k;
  }
}

TEST(DynamicMsf, NamedBackendDecidesSparsifiedBatchByKruskalPass) {
  // Bor-EL solves the graph once; a sparsified batch never reaches its
  // find-min, so an armed bad_alloc there (fallback off) cannot fail it.
  const VertexId n = 200;
  const EdgeList g0 = random_graph(n, 3 * n, 31);
  DynamicMsfOptions o = dyn_opts(core::Algorithm::kBorEL, 2);
  o.msf.allow_sequential_fallback = false;
  DynamicMsf d(g0, o);
  ASSERT_GT(d.forest_edge_ids().size(), n / 2);
  FaultInjector::arm("bor-el.find-min", FaultKind::kBadAlloc);
  // Armed to count hits, never to fire.
  FaultInjector::arm("dynamic.kruskal-scan", FaultKind::kBadAlloc,
                     /*skip=*/std::uint64_t{1} << 40);
  Rng rng(12);
  std::vector<WEdge> ins;
  for (int i = 0; i < 6; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n - 1));
    if (v >= u) ++v;
    ins.push_back(WEdge{u, v, rng.next_double()});
  }
  const std::vector<EdgeId> del{d.forest_edge_ids()[n / 2]};
  MsfDelta delta;
  EXPECT_NO_THROW(delta = d.apply_batch(ins, del));
  const std::uint64_t scans = FaultInjector::hits("dynamic.kruskal-scan");
  const std::uint64_t find_mins = FaultInjector::hits("bor-el.find-min");
  FaultInjector::disarm_all();
  EXPECT_GE(scans, 1u);
  EXPECT_EQ(find_mins, 0u);
  EXPECT_FALSE(delta.recomputed_from_scratch);
  EXPECT_TRUE(std::binary_search(delta.forest_removed.begin(),
                                 delta.forest_removed.end(), del.front()));
  const Reference ref = scratch_reference(d, core::Algorithm::kSeqKruskal, 1);
  EXPECT_EQ(d.forest_edge_ids(), ref.forest);
  EXPECT_EQ(d.total_weight(), ref.weight);
  EXPECT_EQ(d.num_trees(), ref.trees);
}

TEST(DynamicMsf, BridgeDeletionSplitsTree) {
  // Path 0-1-2: deleting the middle edge has no replacement.
  EdgeList g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  DynamicMsf d(g, dyn_opts(core::Algorithm::kBorFAL, 2));
  ASSERT_EQ(d.num_trees(), 1u);
  const std::vector<EdgeId> del = {1};
  const MsfDelta delta = d.apply_batch({}, del);
  EXPECT_EQ(delta.forest_removed, del);
  EXPECT_TRUE(delta.forest_added.empty());
  EXPECT_EQ(d.num_trees(), 2u);
  EXPECT_EQ(d.total_weight(), 1.0);
}

TEST(DynamicMsf, DeletionPromotesReplacement) {
  // Triangle: forest is the two light edges; deleting one promotes the
  // heavy non-tree edge.
  EdgeList g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 9.0);
  DynamicMsf d(g, dyn_opts(core::Algorithm::kBorAL, 2));
  ASSERT_EQ(d.forest_edge_ids(), (std::vector<EdgeId>{0, 1}));
  const std::vector<EdgeId> del = {0};
  const MsfDelta delta = d.apply_batch({}, del);
  EXPECT_EQ(delta.forest_removed, (std::vector<EdgeId>{0}));
  EXPECT_EQ(delta.forest_added, (std::vector<EdgeId>{2}));
  EXPECT_EQ(d.num_trees(), 1u);
  EXPECT_EQ(d.total_weight(), 11.0);
}

TEST(DynamicMsf, NonTreeDeletionSkipsSolveEntirely) {
  EdgeList g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 9.0);  // non-tree
  DynamicMsf d(g, dyn_opts(core::Algorithm::kBorFAL, 2));
  const std::vector<EdgeId> del = {2};
  const MsfDelta delta = d.apply_batch({}, del);
  EXPECT_FALSE(delta.changed_forest());
  EXPECT_EQ(delta.candidate_edges, 0u);  // fast path: no solver call
  EXPECT_EQ(d.num_trees(), 1u);
  EXPECT_EQ(d.total_weight(), 3.0);
}

TEST(DynamicMsf, EmptyBatchIsNoOp) {
  const EdgeList g0 = random_graph(40, 100, 17);
  DynamicMsf d(g0, dyn_opts(core::Algorithm::kBorALM, 2));
  const Weight w = d.total_weight();
  const MsfDelta delta = d.apply_batch({}, {});
  EXPECT_FALSE(delta.changed_forest());
  EXPECT_EQ(delta.total_weight, w);
  EXPECT_EQ(delta.live_edges, 100u);
}

TEST(DynamicMsf, GrowsFromEdgelessGraph) {
  DynamicMsf d(VertexId{5}, dyn_opts(core::Algorithm::kBorFAL, 2));
  EXPECT_EQ(d.num_trees(), 5u);
  const std::vector<WEdge> ins = {{0, 1, 1.0}, {1, 2, 2.0}, {3, 4, 3.0}};
  const MsfDelta delta = d.apply_batch(ins, {});
  EXPECT_EQ(delta.forest_added.size(), 3u);
  EXPECT_EQ(d.num_trees(), 2u);
  EXPECT_EQ(d.total_weight(), 6.0);
}

TEST(DynamicMsf, BadBatchesThrowBeforeMutating) {
  const EdgeList g0 = random_graph(30, 80, 23);
  DynamicMsf d(g0, dyn_opts(core::Algorithm::kSeqKruskal, 1));
  const std::size_t live_before = d.store().num_live();

  const std::vector<WEdge> self_loop = {{3, 3, 1.0}};
  EXPECT_THROW(d.apply_batch(self_loop, {}), Error);
  const std::vector<WEdge> oob = {{0, 1000, 1.0}};
  EXPECT_THROW(d.apply_batch(oob, {}), Error);
  const std::vector<WEdge> nan_w = {{0, 1, std::nan("")}};
  EXPECT_THROW(d.apply_batch(nan_w, {}), Error);
  const std::vector<EdgeId> dead = {9999};
  EXPECT_THROW(d.apply_batch({}, dead), Error);
  const std::vector<EdgeId> dup = {0, 0};
  EXPECT_THROW(d.apply_batch({}, dup), Error);
  // A once-deleted id stays dead forever.
  const std::vector<EdgeId> once = {0};
  d.apply_batch({}, once);
  EXPECT_THROW(d.apply_batch({}, once), Error);

  EXPECT_EQ(d.store().num_live(), live_before - 1);
  // The failed batches changed nothing; only the valid deletion did.
  const Reference ref = scratch_reference(d, core::Algorithm::kSeqKruskal, 1);
  EXPECT_EQ(d.forest_edge_ids(), ref.forest);
}

TEST(DynamicMsf, RestoreRejectsWhatIsNotAForestOfTheStore) {
  // Ids 0-2 are a triangle on {0, 1, 2}, id 3 hangs vertex 3 off vertex 2,
  // and id 4 is dead.
  EdgeStore s(VertexId{4});
  s.insert(0, 1, 1.0);
  s.insert(1, 2, 2.0);
  s.insert(0, 2, 3.0);
  s.insert(2, 3, 4.0);
  s.erase(s.insert(1, 3, 5.0));
  const auto rejects = [&](std::vector<EdgeId> forest, const std::string& why) {
    SCOPED_TRACE(why);
    try {
      DynamicMsf d(EdgeStore(s), std::move(forest),
                   dyn_opts(core::Algorithm::kChampion, 2));
      ADD_FAILURE() << "restore accepted the forest";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
    }
  };
  rejects({2, 0, 1}, "restore: forest ids contain a cycle");
  rejects({0, 0}, "restore: duplicate forest id 0");
  rejects({0, 4}, "restore: forest id 4 is dead or unknown");
  rejects({0, 1, 2, 3}, "cannot be acyclic on 4 vertices");

  const DynamicMsf d(EdgeStore(s), {3, 0, 1}, dyn_opts(core::Algorithm::kChampion, 2));
  EXPECT_EQ(d.forest_edge_ids(), (std::vector<EdgeId>{0, 1, 3}));
  EXPECT_EQ(d.total_weight(), 7.0);
  EXPECT_EQ(d.num_trees(), 1u);
}

TEST(EdgeStore, StableIdsAndTombstones) {
  EdgeStore s(VertexId{4});
  const EdgeId a = s.insert(0, 1, 1.0);
  const EdgeId b = s.insert(1, 2, 2.0);
  const EdgeId c = s.insert(2, 3, 3.0);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  s.erase(b);
  EXPECT_FALSE(s.is_live(b));
  EXPECT_EQ(s.num_live(), 2u);
  // Ids are never reused: the next insert gets a fresh slot.
  EXPECT_EQ(s.insert(1, 2, 2.5), 3u);
  EXPECT_EQ(s.edge(b).w, 2.0);  // tombstoned edge still readable
  EXPECT_THROW(s.erase(b), Error);
  EXPECT_THROW(s.erase(EdgeId{99}), Error);

  std::vector<EdgeId> ids;
  const EdgeList live = s.live_graph(&ids);
  EXPECT_EQ(ids, (std::vector<EdgeId>{0, 2, 3}));
  EXPECT_EQ(live.num_edges(), 3u);
  EXPECT_EQ(live.edges[1].w, 3.0);
}

TEST(EdgeStore, FindLivePicksCanonicalParallelEdge) {
  EdgeStore s(VertexId{3});
  const EdgeId a = s.insert(0, 1, 5.0);
  const EdgeId b = s.insert(1, 0, 5.0);  // parallel, equal weight, later id
  const EdgeId c = s.insert(0, 1, 3.0);  // parallel, lighter
  EXPECT_EQ(s.find_live(1, 0), std::optional<EdgeId>(c));
  s.erase(c);
  EXPECT_EQ(s.find_live(0, 1), std::optional<EdgeId>(a));  // weight tie → id
  s.erase(a);
  EXPECT_EQ(s.find_live(0, 1), std::optional<EdgeId>(b));
  s.erase(b);
  EXPECT_EQ(s.find_live(0, 1), std::nullopt);
  EXPECT_EQ(s.find_live(1, 2), std::nullopt);
  // Inserts after the lazy index build keep it coherent.
  const EdgeId d = s.insert(0, 1, 7.0);
  EXPECT_EQ(s.find_live(0, 1), std::optional<EdgeId>(d));
}

TEST(EdgeStore, RejectsInvalidEdges) {
  EdgeStore s(VertexId{3});
  EXPECT_THROW(s.insert(0, 0, 1.0), Error);
  EXPECT_THROW(s.insert(0, 3, 1.0), Error);
  EXPECT_THROW(s.insert(0, 1, std::nan("")), Error);
  EXPECT_EQ(s.size(), 0u);
}

TEST(EdgeStore, AdoptionOnATeamNamesTheFirstBadEdge) {
  // Bad edges in the blocks of threads 1 and 3: the error names the one
  // with the least index, whichever thread finds its own first.
  EdgeList g(100);
  for (VertexId i = 0; i < 4000; ++i) g.add_edge(i % 100, (i + 1) % 100, 1.0);
  g.edges[1500] = WEdge{7, 7, 1.0};
  g.edges[3500] = WEdge{0, 100, 1.0};
  ThreadTeam team(4);
  try {
    EdgeStore s(g, team);
    FAIL() << "adoption accepted a self-loop";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("self-loop at vertex 7"), std::string::npos)
        << e.what();
  }
  g.edges[1500] = WEdge{7, 8, 1.0};
  g.edges[3500] = WEdge{0, 99, 2.0};
  const EdgeStore s(g, team);
  ASSERT_EQ(s.size(), 4000u);
  EXPECT_EQ(s.num_live(), 4000u);
  for (EdgeId id = 0; id < s.size(); ++id) {
    ASSERT_EQ(s.edge(id), g.edges[id]) << id;
    ASSERT_TRUE(s.is_live(id)) << id;
  }
}

TEST(EdgeStore, CompactReclaimsTombstonesPreservingOrder) {
  EdgeStore s(VertexId{6});
  std::vector<EdgeId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(s.insert(static_cast<VertexId>(i % 5),
                           static_cast<VertexId>(i % 5 + 1), 1.0 + i));
  }
  s.erase(ids[1]);
  s.erase(ids[4]);
  const std::vector<WEdge> live_before = {s.edge(ids[0]), s.edge(ids[2]),
                                          s.edge(ids[3]), s.edge(ids[5])};

  const std::vector<EdgeId> remap = s.compact();
  ASSERT_EQ(remap.size(), 6u);
  // Order-preserving renumber of the survivors; tombstones map nowhere.
  EXPECT_EQ(remap[0], 0u);
  EXPECT_EQ(remap[1], kInvalidEdge);
  EXPECT_EQ(remap[2], 1u);
  EXPECT_EQ(remap[3], 2u);
  EXPECT_EQ(remap[4], kInvalidEdge);
  EXPECT_EQ(remap[5], 3u);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.num_live(), 4u);
  for (std::size_t i = 0; i < live_before.size(); ++i) {
    EXPECT_EQ(s.edge(static_cast<EdgeId>(i)).u, live_before[i].u);
    EXPECT_EQ(s.edge(static_cast<EdgeId>(i)).v, live_before[i].v);
    EXPECT_EQ(s.edge(static_cast<EdgeId>(i)).w, live_before[i].w);
  }
  // The pair index rebuilds against the new ids, and fresh inserts continue
  // from the compacted end.
  EXPECT_EQ(s.find_live(1, 2), std::nullopt);  // ids[1] was {1,2}, erased
  EXPECT_EQ(s.find_live(2, 3), std::optional<EdgeId>(1));
  EXPECT_EQ(s.insert(0, 5, 9.0), EdgeId{4});
}

TEST(EdgeStore, CompactOfFullyLiveStoreIsIdentity) {
  EdgeStore s(VertexId{3});
  s.insert(0, 1, 1.0);
  s.insert(1, 2, 2.0);
  const std::vector<EdgeId> remap = s.compact();
  EXPECT_EQ(remap, (std::vector<EdgeId>{0, 1}));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.num_live(), 2u);
}

TEST(DynamicMsf, CompactStoreKeepsForestBitIdentical) {
  // Grow, delete (tombstoning forest and non-forest edges alike), compact,
  // then demand the remapped forest still solves bit-identically from
  // scratch and survives further batches.
  const EdgeList g0 = random_graph(120, 400, 7);
  DynamicMsf d(g0, dyn_opts(core::Algorithm::kBorFAL, 2));
  std::vector<EdgeId> del;
  for (EdgeId id = 0; id < 200; id += 2) del.push_back(id);
  d.apply_batch({}, del);
  const Weight weight_before = d.total_weight();
  const std::size_t trees_before = d.num_trees();
  const std::size_t live_before = d.store().num_live();

  const std::vector<EdgeId> remap = d.compact_store();
  ASSERT_EQ(remap.size(), 400u);
  EXPECT_EQ(d.store().size(), live_before);
  EXPECT_EQ(d.store().num_live(), live_before);
  EXPECT_EQ(d.total_weight(), weight_before);
  EXPECT_EQ(d.num_trees(), trees_before);
  for (const EdgeId id : d.forest_edge_ids()) {
    EXPECT_TRUE(d.store().is_live(id));
  }
  Reference ref = scratch_reference(d, core::Algorithm::kBorFAL, 2);
  EXPECT_EQ(d.forest_edge_ids(), ref.forest);
  EXPECT_EQ(d.total_weight(), ref.weight);

  // Batches after compaction behave like nothing happened.
  const std::vector<WEdge> more = {WEdge{0, 1, 0.001}, WEdge{5, 9, 0.002}};
  d.apply_batch(more, {});
  ref = scratch_reference(d, core::Algorithm::kBorFAL, 2);
  EXPECT_EQ(d.forest_edge_ids(), ref.forest);
  EXPECT_EQ(d.total_weight(), ref.weight);
}

TEST(CandidateMsf, MapsIdsBackAndRejectsUnsortedIds) {
  // Solve a 2-edge candidate subset of a 4-edge graph.
  EdgeList cand(3);
  cand.add_edge(0, 1, 1.0);
  cand.add_edge(1, 2, 2.0);
  const std::vector<EdgeId> ids = {3, 7};
  const MsfResult r =
      core::minimum_spanning_forest_of_candidates(cand, ids, {});
  auto got = r.edge_ids;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, ids);

  const std::vector<EdgeId> unsorted = {7, 3};
  EXPECT_THROW(
      core::minimum_spanning_forest_of_candidates(cand, unsorted, {}), Error);
  const std::vector<EdgeId> repeated = {3, 3};
  EXPECT_THROW(
      core::minimum_spanning_forest_of_candidates(cand, repeated, {}), Error);
  const std::vector<EdgeId> short_ids = {3};
  EXPECT_THROW(
      core::minimum_spanning_forest_of_candidates(cand, short_ids, {}), Error);
}

TEST(CanonicalizeParallel, KeepsWeightThenIdMinimalEdge) {
  EdgeList g(3);
  g.add_edge(0, 1, 5.0);  // id 0: loses to id 2 on weight
  g.add_edge(1, 2, 4.0);  // id 1: unique pair, kept
  g.add_edge(1, 0, 3.0);  // id 2: winner for {0,1}
  g.add_edge(0, 1, 3.0);  // id 3: ties id 2 on weight, loses on id
  g.add_edge(2, 1, 4.0);  // id 4: ties id 1 on weight, loses on id
  std::vector<EdgeId> kept;
  const EdgeList c = canonicalize_parallel_edges(g, &kept);
  EXPECT_EQ(kept, (std::vector<EdgeId>{1, 2}));
  ASSERT_EQ(c.num_edges(), 2u);
  EXPECT_EQ(c.edges[0].w, 4.0);
  EXPECT_EQ(c.edges[1].w, 3.0);
  EXPECT_EQ(c.num_vertices, 3u);
}

TEST(DynamicMsf, SharedForestViewsStayAsPublishedAndVersionsAreUnique) {
  // 40k slots: two forest blocks.
  const EdgeList g = random_graph(2000, 40000, 9);
  DynamicMsf d(g, dyn_opts(core::Algorithm::kBorFAL, 2));
  DynamicMsf twin(g, dyn_opts(core::Algorithm::kBorFAL, 2));
  EXPECT_NE(d.forest_version(), twin.forest_version());

  const dynamic::ForestView v0 = d.share_forest();
  const std::vector<EdgeId> ids0 = d.forest_edge_ids();
  EXPECT_EQ(v0.ids(), ids0);
  EXPECT_EQ(v0.size(), d.forest_size());
  EXPECT_EQ(v0.version(), d.forest_version());

  // A non-tree insert leaves the forest and its version alone.
  const WEdge f = d.store().edge(ids0.front());
  const MsfDelta same = d.apply_batch(std::vector<WEdge>{{f.u, f.v, 9.0}}, {});
  EXPECT_FALSE(same.changed_forest());
  EXPECT_EQ(d.forest_version(), v0.version());

  // Forest-changing batches: new versions; the view still reads the bits it
  // was given, and a second view taken in between reads its own.
  d.apply_batch(std::vector<WEdge>{{1, 1999, -1.0}}, {});
  EXPECT_NE(d.forest_version(), v0.version());
  const dynamic::ForestView v1 = d.share_forest();
  const std::vector<EdgeId> ids1 = d.forest_edge_ids();
  d.apply_batch({}, std::vector<EdgeId>{ids1[ids1.size() / 2], ids1.back()});
  EXPECT_NE(d.forest_version(), v1.version());
  EXPECT_EQ(v0.ids(), ids0);
  EXPECT_EQ(v1.ids(), ids1);
  for (const EdgeId id : ids0) EXPECT_TRUE(v0.contains(id));
  EXPECT_FALSE(v0.contains(ids1.back() + 1));

  // Compaction renumbers the ids: a new version, same edge set and weight.
  const std::uint64_t before = d.forest_version();
  const Weight w = d.total_weight();
  d.compact_store();
  EXPECT_NE(d.forest_version(), before);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.total_weight()),
            std::bit_cast<std::uint64_t>(w));
  const Reference ref = scratch_reference(d, core::Algorithm::kSeqKruskal, 1);
  EXPECT_EQ(d.forest_edge_ids(), ref.forest);
  EXPECT_EQ(v1.ids(), ids1);
}

}  // namespace
