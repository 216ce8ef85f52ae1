// Fault-tolerant execution layer: exception-safe SPMD regions (capture,
// poisoned-barrier release, rethrow-on-caller), the ExecutionBudget
// (cancellation / deadline / arena memory cap), sequential degradation, and
// the deterministic fault-injection harness that drives all of it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/champion.hpp"
#include "core/error.hpp"
#include "core/msf.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/validate.hpp"
#include "pprim/arena.hpp"
#include "pprim/fault.hpp"
#include "pprim/thread_team.hpp"
#include "query/forest_index.hpp"
#include "seq/seq_msf.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

// ---------------------------------------------------------------------------
// ThreadTeam exception safety

TEST(TeamFault, WorkerExceptionPropagatesAndTeamSurvives) {
  ThreadTeam team(4);
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(team.run([&](TeamCtx& ctx) {
      if (ctx.tid() == 2) throw std::runtime_error("boom");
    }),
                 std::runtime_error);
    // The team must keep working after an aborted region.
    std::atomic<int> ran{0};
    team.run([&](TeamCtx&) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4) << "round " << round;
  }
}

TEST(TeamFault, ThrowBeforeBarrierReleasesWaitingSiblings) {
  // Three threads reach the barrier and block; the fourth throws instead of
  // arriving.  Without the poisoned release this deadlocks forever.
  ThreadTeam team(4);
  EXPECT_THROW(team.run([&](TeamCtx& ctx) {
    if (ctx.tid() == 1) throw std::bad_alloc();
    ctx.barrier();
    ctx.barrier();  // never reached; siblings unwind via RegionPoisoned
  }),
               std::bad_alloc);
  // Barriers must work again in the next region.
  std::atomic<int> phase1{0};
  std::atomic<int> failures{0};
  team.run([&](TeamCtx& ctx) {
    phase1.fetch_add(1);
    ctx.barrier();
    if (phase1.load() != 4) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(TeamFault, CallerExceptionReleasesWorkersAtBarrier) {
  ThreadTeam team(4);
  EXPECT_THROW(team.run([&](TeamCtx& ctx) {
    if (ctx.tid() == 0) throw std::logic_error("caller dies");
    ctx.barrier();
  }),
               std::logic_error);
  std::atomic<int> ran{0};
  team.run([&](TeamCtx&) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

TEST(TeamFault, AllThreadsThrowingReportsExactlyOne) {
  ThreadTeam team(8);
  try {
    team.run([&](TeamCtx& ctx) {
      throw std::runtime_error("thrower " + std::to_string(ctx.tid()));
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("thrower "), std::string::npos);
  }
}

TEST(TeamFault, SingleThreadTeamPropagatesInline) {
  ThreadTeam team(1);
  EXPECT_THROW(
      team.run([](TeamCtx&) { throw std::invalid_argument("inline"); }),
      std::invalid_argument);
  int ran = 0;
  team.run([&](TeamCtx&) { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST(TeamFault, RepeatedFaultyRegionsUnderChurn) {
  // Alternate throwing and clean regions many times: any leak of poisoned
  // barrier state across regions shows up as a deadlock (test timeout) or a
  // wrong phase count.
  ThreadTeam team(5);
  for (int round = 0; round < 50; ++round) {
    const int thrower = round % 5;
    EXPECT_THROW(team.run([&](TeamCtx& ctx) {
      if (ctx.tid() == thrower) throw std::runtime_error("x");
      ctx.barrier();
    }),
                 std::runtime_error);
    std::atomic<int> count{0};
    std::atomic<int> failures{0};
    team.run([&](TeamCtx& ctx) {
      count.fetch_add(1);
      ctx.barrier();
      if (count.load() != 5) failures.fetch_add(1);
    });
    EXPECT_EQ(failures.load(), 0) << "round " << round;
  }
}

TEST(SenseBarrierPoison, ReleasesWaiterWithFailure) {
  SenseBarrier b(2);
  std::atomic<int> result{-1};
  std::thread waiter([&] { result.store(b.arrive_and_wait() ? 1 : 0); });
  // Give the waiter time to block, then poison instead of arriving.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  b.poison();
  waiter.join();
  EXPECT_EQ(result.load(), 0);
  EXPECT_TRUE(b.poisoned());
  b.reset();
  EXPECT_FALSE(b.poisoned());
}

// ---------------------------------------------------------------------------
// Fault injection into the five parallel algorithms

class FaultInjection : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::disarm_all(); }
};

using DirectEntry = graph::MsfResult (*)(ThreadTeam&, const EdgeList&,
                                         const core::MsfOptions&);

struct AlgFaultCase {
  const char* name;
  DirectEntry entry;
  const char* site;  ///< a fault point *inside* one of its parallel regions
};

const AlgFaultCase kAlgFaultCases[] = {
    {"Bor-EL", &core::bor_el_msf, "bor-el.connect.region"},
    {"Bor-AL", &core::bor_al_msf, "bor-al.connect.region"},
    {"Bor-ALM", &core::bor_alm_msf, "arena.alloc"},
    {"Bor-FAL", &core::bor_fal_msf, "bor-fal.connect.region"},
    {"MST-BC", &core::mst_bc_msf, "mst-bc.step3.region"},
};

TEST_F(FaultInjection, BadAllocInEveryParallelAlgorithmIsCatchable) {
  const EdgeList g = random_graph(4000, 16000, 11);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  for (const auto& c : kAlgFaultCases) {
    ThreadTeam team(4);
    core::MsfOptions opts;
    opts.threads = 4;
    opts.bc_base_size = 32;  // keep MST-BC in its parallel phase
    FaultInjector::arm(c.site, FaultKind::kBadAlloc);
    EXPECT_THROW((void)c.entry(team, g, opts), std::bad_alloc) << c.name;
    EXPECT_GE(FaultInjector::hits(c.site), 1u) << c.name;
    FaultInjector::disarm_all();
    // No terminate, no hung barrier — and the same team solves cleanly.
    EXPECT_EQ(test::sorted_ids(c.entry(team, g, opts)), ref) << c.name;
  }
}

// The fused-iteration refactor moved compact-graph into the same SPMD region
// as find-min and connect-components: a throw there happens with the team
// deep inside a barrier-synchronized region, so the poisoned-barrier release
// must unwind every sibling.  One case per converted algorithm.
const AlgFaultCase kCompactRegionCases[] = {
    {"Bor-EL", &core::bor_el_msf, "bor-el.compact.region"},
    {"Bor-AL", &core::bor_al_msf, "bor-al.compact.region"},
    {"Bor-ALM", &core::bor_alm_msf, "bor-al.compact.region"},
    {"Bor-FAL", &core::bor_fal_msf, "bor-fal.compact.region"},
    {"MST-BC", &core::mst_bc_msf, "mst-bc.compact.region"},
};

TEST_F(FaultInjection, CompactFaultInsideFusedRegionUnwinds) {
  const EdgeList g = random_graph(4000, 16000, 18);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  for (const auto& c : kCompactRegionCases) {
    ThreadTeam team(4);
    core::MsfOptions opts;
    opts.threads = 4;
    opts.bc_base_size = 32;  // keep MST-BC in its parallel phase
    FaultInjector::arm(c.site, FaultKind::kBadAlloc);
    EXPECT_THROW((void)c.entry(team, g, opts), std::bad_alloc) << c.name;
    EXPECT_GE(FaultInjector::hits(c.site), 1u) << c.name;
    FaultInjector::disarm_all();
    // No terminate, no hung barrier — and the same team solves cleanly.
    EXPECT_EQ(test::sorted_ids(c.entry(team, g, opts)), ref) << c.name;
  }
}

TEST_F(FaultInjection, LaterIterationFaultAlsoUnwinds) {
  const EdgeList g = random_graph(4000, 16000, 12);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  ThreadTeam team(4);
  core::MsfOptions opts;
  opts.threads = 4;
  // The find-min fault point fires once per Borůvka iteration; skip the
  // first so the fault lands mid-algorithm with live intermediate state.
  FaultInjector::arm("bor-el.find-min", FaultKind::kBadAlloc, /*skip=*/1);
  EXPECT_THROW((void)core::bor_el_msf(team, g, opts), std::bad_alloc);
  EXPECT_EQ(FaultInjector::hits("bor-el.find-min"), 2u);
  FaultInjector::disarm_all();
  EXPECT_EQ(test::sorted_ids(core::bor_el_msf(team, g, opts)), ref);
}

TEST_F(FaultInjection, RuntimeErrorKindPropagatesTyped) {
  const EdgeList g = random_graph(2000, 8000, 13);
  ThreadTeam team(3);
  core::MsfOptions opts;
  opts.threads = 3;
  FaultInjector::arm("bor-fal.connect.region", FaultKind::kRuntimeError);
  try {
    (void)core::bor_fal_msf(team, g, opts);
    FAIL() << "expected injected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bor-fal.connect.region"),
              std::string::npos);
  }
}

TEST_F(FaultInjection, DispatcherDegradesInjectedBadAllocToKruskal) {
  // Through the public API an allocation failure is not fatal: the request
  // degrades to sequential Kruskal and says so in the result.
  const EdgeList g = random_graph(3000, 12000, 14);
  FaultInjector::arm("bor-el.compact", FaultKind::kBadAlloc);
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kBorEL;
  opts.threads = 4;
  const auto r = core::minimum_spanning_forest(g, opts);
  EXPECT_TRUE(r.degraded_to_sequential);
  EXPECT_EQ(test::sorted_ids(r), test::sorted_ids(seq::kruskal_msf(g)));
}

// A helper that fails mid-sort: the weight sort's bucket fault point fires
// on helpers only, so at p = 4 the fourth bucket a helper claims fails
// while tid 0 sorts, waits for or consumes other buckets.

/// Arms the bucket sort's fault point to fire at a helper's fourth claim.
void arm_fourth_bucket_sort() {
  FaultInjector::arm("weight-sort.bucket", FaultKind::kBadAlloc, /*skip=*/3);
}

/// The team still runs a clean region on every thread.
void expect_clean_region(ThreadTeam& team) {
  std::atomic<int> ran{0};
  team.run([&](TeamCtx&) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), team.size());
}

TEST_F(FaultInjection, BucketSortFaultInBorFalPrologueUnwindsAndDegrades) {
  const VertexId n = VertexId{1} << 17;
  const EdgeList g = random_graph(n, 10 * EdgeId{n}, 61);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  ThreadTeam team(4);
  core::MsfOptions opts;
  opts.threads = 4;
  arm_fourth_bucket_sort();
  EXPECT_THROW((void)core::bor_fal_msf(team, g, opts), std::bad_alloc);
  EXPECT_GE(FaultInjector::hits("weight-sort.bucket"), 4u);
  FaultInjector::disarm_all();
  expect_clean_region(team);
  EXPECT_EQ(test::sorted_ids(core::bor_fal_msf(team, g, opts)), ref);

  arm_fourth_bucket_sort();
  opts.algorithm = core::Algorithm::kBorFAL;
  const auto r = core::minimum_spanning_forest(g, opts);
  EXPECT_TRUE(r.degraded_to_sequential);
  EXPECT_EQ(test::sorted_ids(r), ref);
}

TEST_F(FaultInjection, BucketSortFaultInChampionLightPassUnwindsAndDegrades) {
  const VertexId n = VertexId{1} << 17;
  const EdgeList g = random_graph(n, 10 * EdgeId{n}, 62);
  const auto ref = test::sorted_ids(seq::kruskal_msf(g));
  ThreadTeam team(4);
  arm_fourth_bucket_sort();
  EXPECT_THROW((void)core::champion_msf(team, g), std::bad_alloc);
  EXPECT_GE(FaultInjector::hits("weight-sort.bucket"), 4u);
  FaultInjector::disarm_all();
  expect_clean_region(team);
  EXPECT_EQ(test::sorted_ids(core::champion_msf(team, g)), ref);

  arm_fourth_bucket_sort();
  core::MsfOptions opts;
  opts.threads = 4;
  const auto r = core::minimum_spanning_forest(g, opts);
  EXPECT_TRUE(r.degraded_to_sequential);
  EXPECT_EQ(test::sorted_ids(r), ref);
}

TEST_F(FaultInjection, BucketSortFaultInForestIndexBuildUnwinds) {
  // 2^18 forest edges: 64 buckets, so the helpers claim four of them
  // however far tid 0's merges run ahead.
  const VertexId n = VertexId{1} << 18;
  const EdgeList g = random_graph(n, 4 * EdgeId{n}, 63);
  const MsfResult msf = seq::kruskal_msf(g);
  std::vector<EdgeId> fids = test::sorted_ids(msf);
  std::vector<WEdge> fedges;
  for (const EdgeId id : fids) fedges.push_back(g.edges[id]);
  ThreadTeam team(4);
  arm_fourth_bucket_sort();
  EXPECT_THROW(query::ForestIndex(team, n, fedges, fids, 1), std::bad_alloc);
  EXPECT_GE(FaultInjector::hits("weight-sort.bucket"), 4u);
  FaultInjector::disarm_all();
  expect_clean_region(team);
  const query::ForestIndex index(team, n, fedges, fids, 1);
  EXPECT_EQ(index.stats().num_forest_edges, fids.size());
}

// ---------------------------------------------------------------------------
// ExecutionBudget: cancellation and deadlines

TEST(Budget, CheckThrowsTypedErrors) {
  ExecutionBudget b;
  EXPECT_NO_THROW(b.check("idle"));
  b.request_cancel();
  EXPECT_TRUE(b.cancel_requested());
  try {
    b.check("here");
    FAIL() << "expected cancellation";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    EXPECT_NE(std::string(e.what()).find("here"), std::string::npos);
  }
}

TEST(Budget, PreCancelledRequestFailsFastForEveryParallelAlgorithm) {
  const EdgeList g = random_graph(2000, 8000, 15);
  ExecutionBudget budget;
  budget.request_cancel();
  for (const auto alg : core::kParallelAlgorithms) {
    core::MsfOptions opts;
    opts.algorithm = alg;
    opts.threads = 4;
    opts.budget = &budget;
    try {
      (void)core::minimum_spanning_forest(g, opts);
      FAIL() << core::to_string(alg);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCancelled) << core::to_string(alg);
    }
  }
}

TEST(Budget, DeadlineZeroTripsWithinOneIterationCheckpoint) {
  // 200k-vertex input: a deadline of 0 must surface kDeadlineExceeded at the
  // first checkpoint of every parallel algorithm — directly at the algorithm
  // entry points, so the per-iteration checks themselves are exercised.
  const EdgeList g = random_graph(200000, 600000, 16);
  ExecutionBudget budget;
  budget.set_deadline_after(0);
  for (const auto& c : kAlgFaultCases) {
    ThreadTeam team(4);
    core::MsfOptions opts;
    opts.threads = 4;
    opts.budget = &budget;
    try {
      (void)c.entry(team, g, opts);
      FAIL() << c.name;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded) << c.name;
    }
    // The team unwound cleanly: it still runs regions.
    std::atomic<int> ran{0};
    team.run([&](TeamCtx&) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4) << c.name;
  }
}

TEST(Budget, GenerousDeadlineDoesNotPerturbResults) {
  const EdgeList g = random_graph(3000, 12000, 17);
  ExecutionBudget budget;
  budget.set_deadline_after(3600.0);
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kBorFAL;
  opts.threads = 4;
  opts.budget = &budget;
  const auto r = core::minimum_spanning_forest(g, opts);
  EXPECT_FALSE(r.degraded_to_sequential);
  EXPECT_EQ(test::sorted_ids(r), test::sorted_ids(seq::kruskal_msf(g)));
}

TEST(Budget, CancelMidBoruvkaReturnsCancelledWithTeamJoined) {
  // An uncancelled run counts its budget checks; a second run is cancelled
  // at the check halfway through that count, so the request must come back
  // as kCancelled from a Borůvka iteration checkpoint however loaded the
  // machine is.  The dispatcher-owned ThreadTeam is destroyed (joined)
  // before the error escapes minimum_spanning_forest — a hung worker would
  // hang this test.
  const EdgeList g = random_graph(300000, 900000, 18);
  ExecutionBudget budget;
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kBorEL;
  opts.threads = 4;
  opts.budget = &budget;
  FaultInjector::arm("budget.check", FaultKind::kCancel,
                     std::uint64_t{1} << 40);  // counts, never fires
  (void)core::minimum_spanning_forest(g, opts);
  const std::uint64_t checks = FaultInjector::hits("budget.check");
  // "request start" and at least two iteration checkpoints.
  ASSERT_GE(checks, 3u);
  FaultInjector::arm("budget.check", FaultKind::kCancel, checks / 2);
  try {
    (void)core::minimum_spanning_forest(g, opts);
    FAIL() << "expected cancellation";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
  }
  FaultInjector::disarm_all();
}

TEST(Budget, CancelMidRunStopsExtensionsAndChampion) {
  // Each algorithm must check the budget while it runs, not only at the
  // dispatcher's "request start": an uncancelled run counts its budget
  // checks, and a second run is cancelled at the check a quarter of the way
  // through that count — no clock involved.  The dispatcher-owned team is
  // joined before the error escapes (a hung worker would hang this test).
  const EdgeList g = random_graph(100000, 1000000, 21);
  for (const auto alg : {core::Algorithm::kChampion}) {
    core::MsfOptions opts;
    opts.algorithm = alg;
    opts.threads = 4;
    ExecutionBudget budget;
    opts.budget = &budget;
    FaultInjector::arm("budget.check", FaultKind::kCancel,
                       std::uint64_t{1} << 40);  // counts, never fires
    (void)core::minimum_spanning_forest(g, opts);
    const std::uint64_t checks = FaultInjector::hits("budget.check");
    // "request start" and at least three checks inside the run.
    ASSERT_GE(checks, 4u) << core::to_string(alg);

    FaultInjector::arm("budget.check", FaultKind::kCancel, checks / 4);
    try {
      (void)core::minimum_spanning_forest(g, opts);
      ADD_FAILURE() << core::to_string(alg) << ": expected cancellation";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCancelled) << core::to_string(alg);
    }
    FaultInjector::disarm_all();
  }
}

// ---------------------------------------------------------------------------
// Memory cap: arena ledger and graceful degradation

TEST(ArenaCap, SharedLedgerThrowsBadAllocAtCap) {
  ThreadArenas arenas(2, /*chunk_bytes=*/1 << 12, /*cap_bytes=*/1 << 13);
  // One 4 KiB chunk per thread fills the 8 KiB cap; the next chunk trips.
  (void)arenas.local(0).alloc_array<std::byte>(1 << 10);
  (void)arenas.local(1).alloc_array<std::byte>(1 << 10);
  EXPECT_EQ(arenas.total_reserved(), std::size_t{1} << 13);
  // Doesn't fit the 3 KiB left in thread 0's chunk -> needs a fresh chunk.
  EXPECT_THROW((void)arenas.local(0).alloc_array<std::byte>(1 << 12),
               std::bad_alloc);
  // The failed reservation rolled its bytes back off the ledger.
  EXPECT_EQ(arenas.total_reserved(), std::size_t{1} << 13);
  // reset() recycles chunks without new reservations, so steady-state reuse
  // stays under the cap.
  arenas.reset_all();
  EXPECT_NO_THROW((void)arenas.local(0).alloc_array<std::byte>(1 << 10));
}

TEST(Fallback, MemoryCapDegradesToValidatedKruskalForest) {
  const EdgeList g = random_graph(3000, 12000, 19);
  ExecutionBudget budget;
  budget.set_memory_cap(std::size_t{8} << 10);  // far below Bor-ALM's needs
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kBorALM;
  opts.threads = 4;
  opts.budget = &budget;
  const auto r = core::minimum_spanning_forest(g, opts);
  EXPECT_TRUE(r.degraded_to_sequential);
  EXPECT_EQ(test::sorted_ids(r), test::sorted_ids(seq::kruskal_msf(g)));
  const auto check = validate_spanning_forest(g, r.edges);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.num_trees, r.num_trees);
}

TEST(Fallback, DisabledFallbackSurfacesOutOfMemory) {
  const EdgeList g = random_graph(3000, 12000, 19);
  ExecutionBudget budget;
  budget.set_memory_cap(std::size_t{8} << 10);
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kBorALM;
  opts.threads = 4;
  opts.budget = &budget;
  opts.allow_sequential_fallback = false;
  try {
    (void)core::minimum_spanning_forest(g, opts);
    FAIL() << "expected kOutOfMemory";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOutOfMemory);
  }
}

TEST(Fallback, UncappedBorAlmIsUnaffected) {
  const EdgeList g = random_graph(3000, 12000, 20);
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kBorALM;
  opts.threads = 4;
  const auto r = core::minimum_spanning_forest(g, opts);
  EXPECT_FALSE(r.degraded_to_sequential);
  EXPECT_EQ(test::sorted_ids(r), test::sorted_ids(seq::kruskal_msf(g)));
}

// ---------------------------------------------------------------------------
// Up-front request validation

TEST(InvalidOptions, ZeroThreadsRejected) {
  const EdgeList g = random_graph(100, 300, 1);
  core::MsfOptions opts;
  opts.threads = 0;
  try {
    (void)core::minimum_spanning_forest(g, opts);
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
  }
  opts.threads = -3;
  EXPECT_THROW((void)core::minimum_spanning_forest(g, opts), Error);
}

TEST(InvalidOptions, ZeroBcBaseSizeRejected) {
  const EdgeList g = random_graph(100, 300, 1);
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kMstBC;
  opts.bc_base_size = 0;
  try {
    (void)core::minimum_spanning_forest(g, opts);
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
  }
}

TEST(InvalidOptions, OutOfRangeAlgorithmRejected) {
  // 8-11 are the ids of removed algorithms: never reused, always rejected.
  const EdgeList g = random_graph(100, 300, 1);
  for (const int id : {999, 8, 9, 10, 11}) {
    core::MsfOptions opts;
    opts.algorithm = static_cast<core::Algorithm>(id);
    try {
      (void)core::minimum_spanning_forest(g, opts);
      ADD_FAILURE() << "algorithm id " << id << " accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput) << id;
    }
  }
}

TEST(InvalidOptions, MalformedGraphRejectedWithCode) {
  EdgeList g(3);
  g.add_edge(0, 1, 1.0);
  g.edges.push_back(WEdge{2, 2, 1.0});  // self-loop, bypassing add_edge
  try {
    (void)core::minimum_spanning_forest(g, core::MsfOptions{});
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
  }
}

// ---------------------------------------------------------------------------
// Non-finite weights at the I/O boundary

TEST(IoGuards, DimacsRejectsNonFiniteWeights) {
  for (const char* bad : {"nan", "inf", "-inf", "NaN", "Infinity"}) {
    std::istringstream is(std::string("p edge 2 1\ne 1 2 ") + bad + "\n");
    EXPECT_THROW((void)read_dimacs(is), std::runtime_error) << bad;
  }
  // Finite weights still parse.
  std::istringstream ok("p edge 2 1\ne 1 2 0.5\n");
  const EdgeList g = read_dimacs(ok);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(IoGuards, BinaryRejectsNonFiniteWeights) {
  for (const Weight bad : {std::numeric_limits<Weight>::quiet_NaN(),
                           std::numeric_limits<Weight>::infinity(),
                           -std::numeric_limits<Weight>::infinity()}) {
    EdgeList g(2);
    g.edges.push_back(WEdge{0, 1, bad});  // add_edge has no weight check
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    write_binary(ss, g);
    EXPECT_THROW((void)read_binary(ss), std::runtime_error) << bad;
  }
}

}  // namespace
