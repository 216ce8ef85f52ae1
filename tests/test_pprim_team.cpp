// ThreadTeam, SenseBarrier, parallel_for, block_range.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "pprim/barrier.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/partition.hpp"
#include "pprim/thread_team.hpp"

namespace {

using namespace smp;

TEST(BlockRange, CoversAllIndicesExactlyOnce) {
  for (const std::size_t n : {0u, 1u, 7u, 64u, 1001u}) {
    for (const int p : {1, 2, 3, 8, 13}) {
      std::vector<int> hits(n, 0);
      std::size_t max_size = 0, min_size = SIZE_MAX;
      for (int t = 0; t < p; ++t) {
        const IndexRange r = block_range(n, t, p);
        EXPECT_LE(r.begin, r.end);
        for (std::size_t i = r.begin; i < r.end; ++i) ++hits[i];
        max_size = std::max(max_size, r.size());
        min_size = std::min(min_size, r.size());
      }
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "n=" << n << " p=" << p;
      EXPECT_LE(max_size - min_size, 1u) << "balance within one element";
    }
  }
}

TEST(ThreadTeam, SingleThreadRunsInline) {
  ThreadTeam team(1);
  int calls = 0;
  team.run([&](TeamCtx& ctx) {
    EXPECT_EQ(ctx.tid(), 0);
    EXPECT_EQ(ctx.nthreads(), 1);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadTeam, EveryThreadRunsEveryRegion) {
  ThreadTeam team(5);
  std::atomic<int> count{0};
  for (int region = 0; region < 20; ++region) {
    count.store(0);
    team.run([&](TeamCtx&) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 5) << "region " << region;
  }
}

TEST(ThreadTeam, TidsAreDistinct) {
  ThreadTeam team(7);
  std::vector<std::atomic<int>> seen(7);
  team.run([&](TeamCtx& ctx) { seen[ctx.tid()].fetch_add(1); });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadTeam, BarrierSeparatesPhases) {
  // Each thread writes its slot in phase 1; after the barrier every thread
  // must observe all phase-1 writes.
  constexpr int kP = 6;
  ThreadTeam team(kP);
  std::vector<int> slot(kP, 0);
  std::atomic<int> failures{0};
  for (int round = 1; round <= 50; ++round) {
    team.run([&](TeamCtx& ctx) {
      slot[ctx.tid()] = round;
      ctx.barrier();
      for (int t = 0; t < kP; ++t) {
        if (slot[t] != round) failures.fetch_add(1);
      }
    });
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadTeam, ManyBarriersInOneRegion) {
  constexpr int kP = 4;
  ThreadTeam team(kP);
  std::atomic<int> counter{0};
  std::atomic<int> failures{0};
  team.run([&](TeamCtx& ctx) {
    for (int i = 1; i <= 100; ++i) {
      counter.fetch_add(1);
      ctx.barrier();
      if (counter.load() != i * kP) failures.fetch_add(1);
      ctx.barrier();
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(ParallelFor, VisitsEachIndexOnce) {
  ThreadTeam team(4);
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(team, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForDynamic, VisitsEachIndexOnce) {
  ThreadTeam team(4);
  const std::size_t n = 50000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_dynamic(team, n, 64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, ZeroAndTinySizes) {
  ThreadTeam team(3);
  int sum = 0;
  parallel_for(team, 0, [&](std::size_t) { ++sum; });
  EXPECT_EQ(sum, 0);
  std::atomic<int> asum{0};
  parallel_for(team, 5, [&](std::size_t) { asum.fetch_add(1); });
  EXPECT_EQ(asum.load(), 5);
}

TEST(SenseBarrier, ReusableAcrossGenerations) {
  SenseBarrier b(2);
  std::atomic<int> stage{0};
  std::atomic<int> releases{0};
  std::thread t([&] {
    for (int i = 0; i < 1000; ++i) {
      if (b.arrive_and_wait()) releases.fetch_add(1);
    }
    stage.store(1);
  });
  for (int i = 0; i < 1000; ++i) {
    if (b.arrive_and_wait()) releases.fetch_add(1);
  }
  t.join();
  EXPECT_EQ(stage.load(), 1);
  EXPECT_EQ(releases.load(), 2000);  // never poisoned: every release is normal
}

TEST(SenseBarrier, SpinningWaitersReleaseAcrossGenerations) {
  SenseBarrier b(2, /*spin=*/true);
  std::atomic<int> releases{0};
  std::thread t([&] {
    for (int i = 0; i < 1000; ++i) {
      if (b.arrive_and_wait()) releases.fetch_add(1);
    }
  });
  for (int i = 0; i < 1000; ++i) {
    if (b.arrive_and_wait()) releases.fetch_add(1);
  }
  t.join();
  EXPECT_EQ(releases.load(), 2000);
}

TEST(SenseBarrier, PoisonReleasesSpinningWaiters) {
  // Three parties of four arrive and spin; the fourth poisons the barrier
  // instead of arriving.  Each waiter returns false, whether the poison
  // found it spinning, parked or not yet arrived.
  SenseBarrier b(4, /*spin=*/true);
  std::atomic<int> arriving{0};
  std::atomic<int> released{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&] {
      arriving.fetch_add(1);
      (b.arrive_and_wait() ? released : failed).fetch_add(1);
    });
  }
  while (arriving.load() < 3) std::this_thread::yield();
  b.poison();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(released.load(), 0);
  EXPECT_EQ(failed.load(), 3);
}

TEST(ThreadTeam, DestroyedWhileItsWorkersSpin) {
  // Right after a region, the workers of a team no larger than the machine
  // spin on the dispatch word before they park.  Destroying the team then
  // must stop and join them, in either state.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    {
      ThreadTeam team(2);
      team.run([&](TeamCtx& ctx) {
        ran.fetch_add(1);
        ctx.barrier();
      });
    }
    EXPECT_EQ(ran.load(), 2) << "round " << round;
  }
}

}  // namespace
