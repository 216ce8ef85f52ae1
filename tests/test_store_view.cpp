// StoreView: the O(1) MVCC view of an EdgeStore.  A view taken at any point
// must keep answering exactly what live_graph() returned at that point —
// across later inserts, erases, buffer growth and compaction —
// including while the writer keeps mutating the store on another thread.
// Also: a store made by adoption, restore, compaction or a copy grows to
// twice its slots in place, and EdgeStore::serialize's byte layout, which
// WAL snapshots depend on, is pinned.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/edge_store.hpp"
#include "pprim/fault.hpp"
#include "pprim/rng.hpp"

namespace {

using namespace smp;
using namespace smp::graph;
using smp::dynamic::EdgeStore;
using smp::dynamic::StoreView;

/// What live_graph() said at the moment a view was taken.
struct Pinned {
  StoreView view;
  EdgeList live;
  std::vector<EdgeId> ids;
  EdgeId slots = 0;
};

Pinned pin(const EdgeStore& s) {
  Pinned p;
  p.view = s.view();
  p.live = s.live_graph(&p.ids);
  p.slots = s.size();
  return p;
}

void expect_view_matches(const Pinned& p) {
  std::vector<EdgeId> ids;
  const EdgeList live = p.view.live_graph(&ids);
  ASSERT_EQ(ids, p.ids);
  ASSERT_EQ(live.num_vertices, p.live.num_vertices);
  ASSERT_EQ(live.edges, p.live.edges);
  EXPECT_EQ(p.view.num_live(), p.ids.size());
  EXPECT_EQ(p.view.size(), p.slots);
  std::size_t next = 0;
  for (EdgeId id = 0; id < p.slots + 3; ++id) {
    const bool want = next < p.ids.size() && p.ids[next] == id;
    ASSERT_EQ(p.view.is_live(id), want) << "slot " << id;
    if (want) {
      EXPECT_EQ(p.view.edge(id), p.live.edges[next]);
      ++next;
    }
  }
}

/// One random mutation: mostly inserts, some erases of a random live slot,
/// and (when `compact_every` > 0) a compaction every that many steps.
void mutate(EdgeStore& s, Rng& rng, int step, int compact_every) {
  const VertexId n = s.num_vertices();
  if (compact_every > 0 && step % compact_every == compact_every - 1) {
    (void)s.compact();
    return;
  }
  if (s.num_live() > 0 && rng.next_below(3) == 0) {
    for (;;) {
      const EdgeId id = rng.next_below(s.size());
      if (s.is_live(id)) {
        s.erase(id);
        return;
      }
    }
  }
  const auto u = static_cast<VertexId>(rng.next_below(n));
  auto v = static_cast<VertexId>(rng.next_below(n - 1));
  if (v >= u) ++v;
  s.insert(u, v, static_cast<Weight>(rng.next_below(8)));
}

TEST(StoreView, MatchesLiveGraphAcrossInsertsErasesGrowthAndCompaction) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    EdgeStore s(40);
    std::vector<Pinned> pins;
    pins.push_back(pin(s));  // empty store, no buffer yet
    for (int step = 0; step < 600; ++step) {
      mutate(s, rng, step, /*compact_every=*/150);
      if (step % 7 == 0) pins.push_back(pin(s));
    }
    // The store went through several doublings past the 16-slot minimum
    // and four compactions; every pinned view still answers for its own
    // moment.
    EXPECT_EQ(s.compactions(), 4u);
    for (const Pinned& p : pins) expect_view_matches(p);
    expect_view_matches(pin(s));
  }
}

TEST(StoreView, AdoptedEdgeListAndRestoredStore) {
  EdgeList g(6);
  for (VertexId i = 0; i + 1 < 6; ++i) g.add_edge(i, i + 1, 1.0 + i);
  EdgeStore s(g);
  const Pinned before = pin(s);
  s.erase(2);
  s.insert(0, 5, 0.5);
  const Pinned after = pin(s);
  std::string bytes;
  s.serialize(bytes);
  EdgeStore r = EdgeStore::restore(
      reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size());
  const Pinned restored = pin(r);
  r.erase(0);
  r.insert(1, 4, 2.5);
  expect_view_matches(before);
  expect_view_matches(after);
  expect_view_matches(restored);
  EXPECT_EQ(restored.ids, after.ids);
  EXPECT_EQ(restored.live.edges, after.live.edges);
}

TEST(StoreView, CopiedStoreNeverSharesAWritableBuffer) {
  EdgeStore a(10);
  for (VertexId i = 0; i + 1 < 10; ++i) a.insert(i, i + 1, 1.0);
  const Pinned pa = pin(a);
  EdgeStore b = a;
  // Appends land in b's spare capacity and erases stamp b's slots; neither
  // may show through a's buffer.
  b.insert(0, 9, 0.25);
  b.erase(3);
  EXPECT_EQ(a.size(), 9u);
  EXPECT_TRUE(a.is_live(3));
  expect_view_matches(pa);
  expect_view_matches(pin(a));
  EdgeStore c(1);
  c = b;
  c.erase(0);
  EXPECT_TRUE(b.is_live(0));
  EXPECT_EQ(b.num_live(), 9u);
}

TEST(StoreView, ConcurrentReadersOfPinnedViewsWhileWriterMutates) {
  EdgeStore s(64);
  std::mutex mu;
  std::vector<std::shared_ptr<const Pinned>> pins;
  {
    auto p = std::make_shared<Pinned>(pin(s));
    pins.push_back(std::move(p));
  }
  std::atomic<bool> done{false};
  std::atomic<int> checks{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + r);
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const Pinned> p;
        {
          std::lock_guard<std::mutex> lk(mu);
          p = pins[rng.next_below(pins.size())];
        }
        std::vector<EdgeId> ids;
        const EdgeList live = p->view.live_graph(&ids);
        if (ids != p->ids || live.edges != p->live.edges) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  Rng rng(7);
  for (int step = 0; step < 3000; ++step) {
    mutate(s, rng, step, /*compact_every=*/700);
    if (step % 25 == 0) {
      auto p = std::make_shared<const Pinned>(pin(s));
      std::lock_guard<std::mutex> lk(mu);
      pins.push_back(std::move(p));
    }
  }
  // Let the readers see the final set of views too.
  while (checks.load(std::memory_order_relaxed) < 200) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  for (const auto& p : pins) expect_view_matches(*p);
}

TEST(StoreView, FirstDoublingAfterAnyNewBufferIsInPlace) {
  // Adoption, restore, compaction and a copy each make a buffer of the
  // store's slots, with a reservation of twice as many.  Growing to twice
  // the slots passes edge-store.grow once and leaves slot 0 where it was;
  // the next doubling moves to a new buffer, the one after extends that
  // buffer in place again.  A view pinned before any of it reads as pinned.
  constexpr VertexId kN = 100;
  constexpr EdgeId kM = 1000;
  EdgeList g(kN);
  Rng rng(17);
  for (EdgeId i = 0; i < kM; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(kN));
    g.add_edge(u, (u + 1 + static_cast<VertexId>(rng.next_below(kN - 1))) % kN,
               rng.next_double());
  }
  const auto made = [&](int how) {
    if (how == 0) return EdgeStore(g);
    if (how == 1) {
      std::string bytes;
      EdgeStore(g).serialize(bytes);
      return EdgeStore::restore(
          reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size());
    }
    if (how == 2) {
      // kM live edges once the first kM / 2 dead slots are dropped.
      EdgeList wider = g;
      wider.edges.insert(wider.edges.begin(), g.edges.begin(),
                         g.edges.begin() + kM / 2);
      EdgeStore s(wider);
      for (EdgeId id = 0; id < kM / 2; ++id) s.erase(id);
      (void)s.compact();
      return s;
    }
    const EdgeStore original(g);
    return EdgeStore(original);
  };
  for (int how = 0; how < 4; ++how) {
    static constexpr const char* kHow[] = {"adopted", "restored", "compacted",
                                           "copied"};
    SCOPED_TRACE(kHow[how]);
    EdgeStore s = made(how);
    ASSERT_EQ(s.size(), kM);
    const Pinned pinned = pin(s);
    const WEdge* slot0 = &s.edge(0);
    // Counts the hits without ever firing.
    FaultInjector::arm("edge-store.grow", FaultKind::kBadAlloc, 1u << 30);
    const auto grow_to = [&](EdgeId size) {
      while (s.size() < size) {
        const auto u = static_cast<VertexId>(rng.next_below(kN));
        s.insert(u, (u + 1) % kN, rng.next_double());
      }
    };
    grow_to(2 * kM);
    EXPECT_EQ(FaultInjector::hits("edge-store.grow"), 1u);
    EXPECT_EQ(&s.edge(0), slot0);
    expect_view_matches(pinned);
    grow_to(2 * kM + 1);
    EXPECT_EQ(FaultInjector::hits("edge-store.grow"), 2u);
    const WEdge* moved = &s.edge(0);
    EXPECT_NE(moved, slot0);
    grow_to(4 * kM + 1);
    EXPECT_EQ(FaultInjector::hits("edge-store.grow"), 3u);
    EXPECT_EQ(&s.edge(0), moved);
    FaultInjector::disarm_all();
    expect_view_matches(pinned);
  }
}

/// The serialize layout, written out independently of the store: u32 n,
/// u64 slots, then per slot u32 u, u32 v, f64 w, u8 dead (little-endian).
std::string encode(VertexId n, const std::vector<WEdge>& slots,
                   const std::vector<int>& dead) {
  std::string out;
  const auto put = [&](const void* p, std::size_t len) {
    out.append(static_cast<const char*>(p), len);
  };
  const std::uint32_t n32 = n;
  const std::uint64_t m = slots.size();
  put(&n32, 4);
  put(&m, 8);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    put(&slots[i].u, 4);
    put(&slots[i].v, 4);
    put(&slots[i].w, 8);
    const auto d = static_cast<std::uint8_t>(dead[i]);
    put(&d, 1);
  }
  return out;
}

TEST(EdgeStoreSerialize, GoldenBytesAfterGrowthAndErasures) {
  // 40 slots: the 16-slot buffer doubles twice on the way.
  EdgeStore s(50);
  std::vector<WEdge> slots;
  std::vector<int> dead;
  for (VertexId i = 0; i < 40; ++i) {
    const WEdge e{i, i + 7, 0.5 * i - 3.0};
    ASSERT_EQ(s.insert(e.u, e.v, e.w), i);
    slots.push_back(e);
    dead.push_back(0);
  }
  for (const EdgeId id : {0u, 15u, 16u, 17u, 33u, 39u}) {
    s.erase(id);
    dead[id] = 1;
  }
  std::string bytes;
  s.serialize(bytes);
  ASSERT_EQ(bytes.size(), 12u + 17u * 40u);
  EXPECT_EQ(bytes, encode(50, slots, dead));
  // Spot-check the layout itself on slot 1: (1, 8, -2.5), live.
  std::uint32_t u = 0;
  double w = 0;
  std::memcpy(&u, bytes.data() + 12 + 17, 4);
  std::memcpy(&w, bytes.data() + 12 + 17 + 8, 8);
  EXPECT_EQ(u, 1u);
  EXPECT_EQ(w, -2.5);
  EXPECT_EQ(bytes[12 + 17 * 15 + 16], 1);  // slot 15's dead flag

  // A restored store serializes to the same bytes, and keeps doing so after
  // it grows on its own.
  EdgeStore r = EdgeStore::restore(
      reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size());
  std::string again;
  r.serialize(again);
  EXPECT_EQ(again, bytes);
  r.insert(2, 3, 9.0);
  s.insert(2, 3, 9.0);
  std::string r2, s2;
  r.serialize(r2);
  s.serialize(s2);
  EXPECT_EQ(r2, s2);
}

}  // namespace
