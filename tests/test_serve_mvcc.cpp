// MVCC read snapshots: every forest-changing commit publishes an immutable
// epoch-stamped snapshot, reads/queries pin epochs, and a pinned answer is
// bit-identical to a from-scratch solve of that epoch's live graph — even
// while writers advance the session underneath.  Retired epochs fail with a
// clean kInvalidInput, never a stale or torn answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/msf.hpp"
#include "graph/generators.hpp"
#include "pprim/fault.hpp"
#include "pprim/rng.hpp"
#include "pprim/thread_team.hpp"
#include "query/forest_index.hpp"
#include "serve/service_core.hpp"

namespace {

using namespace smp;
using namespace smp::graph;
using namespace smp::serve;

Request make(Op op, std::string session = {}) {
  Request r;
  r.op = op;
  r.session = std::move(session);
  return r;
}

/// Scratch-solves the snapshot's live graph with the same backend and
/// demands bit-identity with the forest the snapshot carries.
void check_against_scratch(const SnapshotData& snap,
                           const core::MsfOptions& opts) {
  const MsfResult ref = core::minimum_spanning_forest_of_candidates(
      snap.live, snap.live_ids, opts);
  std::vector<EdgeId> ref_forest = ref.edge_ids;
  std::sort(ref_forest.begin(), ref_forest.end());
  ASSERT_EQ(snap.forest_ids, ref_forest);

  std::unordered_map<EdgeId, Weight> weight_of;
  weight_of.reserve(snap.live_ids.size());
  for (std::size_t i = 0; i < snap.live_ids.size(); ++i) {
    weight_of[snap.live_ids[i]] = snap.live.edges[i].w;
  }
  const Weight ref_weight =
      exact_sum(snap.forest_ids, [&](EdgeId id) { return weight_of.at(id); });
  ASSERT_EQ(snap.weight, ref_weight);
  ASSERT_EQ(snap.trees, ref.num_trees);
}

/// Forest connectivity of a snapshot by union-find — the reference a pinned
/// kConnected answer must reproduce.
class SnapshotUf {
 public:
  explicit SnapshotUf(const SnapshotData& snap)
      : parent_(snap.live.num_vertices) {
    for (VertexId i = 0; i < snap.live.num_vertices; ++i) parent_[i] = i;
    std::unordered_map<EdgeId, WEdge> edge_of;
    edge_of.reserve(snap.live_ids.size());
    for (std::size_t i = 0; i < snap.live_ids.size(); ++i) {
      edge_of[snap.live_ids[i]] = snap.live.edges[i];
    }
    for (const EdgeId id : snap.forest_ids) {
      const WEdge& e = edge_of.at(id);
      parent_[find(e.u)] = find(e.v);
    }
  }

  bool connected(VertexId u, VertexId v) { return find(u) == find(v); }

 private:
  VertexId find(VertexId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  std::vector<VertexId> parent_;
};

TEST(ServeMvcc, WritesAdvanceEpochsAndPinnedReadsAreImmutable) {
  ServeOptions opts;
  opts.snapshot_ring = 16;
  ServiceCore svc(opts);
  Request open = make(Op::kOpen, "g");
  open.num_vertices = 20;
  ASSERT_EQ(svc.call(open).status, Status::kOk);

  // Serial writes: each commit is one epoch.  Record the facts each commit
  // acknowledged with.
  struct Committed {
    std::uint64_t epoch;
    Weight weight;
    std::size_t forest;
  };
  std::vector<Committed> history;
  for (int i = 0; i < 6; ++i) {
    Request ins = make(Op::kInsert, "g");
    ins.insertions = {{static_cast<VertexId>(i), static_cast<VertexId>(i + 1),
                       1.0 + i}};
    const Response r = svc.call(ins);
    ASSERT_EQ(r.status, Status::kOk);
    ASSERT_GT(r.epoch, history.empty() ? 0u : history.back().epoch);
    history.push_back({r.epoch, r.weight, r.forest_edges});
  }

  // Every recorded epoch is still in the ring: pinned reads reproduce the
  // exact acknowledged state, repeatedly, regardless of later commits.
  for (int round = 0; round < 2; ++round) {
    for (const Committed& c : history) {
      Request w = make(Op::kWeight, "g");
      w.pin_epoch = c.epoch;
      const Response r = svc.call(w);
      ASSERT_EQ(r.status, Status::kOk);
      EXPECT_EQ(r.epoch, c.epoch);
      EXPECT_EQ(r.weight, c.weight);  // bit-identical, not approximately
      EXPECT_EQ(r.forest_edges, c.forest);

      Request s = make(Op::kSnapshot, "g");
      s.pin_epoch = c.epoch;
      const Response sr = svc.call(s);
      ASSERT_EQ(sr.status, Status::kOk);
      ASSERT_NE(sr.snapshot, nullptr);
      EXPECT_EQ(sr.snapshot->version, c.epoch);
      EXPECT_EQ(sr.snapshot->weight, c.weight);
    }
  }

  // Pinning an epoch that was never committed is an error, not a wait.
  Request future = make(Op::kWeight, "g");
  future.pin_epoch = 999;
  const Response fr = svc.call(future);
  EXPECT_EQ(fr.status, Status::kInvalidInput);
  EXPECT_NE(fr.detail.find("not committed"), std::string::npos);
  svc.shutdown();
}

TEST(ServeMvcc, RetiredEpochsFailCleanlyAndAreCounted) {
  ServeOptions opts;
  opts.snapshot_ring = 2;  // keep only the 2 newest epochs
  ServiceCore svc(opts);
  Request open = make(Op::kOpen, "g");
  open.num_vertices = 16;
  ASSERT_EQ(svc.call(open).status, Status::kOk);

  std::vector<std::uint64_t> epochs;
  for (int i = 0; i < 5; ++i) {
    Request ins = make(Op::kInsert, "g");
    ins.insertions = {{static_cast<VertexId>(i), static_cast<VertexId>(i + 1),
                       0.5}};
    const Response r = svc.call(ins);
    ASSERT_EQ(r.status, Status::kOk);
    epochs.push_back(r.epoch);
  }

  // The oldest epochs fell off the ring: pinning them is a clean error that
  // names the retention window.
  Request stale = make(Op::kWeight, "g");
  stale.pin_epoch = epochs.front();
  const Response sr = svc.call(stale);
  EXPECT_EQ(sr.status, Status::kInvalidInput);
  EXPECT_NE(sr.detail.find("retired"), std::string::npos);

  // The newest two still answer.
  for (std::size_t k = epochs.size() - 2; k < epochs.size(); ++k) {
    Request w = make(Op::kWeight, "g");
    w.pin_epoch = epochs[k];
    EXPECT_EQ(svc.call(w).status, Status::kOk) << "epoch " << epochs[k];
  }

  // health surfaces the reclamation count (epoch 0 + the early commits).
  const Response health = svc.call(make(Op::kHealth));
  ASSERT_EQ(health.status, Status::kOk);
  EXPECT_GE(health.reclaimed_epochs, 3u);
  EXPECT_GT(svc.metrics().epochs_reclaimed.load(), 0u);
  EXPECT_GT(svc.metrics().snapshots_published.load(), 0u);
  svc.shutdown();
}

/// Everything epoch `epoch` of session "g" serves — its snapshot, its
/// forest edges and its path-max answers — equals a scratch solve of that
/// epoch's live graph and an index built fresh from it.
void expect_epoch_is_scratch(ServiceCore& svc, std::uint64_t epoch) {
  SCOPED_TRACE("epoch " + std::to_string(epoch));
  Request sr = make(Op::kSnapshot, "g");
  sr.pin_epoch = epoch;
  const Response snap = svc.call(sr);
  ASSERT_EQ(snap.status, Status::kOk);
  const SnapshotData& data = *snap.snapshot;
  check_against_scratch(data, core::MsfOptions{});

  std::unordered_map<EdgeId, WEdge> edge_of;
  for (std::size_t i = 0; i < data.live_ids.size(); ++i) {
    edge_of[data.live_ids[i]] = data.live.edges[i];
  }
  std::vector<WEdge> fedges;
  for (const EdgeId id : data.forest_ids) fedges.push_back(edge_of.at(id));
  Request fe = make(Op::kForestEdges, "g");
  fe.pin_epoch = epoch;
  const Response fr = svc.call(fe);
  ASSERT_EQ(fr.status, Status::kOk);
  EXPECT_EQ(fr.edges, fedges);
  EXPECT_EQ(fr.forest_edges, data.forest_ids.size());

  ThreadTeam team(1);
  const query::ForestIndex ref(team, data.live.num_vertices, fedges,
                               data.forest_ids, epoch);
  const VertexId n = data.live.num_vertices;
  for (VertexId u = 0; u < n; u += n / 7 + 1) {
    for (VertexId v = 1; v < n; v += n / 5 + 1) {
      if (u == v) continue;
      Request pm = make(Op::kPathMax, "g");
      pm.u = u;
      pm.v = v;
      pm.pin_epoch = epoch;
      const Response r = svc.call(pm);
      ASSERT_EQ(r.status, Status::kOk);
      EXPECT_EQ(r.index_version, epoch);
      const query::ForestIndex::PathMax want = ref.path_max(u, v);
      ASSERT_EQ(r.pathmax_found, want.connected) << u << " " << v;
      if (want.connected) {
        EXPECT_EQ(r.pathmax_id, want.edge_id) << u << " " << v;
      }
    }
  }
}

Response insert_one(ServiceCore& svc, WEdge e) {
  Request r = make(Op::kInsert, "g");
  r.insertions = {e};
  return svc.call(r);
}

TEST(ServeMvcc, PinnedEpochKeepsItsForestAfterWritesToSharedBlocks) {
  // 70k edges span three forest blocks.  Epoch `first` is read only after
  // later forest-changing writes rewrote the blocks it shares, so its lazy
  // caches are built from the blocks as they were when it was published.
  ServeOptions opts;
  opts.snapshot_ring = 16;
  ServiceCore svc(opts);
  const EdgeList g = random_graph(5000, 70000, 3);
  Request open = make(Op::kOpen, "g");
  open.num_vertices = g.num_vertices;
  ASSERT_EQ(svc.call(open).status, Status::kOk);
  Request load = make(Op::kInsert, "g");
  load.insertions = g.edges;
  ASSERT_EQ(svc.call(load).status, Status::kOk);

  std::vector<std::uint64_t> epochs;
  std::vector<std::size_t> sizes;
  Rng rng(5);
  for (int i = 0; i < 6; ++i) {
    // Lighter than every weight: each one enters the forest.
    const auto u = static_cast<VertexId>(rng.next_below(g.num_vertices));
    const auto v = static_cast<VertexId>((u + 1 + rng.next_below(100)) % g.num_vertices);
    const Response r = insert_one(svc, {u, v, -1.0 - i});
    ASSERT_EQ(r.status, Status::kOk);
    epochs.push_back(r.epoch);
    sizes.push_back(r.forest_edges);
  }
  // Forest edges of the first epoch are spread over every block.
  for (std::size_t k = 0; k < epochs.size(); ++k) {
    expect_epoch_is_scratch(svc, epochs[k]);
    Request w = make(Op::kWeight, "g");
    w.pin_epoch = epochs[k];
    EXPECT_EQ(svc.call(w).forest_edges, sizes[k]);
  }
  svc.shutdown();
}

TEST(ServeMvcc, CompactionFailedGroupsAndReopenCarryNothingStale) {
  ServeOptions opts;
  opts.snapshot_ring = 32;
  ServiceCore svc(opts);
  const auto open_g = [&](std::uint64_t seed) {
    const EdgeList g = random_graph(300, 1500, seed);
    Request open = make(Op::kOpen, "g");
    open.num_vertices = g.num_vertices;
    ASSERT_EQ(svc.call(open).status, Status::kOk);
    Request load = make(Op::kInsert, "g");
    load.insertions = g.edges;
    ASSERT_EQ(svc.call(load).status, Status::kOk);
  };
  open_g(7);
  Request q = make(Op::kPathMax, "g");
  q.u = 0;
  q.v = 1;
  ASSERT_EQ(svc.call(q).status, Status::kOk);  // query-active: eager indexes

  // Compaction renumbers every id: the epoch after it must not carry the
  // forest, its caches or its index from the epoch before.
  Request fe = make(Op::kForestEdges, "g");
  for (int i = 0; i < 4; ++i) {
    const Response f = svc.call(fe);
    Request del = make(Op::kDelete, "g");
    del.deletions = {{f.edges[static_cast<std::size_t>(i) * 7].u,
                      f.edges[static_cast<std::size_t>(i) * 7].v}};
    ASSERT_EQ(svc.call(del).status, Status::kOk);
  }
  const std::uint64_t before = svc.call(make(Op::kWeight, "g")).epoch;
  expect_epoch_is_scratch(svc, before);
  const Response c = svc.call(make(Op::kCompact, "g"));
  ASSERT_EQ(c.status, Status::kOk);
  expect_epoch_is_scratch(svc, c.epoch);
  expect_epoch_is_scratch(svc, before);

  // A failed group changes nothing; the write after it publishes its own
  // forest and index.
  const Response w0 = svc.call(make(Op::kWeight, "g"));
  // The insert applies by path-max (the session has an index) or, without
  // one, by the Kruskal pass: both fail.
  FaultInjector::arm("dynamic.path-max", FaultKind::kRuntimeError);
  FaultInjector::arm("dynamic.kruskal-scan", FaultKind::kRuntimeError);
  EXPECT_NE(insert_one(svc, {3, 200, -5.0}).status, Status::kOk);
  FaultInjector::disarm_all();
  const Response w1 = svc.call(make(Op::kWeight, "g"));
  EXPECT_EQ(w1.weight, w0.weight);
  EXPECT_EQ(w1.forest_edges, w0.forest_edges);
  expect_epoch_is_scratch(svc, w1.epoch);
  const Response ok = insert_one(svc, {3, 200, -5.0});
  ASSERT_EQ(ok.status, Status::kOk);
  EXPECT_NE(ok.weight, w0.weight);
  expect_epoch_is_scratch(svc, ok.epoch);

  // Dropped and reopened on another graph: nothing of the old session's
  // forest, caches or index shows through, even to this thread's view.
  ASSERT_EQ(svc.call(make(Op::kDrop, "g")).status, Status::kOk);
  open_g(8);
  const std::uint64_t reopened = svc.call(make(Op::kWeight, "g")).epoch;
  expect_epoch_is_scratch(svc, reopened);
  ASSERT_EQ(insert_one(svc, {10, 20, 0.5}).status, Status::kOk);
  expect_epoch_is_scratch(svc, svc.call(make(Op::kWeight, "g")).epoch);
  svc.shutdown();
}

class ServeMvccP : public ::testing::TestWithParam<int> {};

TEST_P(ServeMvccP, PinnedReadersSeeScratchIdenticalStateUnderWriters) {
  const int p = GetParam();
  constexpr VertexId kN = 120;
  ServeOptions opts;
  opts.msf.threads = p;
  opts.dispatchers = 4;
  opts.shards = 2;          // MVCC must hold across the sharded layout too
  opts.snapshot_ring = 32;  // generous: most pins land inside the window
  ServiceCore svc(opts);

  Request open = make(Op::kOpen, "g");
  open.num_vertices = kN;
  ASSERT_EQ(svc.call(open).status, Status::kOk);
  {
    Request ins = make(Op::kInsert, "g");
    Rng rng(11);
    for (int i = 0; i < 150; ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(kN));
      auto v = static_cast<VertexId>(rng.next_below(kN - 1));
      if (v >= u) ++v;
      ins.insertions.push_back(WEdge{u, v, rng.next_double()});
    }
    ASSERT_EQ(svc.call(ins).status, Status::kOk);
  }

  std::atomic<bool> writers_done{false};
  std::atomic<int> write_failures{0};
  std::atomic<int> verified{0};
  std::atomic<int> retired_hits{0};
  // Writers start once each reader has verified one epoch: 60 writes can
  // finish in about a millisecond, sooner than a loaded host schedules a
  // new thread, and a reader that first runs after writers_done verifies
  // nothing.
  std::atomic<int> readers_ready{0};

  std::vector<std::thread> threads;
  for (int wi = 0; wi < 2; ++wi) {
    threads.emplace_back([&, wi] {
      Rng rng(700 + static_cast<std::uint64_t>(wi));
      while (readers_ready.load(std::memory_order_acquire) < 2) {
        std::this_thread::yield();
      }
      for (int i = 0; i < 30; ++i) {
        Request ins = make(Op::kInsert, "g");
        const auto u = static_cast<VertexId>(rng.next_below(kN));
        auto v = static_cast<VertexId>(rng.next_below(kN - 1));
        if (v >= u) ++v;
        ins.insertions.push_back(WEdge{u, v, rng.next_double()});
        if (!svc.call(ins).ok()) ++write_failures;
      }
    });
  }
  for (int ri = 0; ri < 2; ++ri) {
    threads.emplace_back([&, ri] {
      Rng rng(300 + static_cast<std::uint64_t>(ri));
      // Also counts the reader as ready when a failed ASSERT returns early,
      // so the writers never wait on it forever.
      struct Ready {
        std::atomic<int>& count;
        bool marked = false;
        void mark() {
          if (!marked) count.fetch_add(1, std::memory_order_release);
          marked = true;
        }
        ~Ready() { mark(); }
      } ready{readers_ready};
      while (!writers_done.load(std::memory_order_acquire)) {
        // Grab the latest epoch's snapshot, then pin that epoch explicitly
        // for everything that follows: whatever the writers do next, these
        // answers must all describe the SAME committed state.
        const Response latest = svc.call(make(Op::kSnapshot, "g"));
        if (!latest.ok()) continue;
        const std::uint64_t epoch = latest.snapshot->version;

        Request w = make(Op::kWeight, "g");
        w.pin_epoch = epoch;
        const Response wr = svc.call(w);
        if (wr.status == Status::kInvalidInput) {
          ++retired_hits;  // the ring advanced past our pin; a clean miss
          continue;
        }
        ASSERT_EQ(wr.status, Status::kOk);
        ASSERT_EQ(wr.epoch, epoch);
        ASSERT_EQ(wr.weight, latest.snapshot->weight);
        ASSERT_EQ(wr.forest_edges, latest.snapshot->forest_ids.size());

        Request s = make(Op::kSnapshot, "g");
        s.pin_epoch = epoch;
        const Response sr = svc.call(s);
        if (sr.status == Status::kInvalidInput) {
          ++retired_hits;
          continue;
        }
        ASSERT_EQ(sr.status, Status::kOk);
        ASSERT_EQ(sr.snapshot->version, epoch);
        ASSERT_EQ(sr.snapshot->forest_ids, latest.snapshot->forest_ids);
        check_against_scratch(*sr.snapshot, opts.msf);

        // Pinned connectivity agrees with union-find over the pinned forest.
        SnapshotUf uf(*latest.snapshot);
        for (int probe = 0; probe < 4; ++probe) {
          const auto u = static_cast<VertexId>(rng.next_below(kN));
          auto v = static_cast<VertexId>(rng.next_below(kN - 1));
          if (v >= u) ++v;
          Request conn = make(Op::kConnected, "g");
          conn.u = u;
          conn.v = v;
          conn.pin_epoch = epoch;
          const Response cr = svc.call(conn);
          if (cr.status == Status::kInvalidInput &&
              cr.detail.find("retired") != std::string::npos) {
            ++retired_hits;
            break;
          }
          ASSERT_EQ(cr.status, Status::kOk);
          ASSERT_EQ(cr.epoch, epoch);
          ASSERT_EQ(cr.connected, uf.connected(u, v)) << u << "-" << v;
        }
        ++verified;
        ready.mark();
      }
    });
  }
  for (int wi = 0; wi < 2; ++wi) {
    threads[static_cast<std::size_t>(wi)].join();
  }
  writers_done.store(true, std::memory_order_release);
  for (std::size_t t = 2; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_GT(verified.load(), 0);

  // Quiesced: the latest epoch must also be scratch-identical.
  const Response last = svc.call(make(Op::kSnapshot, "g"));
  ASSERT_TRUE(last.ok());
  check_against_scratch(*last.snapshot, opts.msf);
  svc.shutdown();
}

INSTANTIATE_TEST_SUITE_P(Threads, ServeMvccP, ::testing::Values(1, 2, 4, 8));

}  // namespace
