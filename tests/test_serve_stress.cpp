// Serving-layer determinism under concurrency: writers hammer one session
// through the ServiceCore while readers take atomic snapshots — and every
// snapshot's forest must be bit-identical (edge ids and deterministically
// summed weight) to a from-scratch solve of that snapshot's live edge set.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <queue>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/msf.hpp"
#include "pprim/rng.hpp"
#include "query/forest_index.hpp"
#include "seq/union_find.hpp"
#include "serve/service_core.hpp"

namespace {

using namespace smp;
using namespace smp::graph;
using namespace smp::serve;

/// Solves the snapshot's live graph from scratch with the same backend and
/// checks bit-identity against the forest the service maintained.
void check_snapshot(const SnapshotData& snap, const core::MsfOptions& opts) {
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

TEST(ServeStress, EverySnapshotIsBitIdenticalToScratch) {
  constexpr VertexId kN = 150;
  ServeOptions opts;
  opts.msf.threads = 2;
  opts.dispatchers = 4;
  opts.compact_min_slots = 256;  // let compaction fire mid-stress too
  ServiceCore svc(opts);

  Request open;
  open.op = Op::kOpen;
  open.session = "g";
  open.num_vertices = kN;
  ASSERT_EQ(svc.call(open).status, Status::kOk);

  constexpr int kWriters = 3;
  constexpr int kOpsPerWriter = 40;
  constexpr int kReaders = 2;
  std::atomic<bool> writers_done{false};
  std::atomic<int> write_failures{0};
  std::atomic<int> snapshots_checked{0};

  std::vector<std::thread> threads;
  for (int wi = 0; wi < kWriters; ++wi) {
    threads.emplace_back([&, wi] {
      Rng rng(1000 + static_cast<std::uint64_t>(wi));
      for (int i = 0; i < kOpsPerWriter; ++i) {
        Request req;
        req.session = "g";
        if (rng.next_below(3) != 0) {
          req.op = Op::kInsert;
          for (std::uint64_t k = 0; k < 1 + rng.next_below(4); ++k) {
            const auto u = static_cast<VertexId>(rng.next_below(kN));
            auto v = static_cast<VertexId>(rng.next_below(kN - 1));
            if (v >= u) ++v;
            const Weight w = (rng.next_below(4) == 0) ? 0.5 : rng.next_double();
            req.insertions.push_back(WEdge{u, v, w});
          }
        } else {
          // Delete by endpoints picked from a fresh snapshot; a concurrent
          // writer may win the race for the same canonical edge, in which
          // case kInvalidInput is the contract, not a failure.
          Request snap_req;
          snap_req.op = Op::kSnapshot;
          snap_req.session = "g";
          const Response snap = svc.call(snap_req);
          if (!snap.ok() || snap.snapshot->live.num_edges() == 0) continue;
          const auto& edges = snap.snapshot->live.edges;
          const auto& e = edges[static_cast<std::size_t>(
              rng.next_below(edges.size()))];
          req.op = Op::kDelete;
          req.deletions.emplace_back(e.u, e.v);
        }
        const Response r = svc.call(req);
        if (!r.ok() &&
            !(req.op == Op::kDelete && r.status == Status::kInvalidInput)) {
          ++write_failures;
        }
      }
    });
  }
  for (int ri = 0; ri < kReaders; ++ri) {
    threads.emplace_back([&] {
      while (!writers_done.load(std::memory_order_acquire)) {
        Request req;
        req.op = Op::kSnapshot;
        req.session = "g";
        const Response r = svc.call(req);
        if (!r.ok()) continue;
        ASSERT_NE(r.snapshot, nullptr);
        check_snapshot(*r.snapshot, opts.msf);
        ++snapshots_checked;
      }
    });
  }
  for (int wi = 0; wi < kWriters; ++wi) threads[static_cast<std::size_t>(wi)].join();
  writers_done.store(true, std::memory_order_release);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_GT(snapshots_checked.load(), 0);

  // Final state must also be bit-identical, via one last snapshot.
  Request req;
  req.op = Op::kSnapshot;
  req.session = "g";
  const Response last = svc.call(req);
  ASSERT_TRUE(last.ok());
  check_snapshot(*last.snapshot, opts.msf);
  svc.shutdown();
}

/// Brute-force reference for one snapshot's query answers, computed from a
/// *scratch solve* of the snapshot's live graph (independent of the forest
/// the service maintained and of the ForestIndex it answers from).
struct QueryReference {
  VertexId n = 0;
  std::unordered_map<EdgeId, WEdge> edge_of;              ///< store id -> edge
  std::vector<std::pair<EdgeId, WEdge>> forest;           ///< scratch forest
  std::vector<std::vector<std::pair<VertexId, EdgeId>>> adj;  ///< forest

  QueryReference(const SnapshotData& snap, const core::MsfOptions& opts)
      : n(snap.live.num_vertices), adj(snap.live.num_vertices) {
    edge_of.reserve(snap.live_ids.size());
    for (std::size_t i = 0; i < snap.live_ids.size(); ++i) {
      edge_of[snap.live_ids[i]] = snap.live.edges[i];
    }
    const MsfResult ref = core::minimum_spanning_forest_of_candidates(
        snap.live, snap.live_ids, opts);
    for (const EdgeId id : ref.edge_ids) {
      const WEdge& e = edge_of.at(id);
      forest.push_back({id, e});
      adj[e.u].push_back({e.v, id});
      adj[e.v].push_back({e.u, id});
    }
  }

  /// BFS bottleneck on the scratch forest: <found, edge id, weight>.
  [[nodiscard]] std::tuple<bool, EdgeId, Weight> path_max(VertexId u,
                                                          VertexId v) const {
    std::vector<VertexId> from(n, kInvalidVertex);
    std::vector<EdgeId> via(n, kInvalidEdge);
    std::queue<VertexId> q;
    q.push(u);
    from[u] = u;
    while (!q.empty()) {
      const VertexId x = q.front();
      q.pop();
      for (const auto& [y, id] : adj[x]) {
        if (from[y] != kInvalidVertex) continue;
        from[y] = x;
        via[y] = id;
        q.push(y);
      }
    }
    if (from[v] == kInvalidVertex) return {false, kInvalidEdge, 0};
    EdgeId best = kInvalidEdge;
    Weight bw = 0;
    bool has = false;
    for (VertexId x = v; x != u; x = from[x]) {
      const Weight w = edge_of.at(via[x]).w;
      if (!has || w > bw || (w == bw && via[x] > best)) {
        bw = w;
        best = via[x];
        has = true;
      }
    }
    return {true, best, bw};
  }

  /// Single linkage at `lambda`: components of the scratch forest's edges
  /// with w <= lambda, labelled by first occurrence over vertex id.
  [[nodiscard]] std::vector<VertexId> cut(Weight lambda,
                                          std::size_t* clusters) const {
    seq::UnionFind uf(n);
    for (const auto& [id, e] : forest) {
      if (e.w <= lambda) uf.unite(e.u, e.v);
    }
    std::vector<VertexId> label_of_root(n, kInvalidVertex);
    std::vector<VertexId> labels(n);
    VertexId next = 0;
    for (VertexId v = 0; v < n; ++v) {
      VertexId& l = label_of_root[uf.find(v)];
      if (l == kInvalidVertex) l = next++;
      labels[v] = l;
    }
    *clusters = next;
    return labels;
  }
};

/// Checks one version-matched (snapshot, answers) pairing against brute
/// force.  Returns false when the answers were produced at a different
/// committed version than the snapshot (a write slipped in between) — the
/// caller retries rather than comparing across versions.
bool check_queries(ServiceCore& svc, const core::MsfOptions& opts,
                   const SnapshotData& snap, VertexId u, VertexId v) {
  Request q;
  q.session = "g";
  q.u = u;
  q.v = v;
  q.op = Op::kPathMax;
  const Response pm = svc.call(q);
  q.op = Op::kConn;
  const Response cn = svc.call(q);
  Request cutq;
  cutq.op = Op::kCut;
  cutq.session = "g";
  cutq.lambda = 0.5;
  cutq.has_lambda = true;
  const Response cut = svc.call(cutq);
  if (!pm.ok() || !cn.ok() || !cut.ok()) return false;
  if (pm.index_version != snap.version || cn.index_version != snap.version ||
      cut.index_version != snap.version) {
    return false;  // a concurrent write moved the committed state
  }

  const QueryReference ref(snap, opts);
  const auto [found, id, w] = ref.path_max(u, v);
  EXPECT_EQ(pm.pathmax_found, found);
  if (found) {
    EXPECT_EQ(pm.pathmax_id, id);
    EXPECT_EQ(pm.pathmax_w, w);
  }
  EXPECT_EQ(cn.connected, found);

  std::size_t ref_clusters = 0;
  const std::vector<VertexId> labels = ref.cut(0.5, &ref_clusters);
  EXPECT_EQ(cut.clusters, ref_clusters);
  EXPECT_EQ(cut.cut_digest,
            query::labels_digest(std::span<const VertexId>(labels)));
  return true;
}

class ServeStressQueryP : public ::testing::TestWithParam<int> {};

TEST_P(ServeStressQueryP, ConcurrentQueriesMatchScratchRecomputation) {
  const int p = GetParam();
  constexpr VertexId kN = 100;
  ServeOptions opts;
  opts.msf.threads = p;
  opts.dispatchers = 4;
  ServiceCore svc(opts);

  Request open;
  open.op = Op::kOpen;
  open.session = "g";
  open.num_vertices = kN;
  ASSERT_EQ(svc.call(open).status, Status::kOk);
  {
    Request ins;
    ins.op = Op::kInsert;
    ins.session = "g";
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
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

  std::vector<std::thread> threads;
  for (int wi = 0; wi < 2; ++wi) {
    threads.emplace_back([&, wi] {
      Rng rng(500 + static_cast<std::uint64_t>(wi));
      for (int i = 0; i < 25; ++i) {
        Request ins;
        ins.op = Op::kInsert;
        ins.session = "g";
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
      Rng rng(900 + static_cast<std::uint64_t>(ri));
      while (!writers_done.load(std::memory_order_acquire)) {
        Request sr;
        sr.op = Op::kSnapshot;
        sr.session = "g";
        const Response snap = svc.call(sr);
        if (!snap.ok()) continue;
        const auto u = static_cast<VertexId>(rng.next_below(kN));
        auto v = static_cast<VertexId>(rng.next_below(kN - 1));
        if (v >= u) ++v;
        if (check_queries(svc, opts.msf, *snap.snapshot, u, v)) ++verified;
      }
    });
  }
  for (int wi = 0; wi < 2; ++wi) threads[static_cast<std::size_t>(wi)].join();
  writers_done.store(true, std::memory_order_release);
  for (std::size_t t = 2; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(write_failures.load(), 0);

  // Quiesced state: pairings now always match, so verify a deterministic
  // spread of pairs definitively.
  Request sr;
  sr.op = Op::kSnapshot;
  sr.session = "g";
  const Response snap = svc.call(sr);
  ASSERT_TRUE(snap.ok());
  int final_verified = 0;
  for (VertexId u = 0; u < kN; u += 9) {
    const VertexId v = (u + 37) % kN;
    if (u == v) continue;
    if (check_queries(svc, opts.msf, *snap.snapshot, u, v)) ++final_verified;
  }
  EXPECT_GT(final_verified, 0);
  svc.shutdown();
}

INSTANTIATE_TEST_SUITE_P(Threads, ServeStressQueryP,
                         ::testing::Values(1, 2, 4, 8));

TEST(ServeStress, MixedReadersAndWritersAcrossSessions) {
  ServeOptions opts;
  opts.dispatchers = 4;
  opts.coalesce_window_s = 0.005;
  ServiceCore svc(opts);
  for (const char* name : {"a", "b"}) {
    Request open;
    open.op = Op::kOpen;
    open.session = name;
    open.num_vertices = 60;
    ASSERT_EQ(svc.call(open).status, Status::kOk);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const std::string session = (t % 2 == 0) ? "a" : "b";
      Rng rng(77 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 30; ++i) {
        Request ins;
        ins.op = Op::kInsert;
        ins.session = session;
        const auto u = static_cast<VertexId>(rng.next_below(60));
        auto v = static_cast<VertexId>(rng.next_below(59));
        if (v >= u) ++v;
        ins.insertions.push_back(WEdge{u, v, rng.next_double()});
        if (!svc.call(ins).ok()) ++failures;
        Request w;
        w.op = Op::kWeight;
        w.session = session;
        if (!svc.call(w).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // 120 writes total; the coalescing window must have merged some.
  EXPECT_LT(svc.metrics().apply_batches.load(), 120u);
  svc.shutdown();
}

}  // namespace
