// Index carry-over and the path-max write path through ServiceCore: every
// epoch's index — carried from the previous epoch while the forest is
// unchanged, rebuilt otherwise — answers pathmax/conn/cut exactly like an
// index freshly built from that epoch's snapshot, stamped with that epoch;
// and the index counters account for a scripted write sequence exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/types.hpp"
#include "pprim/rng.hpp"
#include "pprim/thread_team.hpp"
#include "query/forest_index.hpp"
#include "serve/service_core.hpp"

namespace {

using namespace smp;
using namespace smp::graph;
using namespace smp::serve;
using smp::query::ForestIndex;

Request make(Op op, std::string session = {}) {
  Request r;
  r.op = op;
  r.session = std::move(session);
  return r;
}

void open_with(ServiceCore& svc, const std::string& name, const EdgeList& g) {
  Request open = make(Op::kOpen, name);
  open.num_vertices = g.num_vertices;
  ASSERT_EQ(svc.call(open).status, Status::kOk);
  Request ins = make(Op::kInsert, name);
  ins.insertions = g.edges;
  ASSERT_EQ(svc.call(ins).status, Status::kOk);
}

Response insert(ServiceCore& svc, WEdge e) {
  Request r = make(Op::kInsert, "g");
  r.insertions = {e};
  return svc.call(r);
}

Response erase(ServiceCore& svc, VertexId u, VertexId v) {
  Request r = make(Op::kDelete, "g");
  r.deletions = {{u, v}};
  return svc.call(r);
}

Response pathmax(ServiceCore& svc, VertexId u, VertexId v,
                 std::uint64_t epoch = 0) {
  Request r = make(Op::kPathMax, "g");
  r.u = u;
  r.v = v;
  r.pin_epoch = epoch;
  return svc.call(r);
}

/// An index built from scratch over the forest the epoch's snapshot holds.
ForestIndex fresh_index(const SnapshotData& snap) {
  std::vector<WEdge> fedges;
  for (const EdgeId id : snap.forest_ids) {
    const auto it =
        std::lower_bound(snap.live_ids.begin(), snap.live_ids.end(), id);
    fedges.push_back(snap.live.edges[static_cast<std::size_t>(
        it - snap.live_ids.begin())]);
  }
  ThreadTeam team(1);
  return ForestIndex(team, snap.live.num_vertices, std::move(fedges),
                     snap.forest_ids, snap.version);
}

/// Every served query answer at `epoch` equals the fresh index's.
void check_epoch(ServiceCore& svc, std::uint64_t epoch) {
  SCOPED_TRACE("epoch " + std::to_string(epoch));
  Request sr = make(Op::kSnapshot, "g");
  sr.pin_epoch = epoch;
  const Response snap = svc.call(sr);
  ASSERT_EQ(snap.status, Status::kOk);
  ASSERT_EQ(snap.snapshot->version, epoch);
  const ForestIndex ref = fresh_index(*snap.snapshot);
  const VertexId n = snap.snapshot->live.num_vertices;
  for (VertexId u = 0; u < n; u += 3) {
    for (VertexId v = 1; v < n; v += 5) {
      if (u == v) continue;
      const Response pm = pathmax(svc, u, v, epoch);
      ASSERT_EQ(pm.status, Status::kOk);
      EXPECT_EQ(pm.index_version, epoch);
      const ForestIndex::PathMax want = ref.path_max(u, v);
      ASSERT_EQ(pm.pathmax_found, want.connected) << u << " " << v;
      if (want.connected) {
        EXPECT_EQ(pm.pathmax_id, want.edge_id);
        EXPECT_EQ(pm.pathmax_u, want.u);
        EXPECT_EQ(pm.pathmax_v, want.v);
        EXPECT_EQ(pm.pathmax_w, want.weight);
      }
      Request cq = make(Op::kConn, "g");
      cq.u = u;
      cq.v = v;
      cq.pin_epoch = epoch;
      const Response cn = svc.call(cq);
      ASSERT_EQ(cn.status, Status::kOk);
      EXPECT_EQ(cn.index_version, epoch);
      EXPECT_EQ(cn.connected, ref.connected(u, v));
    }
  }
  for (const double lambda : {0.1, 0.4, 0.8}) {
    Request cut = make(Op::kCut, "g");
    cut.lambda = lambda;
    cut.pin_epoch = epoch;
    const Response c = svc.call(cut);
    ASSERT_EQ(c.status, Status::kOk);
    EXPECT_EQ(c.index_version, epoch);
    const ForestIndex::Cut want = ref.cut(lambda);
    EXPECT_EQ(c.clusters, want.num_clusters);
    EXPECT_EQ(c.cut_digest, want.labels_digest);
  }
}

TEST(ServeIndexCarry, EveryEpochAnswersLikeAFreshIndex) {
  ServeOptions o;
  o.snapshot_ring = 64;
  ServiceCore svc(o);
  const VertexId n = 60;
  open_with(svc, "g", random_graph(n, 240, 17));
  ASSERT_EQ(pathmax(svc, 0, 1).status, Status::kOk);  // query-active

  Rng rng(23);
  std::vector<std::uint64_t> epochs;
  for (int step = 0; step < 24; ++step) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>((u + 1 + rng.next_below(n - 1)) % n);
    Response r;
    switch (step % 4) {
      case 0:  // heavy: almost surely leaves the forest as it is
        r = insert(svc, {u, v, 2.0 + rng.next_double()});
        break;
      case 1:  // light: enters the forest, displacing a path maximum
        r = insert(svc, {u, v, 1e-3 * rng.next_double()});
        break;
      case 2: {  // delete the lightest live u–v edge if there is one
        r = erase(svc, u, v);
        if (r.status == Status::kInvalidInput) continue;  // no such edge
        break;
      }
      default:  // delete a forest edge
        const Response fe = svc.call(make(Op::kForestEdges, "g"));
        const WEdge e = fe.edges[rng.next_below(fe.edges.size())];
        r = erase(svc, e.u, e.v);
        break;
    }
    ASSERT_EQ(r.status, Status::kOk) << r.detail;
    epochs.push_back(r.epoch);
    if (step == 12) {
      const Response c = svc.call(make(Op::kCompact, "g"));
      ASSERT_EQ(c.status, Status::kOk);
      epochs.push_back(c.epoch);
    }
  }
  for (const std::uint64_t e : epochs) check_epoch(svc, e);
  EXPECT_GT(svc.metrics().index_carried.load(), 0u);
  EXPECT_GT(svc.metrics().insert_index_path.load(), 0u);
}

TEST(ServeCore, IndexCountersOverScriptedWrites) {
  ServiceCore svc;
  // A path 0-1-...-9 of weight-1 edges plus a heavy chord: forest = path.
  EdgeList g(10);
  for (VertexId i = 0; i + 1 < 10; ++i) g.add_edge(i, i + 1, 1.0);
  g.add_edge(0, 9, 5.0);
  open_with(svc, "g", g);
  const MetricsRegistry& m = svc.metrics();
  const auto expect_counts = [&](std::uint64_t carried, std::uint64_t by_index,
                                 std::uint64_t solved) {
    EXPECT_EQ(m.index_carried.load(), carried);
    EXPECT_EQ(m.insert_index_path.load(), by_index);
    EXPECT_EQ(m.insert_solve_fallbacks.load(), solved);
  };
  // The load itself was an insert-only group with no index to use.
  expect_counts(0, 0, 1);

  // No query yet: an insert solves, and no epoch has an index to carry.
  ASSERT_EQ(insert(svc, {2, 7, 9.0}).status, Status::kOk);
  expect_counts(0, 0, 2);

  // The first query builds the latest epoch's index on the read path.
  ASSERT_EQ(pathmax(svc, 0, 9).status, Status::kOk);
  const std::uint64_t rebuilds = m.index_rebuilds.load();

  // Heavy insert: by path-max, forest unchanged, index carried.
  Response r = insert(svc, {1, 8, 7.0});
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.trees, 1u);
  expect_counts(1, 1, 2);
  EXPECT_EQ(m.index_rebuilds.load(), rebuilds);

  // Light insert: by path-max, displaces a path edge; the new forest gets a
  // fresh index before its epoch is published.
  r = insert(svc, {0, 5, 0.5});
  ASSERT_EQ(r.status, Status::kOk);
  expect_counts(1, 2, 2);
  EXPECT_EQ(m.index_rebuilds.load(), rebuilds + 1);
  Response pm = pathmax(svc, 0, 5);
  EXPECT_EQ(pm.pathmax_w, 0.5);
  EXPECT_EQ(pm.index_version, r.epoch);

  // Non-tree delete: not insert-only, forest unchanged, index carried.
  ASSERT_EQ(erase(svc, 2, 7).status, Status::kOk);
  expect_counts(2, 2, 2);

  // Compaction renumbers ids: nothing carries, and the next insert has no
  // index of the latest epoch, so it solves — then rebuilds one.
  ASSERT_EQ(svc.call(make(Op::kCompact, "g")).status, Status::kOk);
  expect_counts(2, 2, 2);
  r = insert(svc, {3, 6, 8.0});
  ASSERT_EQ(r.status, Status::kOk);
  expect_counts(2, 2, 3);
  EXPECT_EQ(m.index_rebuilds.load(), rebuilds + 2);

  // Two-edge insert group against the rebuilt index: path-max again.
  Request two = make(Op::kInsert, "g");
  two.insertions = {{4, 9, 0.25}, {1, 3, 6.0}};
  ASSERT_EQ(svc.call(two).status, Status::kOk);
  expect_counts(2, 3, 3);

  const std::string json = svc.stats_json();
  EXPECT_NE(json.find("\"index_carried\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"insert_index_path\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"insert_solve_fallbacks\": 3"), std::string::npos);
  svc.metrics().reset_counters();
  expect_counts(0, 0, 0);
}

}  // namespace
