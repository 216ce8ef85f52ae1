// ServiceCore: session lifecycle, write coalescing, deadline budgets,
// admission control, store compaction — everything the tentpole promises,
// exercised in-process without a socket.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/msf.hpp"
#include "graph/compressed_csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
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

Request insert_req(const std::string& session, std::vector<WEdge> edges) {
  Request r = make(Op::kInsert, session);
  r.insertions = std::move(edges);
  return r;
}

Request delete_req(const std::string& session,
                   std::vector<std::pair<VertexId, VertexId>> pairs) {
  Request r = make(Op::kDelete, session);
  r.deletions = std::move(pairs);
  return r;
}

struct TempDir {
  std::string path;
  TempDir() {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("smpmsf_serve_core_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST(ServeCore, SessionLifecycleAndReads) {
  ServiceCore svc;
  EXPECT_EQ(svc.call(make(Op::kPing)).status, Status::kOk);

  Request open = make(Op::kOpen, "g");
  open.num_vertices = 5;
  EXPECT_EQ(svc.call(open).status, Status::kOk);
  EXPECT_EQ(svc.call(open).status, Status::kAlreadyExists);

  Response w = svc.call(make(Op::kWeight, "g"));
  EXPECT_EQ(w.status, Status::kOk);
  EXPECT_EQ(w.trees, 5u);
  EXPECT_EQ(w.forest_edges, 0u);

  Response ins = svc.call(insert_req("g", {{0, 1, 1.5}, {1, 2, 2.0}}));
  EXPECT_EQ(ins.status, Status::kOk);
  EXPECT_GE(ins.coalesced, 1u);
  EXPECT_EQ(ins.trees, 3u);
  EXPECT_DOUBLE_EQ(ins.weight, 3.5);

  Request conn = make(Op::kConnected, "g");
  conn.u = 0;
  conn.v = 2;
  EXPECT_TRUE(svc.call(conn).connected);
  conn.v = 4;
  EXPECT_FALSE(svc.call(conn).connected);

  Response edges = svc.call(make(Op::kForestEdges, "g"));
  EXPECT_EQ(edges.edges.size(), 2u);
  EXPECT_EQ(edges.edges_total, 2u);

  Response list = svc.call(make(Op::kList));
  EXPECT_EQ(list.sessions, std::vector<std::string>{"g"});

  EXPECT_EQ(svc.call(make(Op::kDrop, "g")).status, Status::kOk);
  EXPECT_EQ(svc.call(make(Op::kWeight, "g")).status, Status::kNotFound);
  EXPECT_EQ(svc.call(make(Op::kDrop, "g")).status, Status::kNotFound);
}

TEST(ServeCore, ValidatesRequests) {
  ServiceCore svc;
  Request open = make(Op::kOpen, "bad name!");
  open.num_vertices = 3;
  EXPECT_EQ(svc.call(open).status, Status::kInvalidInput);

  open = make(Op::kOpen, "g");
  EXPECT_EQ(svc.call(open).status, Status::kInvalidInput);  // no n, no file
  open.num_vertices = 3;
  ASSERT_EQ(svc.call(open).status, Status::kOk);

  // Deleting an edge that is not live fails that request atomically.
  Response del = svc.call(delete_req("g", {{0, 1}}));
  EXPECT_EQ(del.status, Status::kInvalidInput);

  Request conn = make(Op::kConnected, "g");
  conn.u = 0;
  conn.v = 99;
  EXPECT_EQ(svc.call(conn).status, Status::kInvalidInput);

  EXPECT_EQ(svc.call(make(Op::kWeight, "nope")).status, Status::kNotFound);
}

TEST(ServeCore, CoalescesConcurrentWritesIntoOneBatch) {
  ServeOptions opts;
  opts.dispatchers = 4;
  opts.coalesce_window_s = 0.05;  // let the whole burst pile up
  ServiceCore svc(opts);
  Request open = make(Op::kOpen, "g");
  open.num_vertices = 64;
  ASSERT_EQ(svc.call(open).status, Status::kOk);

  constexpr int kWrites = 12;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  std::vector<Response> responses(kWrites);
  for (int i = 0; i < kWrites; ++i) {
    const bool ok = svc.submit(
        insert_req("g", {{static_cast<VertexId>(i), 63, 1.0 + i}}),
        [&, i](Response r) {
          std::lock_guard<std::mutex> lk(mu);
          responses[static_cast<std::size_t>(i)] = std::move(r);
          ++done;
          cv.notify_one();
        });
    ASSERT_TRUE(ok);
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done == kWrites; });
  }

  std::size_t max_coalesced = 0;
  for (const Response& r : responses) {
    EXPECT_EQ(r.status, Status::kOk);
    max_coalesced = std::max(max_coalesced, r.coalesced);
  }
  // The burst must not have paid one solve per request.
  EXPECT_GE(max_coalesced, 2u);
  const auto& m = svc.metrics();
  EXPECT_EQ(m.coalesced_writes.load(), static_cast<std::uint64_t>(kWrites));
  EXPECT_LT(m.apply_batches.load(), static_cast<std::uint64_t>(kWrites));
  EXPECT_GE(m.coalesce_size.count(), 1u);

  // All writes landed exactly once.
  Response w = svc.call(make(Op::kWeight, "g"));
  EXPECT_EQ(w.live_edges, static_cast<std::size_t>(kWrites));
  EXPECT_EQ(w.forest_edges, static_cast<std::size_t>(kWrites));
}

TEST(ServeCore, DeadlineExceededDoesNotPoisonTheSession) {
  ServeOptions opts;
  opts.msf.threads = 2;
  ServiceCore svc(opts);
  Request open = make(Op::kOpen, "g");
  open.num_vertices = 2000;
  ASSERT_EQ(svc.call(open).status, Status::kOk);
  Request grow = insert_req("g", {});
  for (VertexId v = 1; v < 2000; ++v) {
    grow.insertions.push_back(WEdge{v - 1, v, 1.0 / v});
  }
  ASSERT_EQ(svc.call(grow).status, Status::kOk);
  const Response before = svc.call(make(Op::kWeight, "g"));

  // A recompute that cannot possibly finish inside its budget fails with
  // kDeadlineExceeded instead of wedging a dispatcher forever...
  Request re = make(Op::kRecompute, "g");
  re.deadline_s = 1e-7;
  const Response r = svc.call(re);
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);

  // ...and the session answers the next requests with the intact forest.
  const Response after = svc.call(make(Op::kWeight, "g"));
  EXPECT_EQ(after.status, Status::kOk);
  EXPECT_EQ(after.weight, before.weight);
  EXPECT_EQ(after.forest_edges, before.forest_edges);

  // An unbudgeted recompute still works.
  EXPECT_EQ(svc.call(make(Op::kRecompute, "g")).status, Status::kOk);
  EXPECT_GE(svc.metrics().deadline_exceeded.load(), 1u);
}

TEST(ServeCore, ExpiredWriteIsDroppedAtomically) {
  ServiceCore svc;
  Request open = make(Op::kOpen, "g");
  open.num_vertices = 4;
  ASSERT_EQ(svc.call(open).status, Status::kOk);

  Request ins = insert_req("g", {{0, 1, 1.0}});
  ins.deadline_s = 1e-9;  // expires before any dispatcher can touch it
  const Response r = svc.call(ins);
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  const Response w = svc.call(make(Op::kWeight, "g"));
  EXPECT_EQ(w.live_edges, 0u);
}

TEST(ServeCore, AdmissionControlShedsLoad) {
  ServeOptions opts;
  opts.dispatchers = 1;
  opts.queue_capacity = 2;
  opts.coalesce_window_s = 0.2;  // parks the only dispatcher in the window
  ServiceCore svc(opts);
  Request open = make(Op::kOpen, "g");
  open.num_vertices = 4;
  ASSERT_EQ(svc.call(open).status, Status::kOk);

  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  std::atomic<int> overloaded{0};
  int accepted = 0;
  const int kBurst = 8;
  // First write occupies the dispatcher (coalesce window), the rest pile
  // into the bounded queue until it rejects.
  for (int i = 0; i < kBurst; ++i) {
    const bool ok = svc.submit(
        insert_req("g", {{0, 1, 1.0 + i}}), [&](Response r) {
          if (r.status == Status::kOverloaded) ++overloaded;
          std::lock_guard<std::mutex> lk(mu);
          ++done;
          cv.notify_one();
        });
    if (ok) ++accepted;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done == kBurst; });
  }
  EXPECT_LT(accepted, kBurst);
  EXPECT_GT(overloaded.load(), 0);
  EXPECT_EQ(svc.metrics().rejected_overload.load(),
            static_cast<std::uint64_t>(kBurst - accepted));
}

TEST(ServeCore, CompactionKicksInBelowLiveRatio) {
  ServeOptions opts;
  opts.compact_min_slots = 64;
  ServiceCore svc(opts);
  Request open = make(Op::kOpen, "g");
  open.num_vertices = 100;
  ASSERT_EQ(svc.call(open).status, Status::kOk);

  Request grow = insert_req("g", {});
  for (VertexId v = 1; v < 100; ++v) {
    grow.insertions.push_back(WEdge{v - 1, v, 1.0});
  }
  ASSERT_EQ(svc.call(grow).status, Status::kOk);  // fully live: no compact

  Request del = delete_req("g", {});
  for (VertexId v = 1; v < 60; ++v) del.deletions.emplace_back(v - 1, v);
  const Response d = svc.call(del);
  ASSERT_EQ(d.status, Status::kOk);
  EXPECT_EQ(d.live_edges, 40u);

  // The renumbered forest still serves and solves identically.  (The
  // flusher's compaction check runs under the exclusive state lock before
  // the write responses go out, so this read always sees its outcome.)
  const Response snap = svc.call(make(Op::kSnapshot, "g"));
  ASSERT_EQ(snap.status, Status::kOk);
  ASSERT_NE(snap.snapshot, nullptr);
  // 99 slots >= 64 and 40/99 < 0.5: the flush compacted the store.
  EXPECT_GE(svc.metrics().compactions.load(), 1u);
  EXPECT_GE(svc.metrics().slots_reclaimed.load(), 59u);
  EXPECT_EQ(snap.snapshot->live.num_edges(), 40u);
  for (const EdgeId id : snap.snapshot->forest_ids) EXPECT_LT(id, 40u);
}

TEST(ServeCore, ExplicitCompactRequest) {
  ServiceCore svc;
  Request open = make(Op::kOpen, "g");
  open.num_vertices = 10;
  ASSERT_EQ(svc.call(open).status, Status::kOk);
  ASSERT_EQ(svc.call(insert_req("g", {{0, 1, 1.0}, {1, 2, 2.0}})).status,
            Status::kOk);
  ASSERT_EQ(svc.call(delete_req("g", {{0, 1}})).status, Status::kOk);
  const Response c = svc.call(make(Op::kCompact, "g"));
  EXPECT_EQ(c.status, Status::kOk);
  EXPECT_EQ(c.remapped, 1u);
  EXPECT_EQ(c.live_edges, 1u);
  EXPECT_GE(svc.metrics().compactions.load(), 1u);
}

TEST(ServeCore, StatsJsonHasTheAdvertisedShape) {
  ServiceCore svc;
  ASSERT_EQ(svc.call(make(Op::kPing)).status, Status::kOk);
  const Response stats = svc.call(make(Op::kStats));
  ASSERT_EQ(stats.status, Status::kOk);
  for (const char* key :
       {"\"build\"", "\"compiler\"", "\"queue\"", "\"coalescing\"",
        "\"apply_batches\"", "\"batch_size\"", "\"deadline_exceeded\"",
        "\"ops\"", "\"ping\"", "\"p99\""}) {
    EXPECT_NE(stats.stats_json.find(key), std::string::npos) << key;
  }
}

TEST(ServeCore, ShutdownDrainsAndRejectsLateSubmits) {
  ServiceCore svc;
  Request open = make(Op::kOpen, "g");
  open.num_vertices = 8;
  ASSERT_EQ(svc.call(open).status, Status::kOk);
  svc.shutdown();
  const Response r = svc.call(make(Op::kWeight, "g"));
  EXPECT_EQ(r.status, Status::kShuttingDown);
  EXPECT_GE(svc.metrics().rejected_shutdown.load(), 1u);
  svc.shutdown();  // idempotent
}

TEST(ServeCore, ShardedSessionsBehaveLikeSinglePool) {
  ServeOptions opts;
  opts.shards = 3;
  opts.dispatchers = 2;
  ServiceCore svc(opts);
  EXPECT_EQ(svc.shard_count(), 3);

  // Sessions land on shards by name hash; every one must behave exactly as
  // under the single-pool layout — same answers, same validation.
  for (const char* name : {"alpha", "bravo", "charlie", "delta", "echo"}) {
    Request open = make(Op::kOpen, name);
    open.num_vertices = 10;
    ASSERT_EQ(svc.call(open).status, Status::kOk) << name;
    Request ins = insert_req(name, {{0, 1, 1.0}, {1, 2, 2.0}});
    const Response r = svc.call(ins);
    ASSERT_EQ(r.status, Status::kOk) << name;
    EXPECT_DOUBLE_EQ(r.weight, 3.0);
    Request conn = make(Op::kConnected, name);
    conn.u = 0;
    conn.v = 2;
    EXPECT_TRUE(svc.call(conn).connected);
  }
  const Response list = svc.call(make(Op::kList));
  EXPECT_EQ(list.sessions.size(), 5u);

  // health reports one queue gauge per shard.
  const Response health = svc.call(make(Op::kHealth));
  ASSERT_EQ(health.status, Status::kOk);
  EXPECT_EQ(health.shard_depths.size(), 3u);
  svc.shutdown();
}

TEST(ServeCore, AutoShardCountIsPositive) {
  ServeOptions opts;
  opts.shards = 0;  // auto-size from hardware threads
  ServiceCore svc(opts);
  EXPECT_GE(svc.shard_count(), 1);
  EXPECT_EQ(svc.call(make(Op::kPing)).status, Status::kOk);
  svc.shutdown();
}

TEST(ServeCore, HealthReportsEpochAndListeners) {
  ServiceCore svc;
  Request open = make(Op::kOpen, "g");
  open.num_vertices = 8;
  ASSERT_EQ(svc.call(open).status, Status::kOk);
  ASSERT_EQ(svc.call(insert_req("g", {{0, 1, 1.0}})).status, Status::kOk);

  svc.add_listener("tcp:1234");
  svc.add_listener("uds:/tmp/test.sock");
  Response health = svc.call(make(Op::kHealth, "g"));
  ASSERT_EQ(health.status, Status::kOk);
  EXPECT_EQ(health.epoch, 1u);  // the committed version of session g
  ASSERT_EQ(health.listeners.size(), 2u);
  svc.remove_listener("tcp:1234");
  health = svc.call(make(Op::kHealth));
  EXPECT_EQ(health.listeners.size(), 1u);
  svc.shutdown();
}

TEST(ServeCore, StatsJsonNestsShardAndServingGauges) {
  ServeOptions opts;
  opts.shards = 2;
  ServiceCore svc(opts);
  ASSERT_EQ(svc.call(make(Op::kPing)).status, Status::kOk);
  const Response stats = svc.call(make(Op::kStats));
  ASSERT_EQ(stats.status, Status::kOk);
  for (const char* key :
       {"\"shards\"", "\"depth\"", "\"serving\"", "\"reads_inline\"",
        "\"rejected_rate_limited\"", "\"snapshots_published\"",
        "\"epochs_reclaimed\""}) {
    EXPECT_NE(stats.stats_json.find(key), std::string::npos) << key;
  }
  svc.shutdown();
}

TEST(ServeCore, PerClientRateLimitShedsWritersButNeverReaders) {
  ServeOptions opts;
  opts.rate_limit_rps = 1;  // one write per second per client
  opts.rate_limit_burst = 2;
  ServiceCore svc(opts);
  Request open = make(Op::kOpen, "g");
  open.num_vertices = 32;
  open.client_id = "admin";
  ASSERT_EQ(svc.call(open).status, Status::kOk);

  // A client hammering writes exhausts its bucket fast...
  int limited = 0;
  for (int i = 0; i < 8; ++i) {
    Request ins = insert_req(
        "g", {{static_cast<VertexId>(i), static_cast<VertexId>(i + 1), 1.0}});
    ins.client_id = "writer-1";
    const Response r = svc.call(ins);
    if (r.status == Status::kRateLimited) ++limited;
  }
  EXPECT_GT(limited, 0);
  EXPECT_GT(svc.metrics().rejected_rate_limited.load(), 0u);

  // ...while its reads (the priority lane) always get through,
  for (int i = 0; i < 20; ++i) {
    Request w = make(Op::kWeight, "g");
    w.client_id = "writer-1";
    EXPECT_EQ(svc.call(w).status, Status::kOk);
  }
  // and unattributed requests (in-process callers) are never limited.
  for (int i = 0; i < 5; ++i) {
    const Response r = svc.call(
        insert_req("g", {{static_cast<VertexId>(i), 31, 2.0}}));
    EXPECT_EQ(r.status, Status::kOk);
  }
  svc.shutdown();
}

TEST(ServeCore, InlineReadLaneServesWithoutQueueing) {
  ServiceCore svc;
  Request open = make(Op::kOpen, "g");
  open.num_vertices = 8;
  ASSERT_EQ(svc.call(open).status, Status::kOk);
  const std::uint64_t before = svc.metrics().reads_inline.load();
  ASSERT_EQ(svc.call(make(Op::kWeight, "g")).status, Status::kOk);
  EXPECT_GT(svc.metrics().reads_inline.load(), before);
  svc.shutdown();
}

/// `open file=` loads a .smpz like the CLI does, not as DIMACS text: the
/// .smpz and the .smpg of one graph give the same session.
TEST(ServeCore, OpenLoadsSmpzLikeItsSmpgTwin) {
  TempDir dir;
  const EdgeList g = random_graph(1000, 4000, 11);
  write_binary_file(dir.path + "/g.smpg", g);
  CompressedCsrWriter w(dir.path + "/g.smpz", g.num_vertices);
  w.add_edges(g.edges);
  w.finish();

  ServiceCore svc;
  std::vector<Response> opened;
  for (const char* name : {"smpg", "smpz"}) {
    Request open = make(Op::kOpen, name);
    open.path = dir.path + "/g." + name;
    opened.push_back(svc.call(open));
    ASSERT_EQ(opened.back().status, Status::kOk) << opened.back().detail;
  }
  EXPECT_EQ(opened[0].weight, opened[1].weight);
  EXPECT_EQ(opened[0].forest_edges, opened[1].forest_edges);
  EXPECT_EQ(opened[0].live_edges, opened[1].live_edges);
  EXPECT_GT(opened[0].forest_edges, 0u);
}

/// The forest a snapshot serves, checked against sequential Kruskal on the
/// snapshot's own live graph: the same store ids and the same weight bits.
void expect_kruskal_forest(const SnapshotData& snap) {
  core::MsfOptions kruskal;
  kruskal.algorithm = core::Algorithm::kSeqKruskal;
  MsfResult ref = core::minimum_spanning_forest_of_candidates(
      snap.live, snap.live_ids, kruskal);
  std::sort(ref.edge_ids.begin(), ref.edge_ids.end());
  EXPECT_EQ(ref.edge_ids, snap.forest_ids);
  Weight w = 0;
  for (const EdgeId id : ref.edge_ids) {
    const auto pos = std::lower_bound(snap.live_ids.begin(),
                                      snap.live_ids.end(), id) -
                     snap.live_ids.begin();
    w += snap.live.edges[static_cast<std::size_t>(pos)].w;
  }
  EXPECT_EQ(w, snap.weight);
}

/// One coalesced burst that must cut its group three ways: a delete of a
/// pair the group inserted, a second delete of a pair with a live parallel
/// edge, and one idempotency id twice.  Every reply's outcome is the one the
/// same writes get one at a time, the forest is Kruskal's, and a restart
/// that replays the WAL comes back to the same state.
TEST(ServeCore, CoalescedBurstCutsWhereWritesDependOnTheirGroup) {
  TempDir dir;
  ServeOptions opts;
  opts.dispatchers = 2;
  opts.coalesce_window_s = 0.3;
  opts.data_dir = dir.path;
  opts.fsync = persist::FsyncPolicy::kAlways;
  opts.clean_shutdown = false;  // the restart replays the WAL tail

  const auto setup = [](ServiceCore& svc) {
    Request open = make(Op::kOpen, "g");
    open.num_vertices = 8;
    ASSERT_EQ(svc.call(open).status, Status::kOk);
    ASSERT_EQ(svc.call(insert_req("g", {{0, 1, 1.0},
                                        {1, 2, 2.0},
                                        {2, 3, 1.0},
                                        {2, 3, 2.0},  // parallel, heavier
                                        {3, 4, 0.5},
                                        {4, 0, 3.0},
                                        {5, 6, 1.5}}))
                  .status,
              Status::kOk);
  };
  std::vector<Request> burst;
  burst.push_back(insert_req("g", {{6, 7, 0.75}}));
  burst.push_back(insert_req("g", {{0, 5, 0.25}}));
  burst.back().idem_id = "x";
  burst.push_back(insert_req("g", {{2, 7, 5.0}}));
  burst.back().idem_id = "x";  // cuts, then dedups against the first
  burst.push_back(insert_req("g", {{1, 4, 0.1}}));
  burst.push_back(delete_req("g", {{4, 1}}));  // cuts: the group inserted it
  burst.push_back(delete_req("g", {{2, 3}}));  // the 1.0 edge
  burst.push_back(delete_req("g", {{3, 2}}));  // cuts, then the 2.0 edge
  burst.push_back(delete_req("g", {{0, 1}}));
  burst.push_back(delete_req("g", {{2, 3}}));  // cuts, then nothing is live

  // Reference: the same writes one at a time.
  std::vector<Response> want;
  std::shared_ptr<SnapshotData> want_snap;
  {
    ServiceCore ref;
    setup(ref);
    for (const Request& r : burst) want.push_back(ref.call(r));
    want_snap = ref.call(make(Op::kSnapshot, "g")).snapshot;
  }
  ASSERT_NE(want_snap, nullptr);
  EXPECT_TRUE(want[2].dedup);
  EXPECT_EQ(want.back().status, Status::kInvalidInput);

  std::shared_ptr<SnapshotData> got_snap;
  {
    ServiceCore svc(opts);
    setup(svc);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;
    std::vector<Response> got(burst.size());
    for (std::size_t i = 0; i < burst.size(); ++i) {
      ASSERT_TRUE(svc.submit(burst[i], [&, i](Response r) {
        std::lock_guard<std::mutex> lk(mu);
        got[i] = std::move(r);
        ++done;
        cv.notify_one();
      }));
      // The first write parks one dispatcher in the coalescing window as the
      // flusher; the other then feeds the rest in order.
      if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return done == burst.size(); });
    }
    // Forest facts are the group's by design; the outcome is the write's.
    std::size_t max_coalesced = 0;
    for (std::size_t i = 0; i < burst.size(); ++i) {
      SCOPED_TRACE("write " + std::to_string(i));
      EXPECT_EQ(got[i].status, want[i].status);
      EXPECT_EQ(got[i].detail, want[i].detail);
      EXPECT_EQ(got[i].dedup, want[i].dedup);
      EXPECT_EQ(got[i].idem_id, want[i].idem_id);
      max_coalesced = std::max(max_coalesced, got[i].coalesced);
    }
    EXPECT_GE(max_coalesced, 2u);
    EXPECT_GE(svc.metrics().coalesce_conflicts.load(), 3u);
    got_snap = svc.call(make(Op::kSnapshot, "g")).snapshot;
    ASSERT_NE(got_snap, nullptr);
    expect_kruskal_forest(*got_snap);
    EXPECT_EQ(got_snap->forest_ids, want_snap->forest_ids);
    EXPECT_EQ(got_snap->weight, want_snap->weight);
    EXPECT_EQ(got_snap->live_ids, want_snap->live_ids);
  }

  ServiceCore restarted(opts);
  EXPECT_GE(restarted.metrics().replayed_records.load(), 1u);
  const auto snap = restarted.call(make(Op::kSnapshot, "g")).snapshot;
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->forest_ids, got_snap->forest_ids);
  EXPECT_EQ(snap->weight, got_snap->weight);
  EXPECT_EQ(snap->live_ids, got_snap->live_ids);
  expect_kruskal_forest(*snap);
}

}  // namespace
