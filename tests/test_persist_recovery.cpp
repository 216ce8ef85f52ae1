// Durable serving end to end: WAL + snapshot recovery through ServiceCore,
// clean-shutdown fast path, the corrupt-log corpus recovery must refuse,
// idempotent retries across restarts, and the failure-snapshot
// interactions the chaos harness drills from outside the process.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "dynamic/edge_store.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "pprim/fault.hpp"
#include "serve/service_core.hpp"

namespace {

using namespace smp;
using namespace smp::graph;
using namespace smp::serve;

struct TempDir {
  std::string path;
  TempDir() {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("smpmsf_recovery_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

Request make(Op op, std::string session = {}) {
  Request r;
  r.op = op;
  r.session = std::move(session);
  return r;
}

Request open_req(const std::string& session, VertexId n) {
  Request r = make(Op::kOpen, session);
  r.num_vertices = n;
  return r;
}

Request insert_req(const std::string& session, std::vector<WEdge> edges,
                   std::string idem_id = {}) {
  Request r = make(Op::kInsert, session);
  r.insertions = std::move(edges);
  r.idem_id = std::move(idem_id);
  return r;
}

Request delete_req(const std::string& session,
                   std::vector<std::pair<VertexId, VertexId>> pairs) {
  Request r = make(Op::kDelete, session);
  r.deletions = std::move(pairs);
  return r;
}

ServeOptions durable_opts(const std::string& dir) {
  ServeOptions opts;
  opts.data_dir = dir;
  opts.fsync = persist::FsyncPolicy::kAlways;  // deterministic durability
  opts.clean_shutdown = false;  // leave the WAL tail, like a crash would
  return opts;
}

/// Everything restart bit-identity compares: the forest as (u,v,w) triples
/// plus the summary facts.
struct SessionState {
  double weight = 0;
  std::size_t trees = 0;
  std::size_t live = 0;
  std::vector<std::tuple<VertexId, VertexId, Weight>> forest;

  bool operator==(const SessionState& o) const {
    return weight == o.weight && trees == o.trees && live == o.live &&
           forest == o.forest;
  }
};

SessionState state_of(ServiceCore& svc, const std::string& session) {
  SessionState st;
  const Response w = svc.call(make(Op::kWeight, session));
  EXPECT_EQ(w.status, Status::kOk);
  st.weight = w.weight;
  st.trees = w.trees;
  st.live = w.live_edges;
  const Response e = svc.call(make(Op::kForestEdges, session));
  EXPECT_EQ(e.status, Status::kOk);
  for (const WEdge& edge : e.edges) st.forest.emplace_back(edge.u, edge.v, edge.w);
  return st;
}

std::string joined_notes(const ServiceCore& svc) {
  std::string out;
  for (const std::string& n : svc.recovery_notes()) out += n + "\n";
  return out;
}

/// Path of the session's first WAL segment (base LSN 1 — present until the
/// first snapshot rotates the log).
std::string first_segment(const std::string& data_dir,
                          const std::string& session) {
  return data_dir + "/" + session + "/wal-0000000000000001.log";
}

void append_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::app);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(fs.good());
  fs.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  fs.read(&c, 1);
  c = static_cast<char>(c ^ 0x10);
  fs.seekp(static_cast<std::streamoff>(offset));
  fs.write(&c, 1);
  ASSERT_TRUE(fs.good());
}

TEST(PersistRecovery, UncleanRestartReplaysTheWal) {
  TempDir dir;
  SessionState before;
  {
    ServiceCore svc(durable_opts(dir.path));
    ASSERT_EQ(svc.call(open_req("g", 8)).status, Status::kOk);
    Response r = svc.call(insert_req("g", {{0, 1, 1.5}, {1, 2, 2.0}}));
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.lsn, 1u);  // acked writes carry their commit LSN
    ASSERT_EQ(svc.call(insert_req("g", {{2, 3, 0.25}, {0, 3, 9.0}})).status,
              Status::kOk);
    ASSERT_EQ(svc.call(delete_req("g", {{1, 2}})).status, Status::kOk);
    before = state_of(svc, "g");
  }  // no clean-shutdown epilogue: the restart must replay

  ServiceCore svc(durable_opts(dir.path));
  EXPECT_NE(joined_notes(svc).find("replayed 3 WAL records"),
            std::string::npos)
      << joined_notes(svc);
  EXPECT_EQ(svc.metrics().replayed_records.load(), 3u);
  EXPECT_EQ(state_of(svc, "g"), before);

  // The forest is a pure function of the live store: a from-scratch solve
  // over the recovered store must reproduce it bit-identically.
  ASSERT_EQ(svc.call(make(Op::kRecompute, "g")).status, Status::kOk);
  EXPECT_EQ(state_of(svc, "g"), before);
}

TEST(PersistRecovery, CleanShutdownSkipsReplay) {
  TempDir dir;
  SessionState before;
  {
    ServeOptions opts = durable_opts(dir.path);
    opts.clean_shutdown = true;
    ServiceCore svc(opts);
    ASSERT_EQ(svc.call(open_req("g", 5)).status, Status::kOk);
    ASSERT_EQ(svc.call(insert_req("g", {{0, 1, 1.0}, {3, 4, 2.0}})).status,
              Status::kOk);
    before = state_of(svc, "g");
    svc.shutdown();  // writes the final snapshot + CLEAN marker
  }
  ServiceCore svc(durable_opts(dir.path));
  EXPECT_NE(joined_notes(svc).find("clean shutdown"), std::string::npos)
      << joined_notes(svc);
  EXPECT_EQ(svc.metrics().replayed_records.load(), 0u);
  EXPECT_EQ(state_of(svc, "g"), before);
}

TEST(PersistRecovery, SnapshotsTruncateTheWalAndRetainGenerations) {
  TempDir dir;
  ServeOptions opts = durable_opts(dir.path);
  opts.snapshot_every_records = 2;
  opts.snapshot_retain = 2;
  SessionState before;
  {
    ServiceCore svc(opts);
    ASSERT_EQ(svc.call(open_req("g", 32)).status, Status::kOk);
    for (VertexId v = 1; v < 20; ++v) {
      ASSERT_EQ(
          svc.call(insert_req("g", {{v - 1, v, 1.0 / (v + 1)}})).status,
          Status::kOk);
    }
    before = state_of(svc, "g");
  }
  // Retention held: at most 2 snapshot generations plus the initial-open
  // generation never accumulate, and WAL segments before the oldest
  // retained snapshot are trimmed.
  const std::string sdir = dir.path + "/g";
  std::size_t snaps = 0;
  std::size_t segments = 0;
  for (const auto& entry : std::filesystem::directory_iterator(sdir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) == 0) ++snaps;
    if (name.rfind("wal-", 0) == 0) ++segments;
  }
  EXPECT_LE(snaps, 2u);
  EXPECT_LE(segments, 2u);

  ServiceCore svc(opts);
  EXPECT_EQ(state_of(svc, "g"), before);
  EXPECT_LE(svc.metrics().replayed_records.load(), 2u);
}

TEST(PersistRecovery, CompactionReplaysThroughItsWalRecord) {
  TempDir dir;
  ServeOptions opts = durable_opts(dir.path);
  opts.compact_min_slots = 16;  // auto-compaction at toy scale
  SessionState before;
  {
    ServiceCore svc(opts);
    ASSERT_EQ(svc.call(open_req("g", 40)).status, Status::kOk);
    Request grow = insert_req("g", {});
    for (VertexId v = 1; v < 33; ++v) {
      grow.insertions.push_back(WEdge{v - 1, v, static_cast<Weight>(v)});
    }
    ASSERT_EQ(svc.call(grow).status, Status::kOk);
    // Tombstone most of the store: live/slots falls under the 0.5 default,
    // so the flush auto-compacts and must log the renumbering point.
    Request del = delete_req("g", {});
    for (VertexId v = 1; v < 25; ++v) del.deletions.emplace_back(v - 1, v);
    ASSERT_EQ(svc.call(del).status, Status::kOk);
    EXPECT_GE(svc.metrics().compactions.load(), 1u);
    // Deletes against post-compaction store ids only replay correctly if
    // the compact record landed in sequence.
    ASSERT_EQ(svc.call(delete_req("g", {{30, 31}})).status, Status::kOk);
    ASSERT_EQ(svc.call(make(Op::kCompact, "g")).status, Status::kOk);
    ASSERT_EQ(svc.call(insert_req("g", {{0, 39, 0.125}})).status, Status::kOk);
    before = state_of(svc, "g");
  }
  ServiceCore svc(opts);
  EXPECT_EQ(state_of(svc, "g"), before);
  ASSERT_EQ(svc.call(make(Op::kRecompute, "g")).status, Status::kOk);
  EXPECT_EQ(state_of(svc, "g"), before);
}

TEST(PersistRecovery, IdempotentRetryDedupsAcrossRestart) {
  TempDir dir;
  std::uint64_t original_lsn = 0;
  SessionState before;
  {
    ServiceCore svc(durable_opts(dir.path));
    ASSERT_EQ(svc.call(open_req("g", 4)).status, Status::kOk);
    const Response r =
        svc.call(insert_req("g", {{0, 1, 1.0}}, "client-7-req-42"));
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_FALSE(r.dedup);
    EXPECT_EQ(r.idem_id, "client-7-req-42");
    original_lsn = r.lsn;
    ASSERT_NE(original_lsn, 0u);
    before = state_of(svc, "g");
  }
  // The ack was "lost": the client reconnects after the crash and resends.
  ServiceCore svc(durable_opts(dir.path));
  const Response retry =
      svc.call(insert_req("g", {{0, 1, 1.0}}, "client-7-req-42"));
  ASSERT_EQ(retry.status, Status::kOk);
  EXPECT_TRUE(retry.dedup);
  EXPECT_EQ(retry.lsn, original_lsn);
  EXPECT_GE(svc.metrics().dedup_hits.load(), 1u);
  // Applied exactly once: no second parallel edge appeared.
  EXPECT_EQ(state_of(svc, "g"), before);
}

TEST(PersistRecovery, DedupWorksWithoutPersistenceToo) {
  ServiceCore svc;  // no data dir
  ASSERT_EQ(svc.call(open_req("g", 4)).status, Status::kOk);
  ASSERT_EQ(svc.call(insert_req("g", {{0, 1, 1.0}}, "only-once")).status,
            Status::kOk);
  const Response retry = svc.call(insert_req("g", {{0, 1, 1.0}}, "only-once"));
  ASSERT_EQ(retry.status, Status::kOk);
  EXPECT_TRUE(retry.dedup);
  EXPECT_EQ(retry.lsn, 0u);  // no WAL, so no LSN to echo
  EXPECT_EQ(svc.call(make(Op::kWeight, "g")).live_edges, 1u);
}

TEST(PersistRecovery, HealthReportsQueueSessionsAndLsn) {
  TempDir dir;
  ServiceCore svc(durable_opts(dir.path));
  Response h = svc.call(make(Op::kHealth));
  EXPECT_EQ(h.status, Status::kOk);
  EXPECT_EQ(h.health_sessions, 0u);
  EXPECT_GE(h.uptime_s, 0.0);

  ASSERT_EQ(svc.call(open_req("g", 4)).status, Status::kOk);
  ASSERT_EQ(svc.call(insert_req("g", {{0, 1, 1.0}})).status, Status::kOk);
  ASSERT_EQ(svc.call(insert_req("g", {{1, 2, 1.0}})).status, Status::kOk);
  h = svc.call(make(Op::kHealth, "g"));
  EXPECT_EQ(h.status, Status::kOk);
  EXPECT_EQ(h.health_sessions, 1u);
  EXPECT_EQ(h.lsn, 2u);  // last committed LSN of the named session

  EXPECT_EQ(svc.call(make(Op::kHealth, "nope")).status, Status::kNotFound);
}

TEST(PersistRecovery, TornTailIsTruncatedAndReplayStops) {
  TempDir dir;
  SessionState before;
  {
    ServiceCore svc(durable_opts(dir.path));
    ASSERT_EQ(svc.call(open_req("g", 4)).status, Status::kOk);
    ASSERT_EQ(svc.call(insert_req("g", {{0, 1, 1.0}})).status, Status::kOk);
    before = state_of(svc, "g");
  }
  // A crash mid-append: the next record's frame is cut off half way.
  persist::WalRecord torn;
  torn.lsn = 2;
  torn.insertions = {{1, 2, 5.0}};
  const std::string bytes = persist::encode_record(torn);
  append_bytes(first_segment(dir.path, "g"), bytes.substr(0, bytes.size() / 2));

  ServiceCore svc(durable_opts(dir.path));
  EXPECT_NE(joined_notes(svc).find("torn tail truncated"), std::string::npos)
      << joined_notes(svc);
  // The un-acked torn record is gone; the acked prefix survives.
  EXPECT_EQ(state_of(svc, "g"), before);
  // And the truncation was durable: appends resume from a clean boundary.
  ASSERT_EQ(svc.call(insert_req("g", {{2, 3, 1.0}})).status, Status::kOk);
}

TEST(PersistRecovery, CorruptRecordRefusesRecoveryWithDiagnostics) {
  TempDir dir;
  {
    ServiceCore svc(durable_opts(dir.path));
    ASSERT_EQ(svc.call(open_req("g", 4)).status, Status::kOk);
    ASSERT_EQ(svc.call(insert_req("g", {{0, 1, 1.0}})).status, Status::kOk);
    ASSERT_EQ(svc.call(insert_req("g", {{1, 2, 2.0}})).status, Status::kOk);
  }
  // Flip one payload bit of the FIRST record: a complete frame whose CRC
  // fails is corruption in the middle of the log, never a torn tail.
  flip_byte(first_segment(dir.path, "g"), 12);
  try {
    ServiceCore svc(durable_opts(dir.path));
    FAIL() << "recovery must refuse a corrupt mid-log record";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    const std::string what = e.what();
    EXPECT_NE(what.find("recovering session 'g'"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
}

TEST(PersistRecovery, DuplicateLsnRefusesRecovery) {
  TempDir dir;
  {
    ServiceCore svc(durable_opts(dir.path));
    ASSERT_EQ(svc.call(open_req("g", 4)).status, Status::kOk);
    ASSERT_EQ(svc.call(insert_req("g", {{0, 1, 1.0}})).status, Status::kOk);
  }
  persist::WalRecord dup;
  dup.lsn = 1;  // repeats the committed LSN
  dup.insertions = {{1, 2, 2.0}};
  append_bytes(first_segment(dir.path, "g"), persist::encode_record(dup));
  try {
    ServiceCore svc(durable_opts(dir.path));
    FAIL() << "duplicate LSN must refuse recovery";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
        << e.what();
  }
}

TEST(PersistRecovery, ZeroLengthWalSegmentIsAValidEmptyTail) {
  TempDir dir;
  SessionState before;
  {
    ServiceCore svc(durable_opts(dir.path));
    ASSERT_EQ(svc.call(open_req("g", 4)).status, Status::kOk);
    before = state_of(svc, "g");
  }
  // The open wrote the initial snapshot and an empty active segment — the
  // "crashed right after open" shape.  Truncate to zero explicitly too.
  std::ofstream(first_segment(dir.path, "g"),
                std::ios::binary | std::ios::trunc)
      .close();
  ServiceCore svc(durable_opts(dir.path));
  EXPECT_EQ(state_of(svc, "g"), before);
}

TEST(PersistRecovery, WalWithoutSnapshotRefusesRecovery) {
  TempDir dir;
  const std::string sdir = dir.path + "/g";
  std::filesystem::create_directories(sdir);
  persist::WalRecord rec;
  rec.lsn = 1;
  rec.insertions = {{0, 1, 1.0}};
  append_bytes(sdir + "/wal-0000000000000001.log",
               persist::encode_record(rec));
  EXPECT_THROW(ServiceCore svc(durable_opts(dir.path)), Error);
}

TEST(PersistRecovery, HalfOpenedHuskAndDroppingDirAreSweptAway) {
  TempDir dir;
  // A session directory with neither snapshot nor WAL: open crashed before
  // the initial snapshot, so the open was never acked — remove it.
  std::filesystem::create_directories(dir.path + "/husk");
  // A drop that died between rename and remove_all.
  std::filesystem::create_directories(dir.path + "/old.dropping");
  ServiceCore svc(durable_opts(dir.path));
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/husk"));
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/old.dropping"));
  EXPECT_EQ(svc.call(make(Op::kList)).sessions.size(), 0u);
  // The names are reusable afterwards.
  EXPECT_EQ(svc.call(open_req("husk", 3)).status, Status::kOk);
}

TEST(PersistRecovery, DropRemovesDurableStateAndSurvivesRestart) {
  TempDir dir;
  {
    ServiceCore svc(durable_opts(dir.path));
    ASSERT_EQ(svc.call(open_req("g", 4)).status, Status::kOk);
    ASSERT_EQ(svc.call(insert_req("g", {{0, 1, 1.0}})).status, Status::kOk);
    ASSERT_EQ(svc.call(make(Op::kDrop, "g")).status, Status::kOk);
    EXPECT_FALSE(std::filesystem::exists(dir.path + "/g"));
  }
  ServiceCore svc(durable_opts(dir.path));
  EXPECT_EQ(svc.call(make(Op::kWeight, "g")).status, Status::kNotFound);
  // Re-opening the dropped name starts fresh.
  ASSERT_EQ(svc.call(open_req("g", 9)).status, Status::kOk);
  EXPECT_EQ(svc.call(make(Op::kWeight, "g")).trees, 9u);
}

TEST(PersistRecovery, MidSolveFailureLeavesNoTrace) {
  TempDir dir;
  ServeOptions opts = durable_opts(dir.path);
  opts.msf.algorithm = core::Algorithm::kBorEL;
  opts.msf.threads = 2;
  // Without this the armed bad_alloc is swallowed by the graceful
  // degradation path (solve falls back to sequential Kruskal and succeeds);
  // disabling the fallback surfaces it as a mid-solve kOutOfMemory.
  opts.msf.allow_sequential_fallback = false;
  SessionState before;
  {
    ServiceCore svc(opts);
    ASSERT_EQ(svc.call(open_req("g", 64)).status, Status::kOk);
    Request grow = insert_req("g", {});
    for (VertexId v = 1; v < 64; ++v) {
      grow.insertions.push_back(WEdge{v - 1, v, 1.0 / (v + 1)});
    }
    ASSERT_EQ(svc.call(grow).status, Status::kOk);
    before = state_of(svc, "g");

    // The next apply fails *inside* the solve: apply_batch rolls the store
    // back, so the group is neither logged nor visible.
    FaultInjector::arm("bor-el.connect.region", FaultKind::kBadAlloc);
    const Response r = svc.call(insert_req("g", {{0, 63, 0.001}}));
    FaultInjector::disarm_all();
    EXPECT_NE(r.status, Status::kOk);
    EXPECT_EQ(r.lsn, 0u);
    const SessionState after = state_of(svc, "g");
    EXPECT_EQ(after.live, 63u);
    EXPECT_EQ(after, before);
    // A recompute solves whatever the store holds (and logs nothing): still
    // the pre-failure graph.
    ASSERT_EQ(svc.call(make(Op::kRecompute, "g")).status, Status::kOk);
    EXPECT_EQ(state_of(svc, "g"), before);
  }
  // Only the growing write was logged, and replaying it reproduces the
  // state the failed write left alone.
  ServiceCore svc(opts);
  EXPECT_EQ(svc.metrics().replayed_records.load(), 1u);
  EXPECT_EQ(state_of(svc, "g"), before);
}

TEST(PersistRecovery, DeadlineExpiryThenSnapshotStaysConsistent) {
  TempDir dir;
  ServeOptions opts = durable_opts(dir.path);
  opts.msf.threads = 2;
  opts.snapshot_every_records = 1;  // snapshot right behind every commit
  SessionState before;
  {
    ServiceCore svc(opts);
    ASSERT_EQ(svc.call(open_req("g", 2000)).status, Status::kOk);
    Request grow = insert_req("g", {});
    for (VertexId v = 1; v < 2000; ++v) {
      grow.insertions.push_back(WEdge{v - 1, v, 1.0 / v});
    }
    ASSERT_EQ(svc.call(grow).status, Status::kOk);

    // A tight-deadline write: it may commit in time, expire before the
    // apply, or trip mid-solve.  It is in the store iff it answered ok, and
    // whichever way it falls, restart reproduces exactly the served state.
    Request risky = insert_req("g", {{0, 1999, 0.5}});
    risky.deadline_s = 0.002;
    const Response r = svc.call(risky);
    if (r.status != Status::kOk) {
      EXPECT_TRUE(r.status == Status::kDeadlineExceeded ||
                  r.status == Status::kInternal)
          << to_string(r.status);
    }
    before = state_of(svc, "g");
    EXPECT_EQ(before.live, r.ok() ? 2000u : 1999u);
  }
  ServiceCore svc(opts);
  EXPECT_EQ(state_of(svc, "g"), before);
}

TEST(PersistRecovery, EdgeStoreCompactTombstoneHeavyAtThreshold) {
  // Satellite: the EdgeStore invariants auto-compaction leans on, at
  // exactly the live/slots ratio the serving layer triggers at.
  dynamic::EdgeStore store(64);
  std::vector<EdgeId> ids;
  for (VertexId v = 1; v < 64; ++v) {
    ids.push_back(store.insert(v - 1, v, static_cast<Weight>(v)));
  }
  // Tombstone to one past the 0.5 default threshold: 31 live of 63 slots.
  for (std::size_t i = 0; i < 32; ++i) store.erase(ids[2 * i]);
  ASSERT_EQ(store.num_live(), 31u);
  ASSERT_LT(static_cast<double>(store.num_live()),
            0.5 * static_cast<double>(store.size()));

  const std::vector<EdgeId> remap = store.compact();
  ASSERT_EQ(remap.size(), 63u);
  EXPECT_EQ(store.size(), 31u);
  EXPECT_EQ(store.num_live(), 31u);
  // Survivors keep their (u,v,w) and land at ascending new ids; tombstones
  // map to the sentinel.
  EdgeId expected_next = 0;
  for (std::size_t old = 0; old < 63; ++old) {
    if (old % 2 == 0 && old / 2 < 32) {
      EXPECT_EQ(remap[old], static_cast<EdgeId>(-1)) << old;
      continue;
    }
    ASSERT_EQ(remap[old], expected_next) << old;
    const WEdge& e = store.edge(remap[old]);
    EXPECT_EQ(e.u, static_cast<VertexId>(old));
    EXPECT_EQ(e.v, static_cast<VertexId>(old + 1));
    EXPECT_DOUBLE_EQ(e.w, static_cast<Weight>(old + 1));
    ++expected_next;
  }
  // And the compacted store round-trips through the snapshot serializer.
  std::string bytes;
  store.serialize(bytes);
  const dynamic::EdgeStore back = dynamic::EdgeStore::restore(
      reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size());
  EXPECT_EQ(back.size(), store.size());
  EXPECT_EQ(back.num_live(), store.num_live());
}

}  // namespace
