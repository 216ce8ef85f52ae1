// Seeded whole-stack failure trace: an in-process ServiceCore with a data
// dir, two shards and write coalescing takes a few hundred random insert and
// delete bursts while deadlines and armed faults trip solves at the
// Bor-FAL, Champion-filter, forest-Kruskal, path-max and store-growth sites.
// After every burst:
//   * every acked write is in the session and every failed one is not (the
//     latest epoch's live graph equals a model fed only acked writes);
//   * a burst with no acked write published no epoch;
//   * every epoch still in the ring carries Kruskal's forest of that epoch's
//     live graph, bit for bit.
// Then the service restarts from its WAL and must reproduce the last acked
// epoch of every session.  A failure names the seed and the burst index.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pprim/fault.hpp"
#include "pprim/rng.hpp"
#include "seq/seq_msf.hpp"
#include "serve/placement.hpp"
#include "serve/service_core.hpp"

namespace {

using namespace smp;
using namespace smp::graph;
using namespace smp::serve;

struct TempDir {
  std::string path;
  TempDir() {
    path = (std::filesystem::temp_directory_path() /
            ("smpmsf_failure_trace_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
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

bool same_bits(Weight a, Weight b) { return std::memcmp(&a, &b, sizeof a) == 0; }

using Pair = std::pair<VertexId, VertexId>;
using Triple = std::tuple<VertexId, VertexId, Weight>;

Pair key(VertexId u, VertexId v) { return u < v ? Pair{u, v} : Pair{v, u}; }

/// The live edges a session must hold, fed only acked writes.  A delete
/// removes the pair's lightest edge, the one the service resolves it to.
using Model = std::map<Pair, std::multiset<Weight>>;

std::vector<Triple> sorted_triples(const Model& m) {
  std::vector<Triple> out;
  for (const auto& [p, ws] : m) {
    for (const Weight w : ws) out.emplace_back(p.first, p.second, w);
  }
  return out;
}

std::vector<Triple> sorted_triples(const EdgeList& g) {
  std::vector<Triple> out;
  for (const WEdge& e : g.edges) {
    const Pair p = key(e.u, e.v);
    out.emplace_back(p.first, p.second, e.w);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The epoch carries Kruskal's forest of its own live graph, with the
/// weight summed in ascending store-id order.
void expect_kruskal(const SnapshotData& snap) {
  const MsfResult k = seq::kruskal_msf(snap.live);
  std::vector<EdgeId> want;
  for (const EdgeId pos : k.edge_ids) want.push_back(snap.live_ids[pos]);
  std::sort(want.begin(), want.end());
  ASSERT_EQ(snap.forest_ids, want) << "epoch " << snap.version;
  std::unordered_map<EdgeId, Weight> weight_of;
  for (std::size_t i = 0; i < snap.live_ids.size(); ++i) {
    weight_of[snap.live_ids[i]] = snap.live.edges[i].w;
  }
  Weight w = 0;
  for (const EdgeId id : want) w += weight_of.at(id);
  EXPECT_TRUE(same_bits(snap.weight, w)) << "epoch " << snap.version;
  EXPECT_EQ(snap.trees, k.num_trees) << "epoch " << snap.version;
}

std::shared_ptr<SnapshotData> snapshot(ServiceCore& svc,
                                       const std::string& session,
                                       std::uint64_t epoch = 0) {
  Request r = make(Op::kSnapshot, session);
  r.pin_epoch = epoch;
  Response resp = svc.call(r);
  return resp.ok() ? resp.snapshot : nullptr;
}

/// What restart must reproduce: the forest as (u, v, w) triples, the
/// weight bits, the tree count and the live edges.
struct Acked {
  std::vector<Triple> forest;
  Weight weight = 0;
  std::size_t trees = 0;
  std::vector<Triple> live;

  explicit Acked(const SnapshotData& s) : weight(s.weight), trees(s.trees) {
    std::unordered_map<EdgeId, WEdge> edge_of;
    for (std::size_t i = 0; i < s.live_ids.size(); ++i) {
      edge_of[s.live_ids[i]] = s.live.edges[i];
    }
    for (const EdgeId id : s.forest_ids) {
      const WEdge& e = edge_of.at(id);
      forest.emplace_back(e.u, e.v, e.w);
    }
    live = sorted_triples(s.live);
  }
  bool operator==(const Acked& o) const {
    return forest == o.forest && same_bits(weight, o.weight) &&
           trees == o.trees && live == o.live;
  }
};

/// Solve sites a burst can trip, one family per entry: Bor-FAL's steps
/// (Champion's engine), Champion's filter, the forest Kruskal pass, path-max
/// and the slot buffer's growth.
constexpr const char* kBorFalSites[] = {
    "bor-fal.find-min", "bor-fal.find-min.prune", "bor-fal.connect",
    "bor-fal.connect.region", "bor-fal.compact", "bor-fal.compact.region"};
constexpr const char* kOtherSites[] = {
    "champion.filter", "dynamic.kruskal-scan", "dynamic.path-max",
    "edge-store.grow"};

void run_trace(std::uint64_t seed, int bursts) {
  TempDir dir;
  ServeOptions opts;
  opts.data_dir = dir.path;
  opts.fsync = persist::FsyncPolicy::kNone;
  opts.clean_shutdown = false;  // the restart replays the WAL tail
  opts.snapshot_every_records = 32;
  opts.shards = 2;
  opts.dispatchers = 2;
  opts.coalesce_window_s = 0.0005;
  opts.snapshot_ring = 4;
  opts.compact_min_slots = 128;
  opts.msf.threads = 2;
  // A bad_alloc must fail the solve, not degrade it to sequential Kruskal.
  opts.msf.allow_sequential_fallback = false;

  // One session per shard; the second also serves queries, so its
  // insert-only groups apply by path-max over an eagerly built index.
  const placement::ShardRing ring(opts.shards);
  std::vector<std::string> names{"s0"};
  for (int i = 1; names.size() < 2; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    if (ring.shard_for(name) != ring.shard_for(names[0])) names.push_back(name);
  }
  const VertexId n = 40;
  std::map<std::string, Model> model;
  std::map<std::string, Acked> last;

  Rng rng(seed);
  {
    ServiceCore svc(opts);
    for (const std::string& s : names) {
      Request open = make(Op::kOpen, s);
      open.num_vertices = n;
      ASSERT_EQ(svc.call(open).status, Status::kOk);
      model[s];
    }
    Request conn = make(Op::kConn, names[1]);
    conn.u = 0;
    conn.v = 1;
    ASSERT_EQ(svc.call(conn).status, Status::kOk);

    for (int step = 0; step < bursts; ++step) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " burst=" + std::to_string(step));
      const std::string& s = names[rng.next_below(names.size())];
      Model& m = model[s];

      // A burst of 1-3 writes whose outcomes do not depend on the order
      // the flusher sees them in: no pair is both inserted and deleted, and
      // no pair is deleted twice.
      std::vector<Request> writes;
      std::set<Pair> ins_pairs;
      std::set<Pair> del_pairs;
      const auto k = 1 + rng.next_below(3);
      for (std::uint64_t w = 0; w < k; ++w) {
        // The live graph hovers around 7n edges, so a large insert crosses
        // over past m = 4n while the slots keep growing towards compaction.
        std::size_t live = 0;
        for (const auto& [p, ws] : m) live += ws.size();
        const bool grow = live < 7 * n;
        if (rng.next_below(10) < (grow ? 3u : 7u) && !m.empty()) {
          Request del = make(Op::kDelete, s);
          const auto pairs = 1 + rng.next_below(6);
          for (int tries = 0; tries < 8 && del.deletions.size() < pairs;
               ++tries) {
            auto it = m.begin();
            std::advance(it, static_cast<long>(rng.next_below(m.size())));
            if (ins_pairs.count(it->first) != 0 ||
                !del_pairs.insert(it->first).second) {
              continue;
            }
            del.deletions.push_back(it->first);
          }
          if (!del.deletions.empty()) writes.push_back(std::move(del));
          continue;
        }
        // Mostly small inserts; now and then one large enough to cross over
        // to a whole-graph solve, which runs Champion's filter.
        Request ins = make(Op::kInsert, s);
        const auto edges = grow && rng.next_below(4) == 0
                               ? 2 * n + rng.next_below(2 * n)
                               : 1 + rng.next_below(4);
        while (ins.insertions.size() < edges) {
          const auto u = static_cast<VertexId>(rng.next_below(n));
          auto v = static_cast<VertexId>(rng.next_below(n - 1));
          if (v >= u) ++v;
          if (del_pairs.count(key(u, v)) != 0) continue;
          ins_pairs.insert(key(u, v));
          // Few weight levels: many ties, decided by store id.
          ins.insertions.push_back(
              WEdge{u, v, static_cast<Weight>(1 + rng.next_below(64)) / 64});
        }
        writes.push_back(std::move(ins));
      }

      // Inject: a fault at one solve site, tight deadlines, or nothing.
      const auto dice = rng.next_below(10);
      if (dice < 5) {
        // Up to three sites at once: whichever the burst's path reaches
        // first fires.
        for (auto f = 1 + rng.next_below(3); f > 0; --f) {
          const auto family = rng.next_below(1 + std::size(kOtherSites));
          const char* site =
              family == 0
                  ? kBorFalSites[rng.next_below(std::size(kBorFalSites))]
                  : kOtherSites[family - 1];
          const FaultKind kind = rng.next_below(2) == 0
                                     ? FaultKind::kBadAlloc
                                     : FaultKind::kRuntimeError;
          const std::uint64_t skip = rng.next_below(2);
          FaultInjector::arm(site, kind, skip);
        }
      } else if (dice < 7) {
        // Around the coalescing window: some expire while queued, some
        // during the solve.
        constexpr double kDeadlines[] = {1e-7, 5.5e-4, 7e-4, 1e-3, 2e-3};
        for (Request& w : writes) {
          w.deadline_s = kDeadlines[rng.next_below(std::size(kDeadlines))];
        }
      }

      const std::uint64_t published_before =
          svc.metrics().snapshots_published.load();
      const auto latest_before = snapshot(svc, s);
      ASSERT_NE(latest_before, nullptr);
      std::vector<std::promise<Response>> replies(writes.size());
      std::vector<std::future<Response>> pending;
      for (std::size_t w = 0; w < writes.size(); ++w) {
        pending.push_back(replies[w].get_future());
        svc.submit(writes[w], [&replies, w](Response r) {
          replies[w].set_value(std::move(r));
        });
      }
      int acked = 0;
      for (std::size_t w = 0; w < writes.size(); ++w) {
        const Response r = pending[w].get();
        if (!r.ok()) {
          EXPECT_TRUE(r.status == Status::kDeadlineExceeded ||
                      r.status == Status::kOutOfMemory ||
                      r.status == Status::kInternal)
              << to_string(r.status) << " " << r.detail;
          continue;
        }
        ++acked;
        for (const WEdge& e : writes[w].insertions) {
          m[key(e.u, e.v)].insert(e.w);
        }
        for (const auto& [u, v] : writes[w].deletions) {
          auto it = m.find(key(u, v));
          ASSERT_NE(it, m.end());
          it->second.erase(it->second.begin());
          if (it->second.empty()) m.erase(it);
        }
      }
      FaultInjector::disarm_all();

      const auto latest = snapshot(svc, s);
      ASSERT_NE(latest, nullptr);
      if (acked == 0) {
        EXPECT_EQ(svc.metrics().snapshots_published.load(), published_before);
        EXPECT_EQ(latest->version, latest_before->version);
      }
      ASSERT_EQ(sorted_triples(latest->live), sorted_triples(m));
      const auto ring_size = static_cast<std::uint64_t>(opts.snapshot_ring);
      const std::uint64_t lo =
          latest->version > 2 * ring_size ? latest->version - 2 * ring_size : 0;
      for (std::uint64_t e = lo; e <= latest->version; ++e) {
        if (const auto snap = snapshot(svc, s, e)) expect_kruskal(*snap);
      }
      if (::testing::Test::HasFailure()) return;
    }
    for (const std::string& s : names) {
      last.emplace(s, Acked(*snapshot(svc, s)));
    }
  }

  // Restart: recovery replays the WAL tail behind the last snapshot.
  ServiceCore svc(opts);
  for (const std::string& s : names) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " restart, session " + s);
    const auto snap = snapshot(svc, s);
    ASSERT_NE(snap, nullptr);
    expect_kruskal(*snap);
    EXPECT_TRUE(Acked(*snap) == last.at(s));
    EXPECT_EQ(sorted_triples(snap->live), sorted_triples(model.at(s)));
  }
}

TEST(ServeFailureTrace, FailedWritesLeaveNoTraceAndRecoveryReplaysAcks) {
  run_trace(/*seed=*/1, /*bursts=*/300);
}

}  // namespace
