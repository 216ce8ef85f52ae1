// The read lane's per-thread pinned view and sharded counters: a dropped
// and reopened session never answers through a stale view, a parked reader
// keeps no Session (or its log) alive, the per-thread counter shards sum
// exactly, and a write's ack is visible to every read that starts after it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pprim/rng.hpp"
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

Request open_req(const std::string& session, VertexId n) {
  Request r = make(Op::kOpen, session);
  r.num_vertices = n;
  return r;
}

Request insert_req(const std::string& session, std::vector<WEdge> edges) {
  Request r = make(Op::kInsert, session);
  r.insertions = std::move(edges);
  return r;
}

Request query_req(Op op, const std::string& session, VertexId u, VertexId v) {
  Request r = make(op, session);
  r.u = u;
  r.v = v;
  return r;
}

/// Every pair's connectivity and bottleneck (minimax path) weight in one
/// graph, by brute force: Kruskal order, and when an edge joins components
/// A and B, every (a, b) pair gets that edge's weight.
struct PairTable {
  VertexId n = 0;
  std::vector<double> bottleneck;  ///< n*n; < 0 = disconnected

  PairTable(VertexId n_, std::vector<WEdge> edges)
      : n(n_), bottleneck(static_cast<std::size_t>(n_) * n_, -1.0) {
    std::sort(edges.begin(), edges.end(),
              [](const WEdge& a, const WEdge& b) { return a.w < b.w; });
    std::vector<VertexId> comp(n);
    for (VertexId v = 0; v < n; ++v) comp[v] = v;
    for (const WEdge& e : edges) {
      const VertexId a = comp[e.u];
      const VertexId b = comp[e.v];
      if (a == b) continue;
      for (VertexId x = 0; x < n; ++x) {
        if (comp[x] != a) continue;
        for (VertexId y = 0; y < n; ++y) {
          if (comp[y] != b) continue;
          at(x, y) = e.w;
          at(y, x) = e.w;
        }
      }
      for (VertexId x = 0; x < n; ++x) {
        if (comp[x] == b) comp[x] = a;
      }
    }
  }
  double& at(VertexId u, VertexId v) {
    return bottleneck[static_cast<std::size_t>(u) * n + v];
  }
  [[nodiscard]] double at(VertexId u, VertexId v) const {
    return bottleneck[static_cast<std::size_t>(u) * n + v];
  }
};

/// Generation k of the reopened session: even generations are one
/// component (a spanning path plus chords), odd ones are 8 disjoint blocks
/// of 8.  Weights lie in [k + 1, k + 1.5), so a pathmax answer names the
/// generation it came from.
std::vector<WEdge> generation_graph(int k, VertexId n) {
  Rng rng(0x5eedULL + static_cast<std::uint64_t>(k));
  std::vector<WEdge> edges;
  const auto add = [&](VertexId u, VertexId v) {
    const double w = k + 1 + (static_cast<double>(edges.size()) + 1) / 1024.0;
    edges.push_back(WEdge{u, v, w});
  };
  if (k % 2 == 0) {
    for (VertexId v = 0; v + 1 < n; ++v) add(v, v + 1);
    for (int i = 0; i < 64; ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      const auto v = static_cast<VertexId>(rng.next_below(n));
      if (u != v) add(u, v);
    }
  } else {
    for (VertexId b = 0; b < n; b += 8) {
      for (VertexId v = b; v + 1 < b + 8; ++v) add(v, v + 1);
      for (int i = 0; i < 4; ++i) {
        const auto u = static_cast<VertexId>(b + rng.next_below(8));
        const auto v = static_cast<VertexId>(b + rng.next_below(8));
        if (u != v) add(u, v);
      }
    }
  }
  return edges;
}

/// Whether `r` is what epoch r.epoch of generation k answers: epoch 0 is the
/// empty graph the open publishes, epoch 1 the generation's graph.
bool matches(const Response& r, Op op, const PairTable& t, VertexId u,
             VertexId v) {
  if (r.epoch > 1) return false;
  const double want = r.epoch == 0 ? -1.0 : t.at(u, v);
  if (r.connected != (want >= 0)) return false;
  if (op == Op::kPathMax) {
    if (r.pathmax_found != (want >= 0)) return false;
    if (want >= 0 && r.pathmax_w != want) return false;
  }
  return true;
}

TEST(ServeReadView, DropAndReopenUnderReadersNeverAnswersFromTheDroppedSession) {
  constexpr VertexId kN = 64;
  constexpr int kGenerations = 8;
  std::vector<PairTable> tables;
  for (int k = 0; k <= kGenerations; ++k) {
    tables.emplace_back(kN, generation_graph(k, kN));
  }
  ServiceCore svc;
  ASSERT_EQ(svc.call(open_req("g", kN)).status, Status::kOk);
  ASSERT_EQ(svc.call(insert_req("g", generation_graph(1, kN))).status,
            Status::kOk);
  // The generation whose open is acked: a read that starts after loading it
  // must answer from it or a later one.
  std::atomic<int> generation{1};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> ok_reads{0};
  std::atomic<std::uint64_t> late_generation_reads{0};
  // Answered reads by the generation acked when they started, and the
  // readers still running (a failed assertion ends one early).
  std::array<std::atomic<std::uint64_t>, kGenerations + 1> reads_of{};
  std::atomic<int> readers_left{3};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      struct Leave {
        std::atomic<int>& left;
        ~Leave() { left.fetch_sub(1); }
      } leave{readers_left};
      Rng rng(0x7265616465ULL + static_cast<std::uint64_t>(t));
      for (std::uint64_t i = 0; !done.load(std::memory_order_acquire); ++i) {
        const auto u = static_cast<VertexId>(rng.next_below(kN));
        auto v = static_cast<VertexId>(rng.next_below(kN - 1));
        if (v >= u) ++v;
        const Op op = i % 2 == 0 ? Op::kConnected : Op::kPathMax;
        const int g0 = generation.load(std::memory_order_acquire);
        const Response r = svc.call(query_req(op, "g", u, v));
        // The next generation's open may be visible before its ack is.
        const int g1 = std::min(
            generation.load(std::memory_order_acquire) + 1, kGenerations);
        if (!r.ok()) {
          ASSERT_EQ(r.status, Status::kNotFound) << r.detail;
          continue;
        }
        if (op == Op::kPathMax && r.pathmax_found) {
          // The weight names the generation exactly.
          const int k = static_cast<int>(r.pathmax_w) - 1;
          ASSERT_GE(k, g0) << "answered from a dropped session";
          ASSERT_LE(k, g1);
          ASSERT_TRUE(matches(r, op, tables[static_cast<std::size_t>(k)], u, v));
        } else {
          bool any = false;
          for (int k = g0; k <= g1 && !any; ++k) {
            any = matches(r, op, tables[static_cast<std::size_t>(k)], u, v);
          }
          ASSERT_TRUE(any) << "generation " << g0 << ".." << g1 << " epoch "
                           << r.epoch << " (" << u << "," << v << ")";
        }
        ok_reads.fetch_add(1, std::memory_order_relaxed);
        if (g0 >= 2) late_generation_reads.fetch_add(1);
        reads_of[static_cast<std::size_t>(g0)].fetch_add(1);
      }
    });
  }
  // Waits until a read that started at generation k or later has been
  // answered, or every reader has stopped.
  const auto await_read_of = [&](int k) {
    while (readers_left.load() > 0) {
      for (int j = k; j <= kGenerations; ++j) {
        if (reads_of[static_cast<std::size_t>(j)].load() > 0) return;
      }
      std::this_thread::yield();
    }
  };
  for (int k = 2; k <= kGenerations; ++k) {
    await_read_of(k - 1);
    EXPECT_EQ(svc.call(make(Op::kDrop, "g")).status, Status::kOk);
    EXPECT_EQ(svc.call(open_req("g", kN)).status, Status::kOk);
    generation.store(k, std::memory_order_release);
    EXPECT_EQ(svc.call(insert_req("g", generation_graph(k, kN))).status,
              Status::kOk);
  }
  await_read_of(kGenerations);
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(ok_reads.load(), 0u);
  EXPECT_GT(late_generation_reads.load(), 0u);
  // After the last reopen, every thread's view of an earlier generation is
  // stale: this thread's next read answers from the last generation.
  const Response last = svc.call(query_req(Op::kPathMax, "g", 0, kN - 1));
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(matches(last, Op::kPathMax,
                      tables[static_cast<std::size_t>(kGenerations)], 0,
                      kN - 1));
  svc.shutdown();
}

// ---------------------------------------------------------------------------

struct TempDir {
  std::string path;
  TempDir() {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("smpmsf_read_view_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)e;
    ++n;
  }
  return n;
}

/// Waits (bounded) for the process to run exactly `want` threads: a joined
/// thread can linger in /proc for a moment after its join returns.
bool settles_at(std::size_t want) {
  for (int i = 0; i < 200; ++i) {
    if (thread_count() == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return thread_count() == want;
}

/// A thread that serves one read when asked, then parks until released —
/// holding whatever its read left in its thread-local state.
class ParkedReader {
 public:
  ParkedReader() : thread_([this] { run(); }) {}
  ~ParkedReader() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      exit_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Response read_once(ServiceCore& svc, Request req) {
    std::unique_lock<std::mutex> lk(mu_);
    svc_ = &svc;
    req_ = std::move(req);
    cv_.notify_all();
    cv_.wait(lk, [&] { return svc_ == nullptr; });
    return resp_;
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return exit_ || svc_ != nullptr; });
      if (exit_) return;
      resp_ = svc_->call(req_);
      svc_ = nullptr;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  ServiceCore* svc_ = nullptr;
  Request req_;
  Response resp_;
  bool exit_ = false;
  std::thread thread_;
};

ServeOptions interval_opts(const std::string& dir) {
  ServeOptions opts;
  opts.data_dir = dir;
  opts.fsync = persist::FsyncPolicy::kInterval;  // each log runs a flusher
  opts.clean_shutdown = false;  // the next start replays the WAL
  return opts;
}

double weight_of(ServiceCore& svc, const std::string& session) {
  const Response w = svc.call(make(Op::kWeight, session));
  EXPECT_EQ(w.status, Status::kOk) << w.detail;
  return w.weight;
}

/// The parked thread's view must not keep the session's log (and its
/// flusher thread) alive past `end_session`, and the same data_dir must
/// then serve, take a write and recover it.
void parked_reader_case(bool drop) {
  TempDir dir;
  ParkedReader parked;
  const std::size_t base = thread_count();
  {
    auto a = std::make_unique<ServiceCore>(interval_opts(dir.path));
    const std::size_t with_core = thread_count();
    ASSERT_EQ(a->call(open_req("g", 8)).status, Status::kOk);
    ASSERT_EQ(thread_count(), with_core + 1) << "the log's flusher thread";
    ASSERT_EQ(a->call(insert_req("g", {{0, 1, 1.0}, {1, 2, 2.0}})).status,
              Status::kOk);
    const Response r = parked.read_once(*a, query_req(Op::kConnected, "g", 0, 2));
    ASSERT_TRUE(r.ok()) << r.detail;
    ASSERT_TRUE(r.connected);
    if (drop) {
      ASSERT_EQ(a->call(make(Op::kDrop, "g")).status, Status::kOk);
      EXPECT_TRUE(settles_at(with_core))
          << "a parked reader keeps the dropped session's log alive";
    }
  }
  EXPECT_TRUE(settles_at(base))
      << "a parked reader keeps a session of a destroyed core alive";

  const double before = drop ? 0.0 : 3.0;
  {
    ServiceCore b(interval_opts(dir.path));
    if (drop) {
      ASSERT_EQ(b.call(open_req("g", 8)).status, Status::kOk);
    }
    EXPECT_EQ(weight_of(b, "g"), before);
    const Response ins = b.call(insert_req("g", {{3, 4, 4.0}}));
    ASSERT_EQ(ins.status, Status::kOk) << ins.detail;
    EXPECT_GT(ins.lsn, 0u);
    EXPECT_EQ(weight_of(b, "g"), before + 4.0);
  }
  ServiceCore c(interval_opts(dir.path));
  EXPECT_EQ(weight_of(c, "g"), before + 4.0) << "recovery lost the write";
  c.shutdown();
}

TEST(ServeReadView, ParkedReaderKeepsNoDroppedSessionAlive) {
  parked_reader_case(/*drop=*/true);
}

TEST(ServeReadView, ParkedReaderKeepsNoSessionOfADestroyedCoreAlive) {
  parked_reader_case(/*drop=*/false);
}

// ---------------------------------------------------------------------------

/// The unsigned number after `key` (a quoted JSON key with its colon) at or
/// after `from` in `json`.
std::uint64_t json_u64(const std::string& json, const std::string& key,
                       std::size_t from = 0) {
  const std::size_t at = json.find(key, from);
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + key.size()));
}

struct ReadCounters {
  std::uint64_t submitted = 0;
  std::uint64_t reads_inline = 0;
  std::uint64_t index_hits = 0;
  std::uint64_t connected = 0;
  std::uint64_t pathmax = 0;
};

ReadCounters scrape(const ServiceCore& svc) {
  const std::string j = svc.stats_json();
  const auto op_completed = [&](const char* op) -> std::uint64_t {
    const std::size_t at = j.find(std::string("\"") + op + "\": {\"completed\"");
    return at == std::string::npos ? 0 : json_u64(j, "\"completed\": ", at);
  };
  return {json_u64(j, "\"submitted\": "), json_u64(j, "\"reads_inline\": "),
          json_u64(j, "\"hits\": "), op_completed("connected"),
          op_completed("pathmax")};
}

void read_from_threads(ServiceCore& svc, int threads, int reads) {
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&svc, reads, t] {
      for (int i = 0; i < reads; ++i) {
        const Op op = i % 2 == 0 ? Op::kConnected : Op::kPathMax;
        const auto u = static_cast<VertexId>((i + t) % 16);
        const Response r =
            svc.call(query_req(op, "g", u, static_cast<VertexId>((u + 5) % 16)));
        ASSERT_TRUE(r.ok()) << r.detail;
      }
    });
  }
  for (std::thread& t : ts) t.join();
}

TEST(ServeReadView, ShardedReadCountersSumExactly) {
  constexpr int kThreads = 4;
  constexpr int kReads = 2000;  // per thread, half connected, half pathmax
  ServiceCore svc;
  ASSERT_EQ(svc.call(open_req("g", 16)).status, Status::kOk);
  std::vector<WEdge> ring;
  for (VertexId v = 0; v < 16; ++v) ring.push_back({v, (v + 1) % 16, 1.0 + v});
  ASSERT_EQ(svc.call(insert_req("g", ring)).status, Status::kOk);
  // Warm the index so every counted read is an index hit.
  ASSERT_TRUE(svc.call(query_req(Op::kConnected, "g", 0, 1)).ok());

  const ReadCounters a = scrape(svc);
  read_from_threads(svc, kThreads, kReads);
  const ReadCounters b = scrape(svc);
  const std::uint64_t total = std::uint64_t{kThreads} * kReads;
  EXPECT_EQ(b.submitted - a.submitted, total);
  EXPECT_EQ(b.reads_inline - a.reads_inline, total);
  EXPECT_EQ(b.index_hits - a.index_hits, total);
  EXPECT_EQ(b.connected - a.connected, total / 2);
  EXPECT_EQ(b.pathmax - a.pathmax, total / 2);
  EXPECT_EQ(svc.metrics().reads_inline.load(), b.reads_inline);
  EXPECT_EQ(svc.metrics().index_hits.load(), b.index_hits);

  // reset_counters() zeroes every shard, not just the caller's.
  svc.metrics().reset_counters();
  const MetricsRegistry& m = svc.metrics();
  EXPECT_EQ(m.submitted.load(), 0u);
  EXPECT_EQ(m.reads_inline.load(), 0u);
  EXPECT_EQ(m.index_hits.load(), 0u);
  EXPECT_EQ(m.op(Op::kConnected).completed.load(), 0u);
  EXPECT_EQ(m.op(Op::kConnected).latency_us.snapshot().count, 0u);
  EXPECT_EQ(m.op(Op::kPathMax).latency_us.snapshot().count, 0u);
  EXPECT_EQ(svc.stats_json().find("\"connected\": {"), std::string::npos);

  read_from_threads(svc, kThreads, kReads);
  const ReadCounters c = scrape(svc);
  EXPECT_EQ(c.submitted, total);
  EXPECT_EQ(c.reads_inline, total);
  EXPECT_EQ(c.index_hits, total);
  EXPECT_EQ(c.connected, total / 2);
  EXPECT_EQ(m.op(Op::kConnected).latency_us.snapshot().count, total / 2);
  svc.shutdown();
}

// ---------------------------------------------------------------------------

TEST(ServeReadView, ReadsThatStartAfterAnAckSeeTheWrite) {
  constexpr VertexId kN = 40;
  ServiceCore svc;
  ASSERT_EQ(svc.call(open_req("g", kN)).status, Status::kOk);
  for (VertexId v = 0; v + 1 < kN; ++v) {
    // Both threads hold a view of the epoch before the write.
    const Request probe = query_req(Op::kConnected, "g", v, v + 1);
    ASSERT_FALSE(svc.call(probe).connected);
    std::latch warmed(1);
    std::latch acked(1);
    Response other;
    std::thread t([&] {
      EXPECT_FALSE(svc.call(probe).connected);
      warmed.count_down();
      acked.wait();
      other = svc.call(probe);
    });
    warmed.wait();
    const Response ins = svc.call(insert_req("g", {{v, v + 1, 1.0 + v}}));
    ASSERT_EQ(ins.status, Status::kOk);
    const Response mine = svc.call(probe);
    acked.count_down();
    t.join();
    EXPECT_GE(mine.epoch, ins.epoch);
    EXPECT_TRUE(mine.connected) << "own read after the ack of epoch " << ins.epoch;
    EXPECT_GE(other.epoch, ins.epoch);
    EXPECT_TRUE(other.connected) << "read on another thread after the ack";
  }
  svc.shutdown();
}

}  // namespace
