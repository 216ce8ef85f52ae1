// Serving-layer bench: open-loop request mixes against an in-process
// ServiceCore.  Each mix fires requests on a fixed arrival schedule
// (latency is measured from the *scheduled* arrival, so queueing delay is
// charged to the service, not hidden by a slow client), runs ≥2 read:write
// ratios, and reports client-side p50/p95/p99 plus achieved throughput and
// the registry's coalescing counters.  --json writes BENCH_04.json.
//
// Mix selection (BENCH_08):
//   --mix SPEC       replace the default {r90w10, r50w50} mixes; repeatable.
//                    SPEC is rNN[qNN]wNN — read/query/write percentages
//                    summing to 100, where q ops hit the ForestIndex
//                    (pathmax/conn, occasional topk).  e.g. --mix r40q40w20.
//
// Scale-out extensions (BENCH_09):
//   --transport T    inproc (default, the open-loop mixes above) | uds |
//                    tcp | both.  Non-inproc transports run the closed-loop
//                    scale sweep instead: shards in {1, 2, 4}, 2*shards
//                    sessions, pipelined client windows over a real socket,
//                    reporting rps plus read/write latency tails per
//                    (transport, shards) as "serve_scale" JSON records.
//   --dispatchers N  per-shard dispatcher threads for the scale sweep.
//
// Durability extensions (BENCH_06):
//   --data-dir DIR   run the mixes against a durable service (WAL + group
//                    commit under --fsync) rooted at DIR; every JSON row
//                    records the fsync policy so throughput can be compared
//                    against the non-durable BENCH_04 numbers.
//   --fsync P        always | interval | none (default interval)
//   --recover        instead of the mixes, time cold-start recovery: log
//                    10^4..10^6 updates (scaled by --scale), tear the core
//                    down without the clean-shutdown marker, and time a
//                    fresh ServiceCore replaying the WAL tail.  Replay goes
//                    through the same coalescing apply_batch path as live
//                    traffic, so the ratio recover_s/apply_s stays far
//                    below the acceptance bound of 10.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "net/tcp_client.hpp"
#include "net/tcp_server.hpp"
#include "persist/wal.hpp"
#include "serve/service_core.hpp"
#include "serve/uds_client.hpp"

using namespace smp;
using namespace smp::graph;
using namespace smp::serve;

namespace {

struct Mix {
  std::string name;
  int read_pct;   // plain reads (weight/connected) per 100 ops
  int query_pct;  // index queries (pathmax/conn/topk) per 100 ops
  // the rest are single-edge insertions
};

/// Parses a mix spec like "r90w10" or "r40q40w20": each letter (r = read,
/// q = query, w = write) is followed by its percentage; the three must sum
/// to 100.  Letters may appear in any order; omitted ones default to 0.
Mix parse_mix(const std::string& spec) {
  Mix mix{spec, 0, 0};
  int write_pct = 0;
  std::size_t i = 0;
  while (i < spec.size()) {
    const char kind = spec[i++];
    std::size_t j = i;
    while (j < spec.size() && std::isdigit(static_cast<unsigned char>(spec[j]))) {
      ++j;
    }
    if (j == i || (kind != 'r' && kind != 'q' && kind != 'w')) {
      std::fprintf(stderr,
                   "bench_serve: bad --mix %s (want rNN[qNN]wNN)\n",
                   spec.c_str());
      std::exit(2);
    }
    const int pct = std::atoi(spec.substr(i, j - i).c_str());
    if (kind == 'r') mix.read_pct = pct;
    if (kind == 'q') mix.query_pct = pct;
    if (kind == 'w') write_pct = pct;
    i = j;
  }
  if (mix.read_pct + mix.query_pct + write_pct != 100) {
    std::fprintf(stderr, "bench_serve: --mix %s percentages must sum to 100\n",
                 spec.c_str());
    std::exit(2);
  }
  return mix;
}

struct MixResult {
  std::size_t ok = 0;
  std::size_t rejected = 0;
  std::size_t errors = 0;
  double wall_s = 0;
  std::vector<double> read_us;
  std::vector<double> query_us;
  std::vector<double> write_us;
};

double quantile_us(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

/// Opens a session and grows it to `m` edges through the service itself
/// (chunked bulk inserts), so the bench exercises the store the way a
/// client would have built it.
void prepopulate(ServiceCore& svc, VertexId n, EdgeId m, std::uint64_t seed) {
  Request open;
  open.op = Op::kOpen;
  open.session = "g";
  open.num_vertices = n;
  if (!svc.call(open).ok()) {
    std::fprintf(stderr, "prepopulate: open failed\n");
    std::exit(1);
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<VertexId> vtx(0, n - 1);
  std::uniform_real_distribution<double> wgt(0.0, 1.0);
  constexpr EdgeId kChunk = 5000;
  for (EdgeId done = 0; done < m;) {
    Request ins;
    ins.op = Op::kInsert;
    ins.session = "g";
    const EdgeId want = std::min(kChunk, m - done);
    for (EdgeId i = 0; i < want; ++i) {
      VertexId u = vtx(rng), v = vtx(rng);
      while (v == u) v = vtx(rng);
      ins.insertions.push_back(WEdge{u, v, wgt(rng)});
    }
    if (!svc.call(ins).ok()) {
      std::fprintf(stderr, "prepopulate: insert failed\n");
      std::exit(1);
    }
    done += want;
  }
}

/// One open-loop run: `threads` clients each fire `ops_per_thread` requests
/// on a fixed schedule of `period` between arrivals, read/write chosen per
/// the mix.  Latency slots are preallocated per request index — callbacks
/// run on dispatcher threads and never contend.
MixResult run_mix(ServiceCore& svc, const Mix& mix, VertexId n, int threads,
                  std::size_t ops_per_thread, double target_rps,
                  std::uint64_t seed) {
  using Clock = std::chrono::steady_clock;
  const std::size_t total = static_cast<std::size_t>(threads) * ops_per_thread;
  // Each thread fires every `period`; threads are staggered by a fraction
  // of it so the aggregate arrival process is near-uniform at target_rps.
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(static_cast<double>(threads) / target_rps));
  const auto stagger = period / threads;

  // -1 = rejected, -2 = service error, >= 0 = latency in microseconds.
  std::vector<double> lat(total, 0.0);
  std::vector<std::uint8_t> is_read(total, 0);
  std::atomic<std::size_t> completed{0};
  std::mutex mu;
  std::condition_variable cv;

  const auto t0 = Clock::now() + std::chrono::milliseconds(10);
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937_64 rng(seed + static_cast<std::uint64_t>(t) * 7919);
      std::uniform_int_distribution<VertexId> vtx(0, n - 1);
      std::uniform_int_distribution<int> pct(0, 99);
      std::uniform_real_distribution<double> wgt(0.0, 1.0);
      for (std::size_t i = 0; i < ops_per_thread; ++i) {
        const std::size_t slot = static_cast<std::size_t>(t) * ops_per_thread + i;
        const auto scheduled = t0 +
                               period * static_cast<Clock::duration::rep>(i) +
                               stagger * t;
        std::this_thread::sleep_until(scheduled);

        Request req;
        req.session = "g";
        const int roll = pct(rng);
        // 0 = write, 1 = read, 2 = index query.
        const int kind = roll < mix.read_pct                  ? 1
                         : roll < mix.read_pct + mix.query_pct ? 2
                                                               : 0;
        is_read[slot] = static_cast<std::uint8_t>(kind);
        if (kind == 1) {
          if (pct(rng) < 50) {
            req.op = Op::kWeight;
          } else {
            req.op = Op::kConnected;
            req.u = vtx(rng);
            req.v = vtx(rng);
            while (req.v == req.u) req.v = vtx(rng);
          }
        } else if (kind == 2) {
          // Mostly the O(log n)/O(1) index ops, an occasional top-k scan.
          const int q = pct(rng);
          if (q < 45) {
            req.op = Op::kPathMax;
          } else if (q < 90) {
            req.op = Op::kConn;
          } else {
            req.op = Op::kTopK;
            req.limit = 8;
          }
          if (req.op != Op::kTopK) {
            req.u = vtx(rng);
            req.v = vtx(rng);
            while (req.v == req.u) req.v = vtx(rng);
          }
        } else {
          req.op = Op::kInsert;
          VertexId u = vtx(rng), v = vtx(rng);
          while (v == u) v = vtx(rng);
          req.insertions.push_back(WEdge{u, v, wgt(rng)});
        }
        const bool accepted = svc.submit(req, [&, slot, scheduled](const Response& r) {
          if (r.ok()) {
            lat[slot] = std::chrono::duration<double, std::micro>(
                            Clock::now() - scheduled)
                            .count();
          } else {
            lat[slot] = r.status == Status::kOverloaded ? -1.0 : -2.0;
          }
          if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
            std::lock_guard<std::mutex> lk(mu);
            cv.notify_one();
          }
        });
        if (!accepted && completed.load(std::memory_order_acquire) == total) {
          break;  // unreachable in practice; submit always invokes done
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return completed.load(std::memory_order_acquire) == total; });
  }
  MixResult r;
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (std::size_t i = 0; i < total; ++i) {
    if (lat[i] == -1.0) {
      ++r.rejected;
    } else if (lat[i] == -2.0) {
      ++r.errors;
    } else {
      ++r.ok;
      (is_read[i] == 1   ? r.read_us
       : is_read[i] == 2 ? r.query_us
                         : r.write_us)
          .push_back(lat[i]);
    }
  }
  return r;
}

/// One cold-start recovery measurement: log `updates` single-edge inserts
/// through a durable core under maximum write pressure (a large in-flight
/// window, so the flusher coalesces exactly as it would for a real burst),
/// tear the core down with the clean-shutdown marker disabled, then time a
/// fresh ServiceCore recovering the directory (snapshot load + WAL replay).
struct RecoverResult {
  double apply_s = 0;
  double recover_s = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t replayed_records = 0;
  std::size_t errors = 0;
};

RecoverResult run_recover(const std::string& dir, persist::FsyncPolicy fsync,
                          VertexId n, std::size_t updates,
                          std::uint64_t seed) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  ServeOptions opts;
  opts.msf.threads = 4;
  opts.dispatchers = 4;
  opts.queue_capacity = 1u << 15;
  opts.data_dir = dir;
  opts.fsync = fsync;
  // The whole point is to replay the tail: never truncate it mid-run and
  // leave no clean marker behind, so the restart takes the cold path.
  opts.snapshot_wal_bytes = ~0ull;
  opts.clean_shutdown = false;

  RecoverResult res;
  {
    ServiceCore svc(opts);
    Request open;
    open.op = Op::kOpen;
    open.session = "g";
    open.num_vertices = n;
    if (!svc.call(open).ok()) {
      std::fprintf(stderr, "recover bench: open failed\n");
      std::exit(1);
    }
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<VertexId> vtx(0, n - 1);
    std::uniform_real_distribution<double> wgt(0.0, 1.0);
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> errors{0};
    constexpr std::size_t kWindow = 1u << 14;  // max in-flight writes
    WallTimer t;
    for (std::size_t i = 0; i < updates; ++i) {
      Request ins;
      ins.op = Op::kInsert;
      ins.session = "g";
      VertexId u = vtx(rng), v = vtx(rng);
      while (v == u) v = vtx(rng);
      ins.insertions.push_back(WEdge{u, v, wgt(rng)});
      while (i - done.load(std::memory_order_acquire) >= kWindow) {
        std::this_thread::yield();
      }
      while (!svc.submit(ins, [&](const Response& r) {
        if (!r.ok()) errors.fetch_add(1, std::memory_order_relaxed);
        done.fetch_add(1, std::memory_order_release);
      })) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    while (done.load(std::memory_order_acquire) < updates) {
      std::this_thread::yield();
    }
    res.apply_s = t.elapsed_s();
    res.errors = errors.load();
    res.wal_records = svc.metrics().persist.wal_appends.load();
    svc.shutdown();  // clean_shutdown=false: the WAL tail stays behind
  }
  {
    WallTimer t;
    ServiceCore svc(opts);  // recovery happens in the constructor
    res.recover_s = t.elapsed_s();
    res.replayed_records = svc.metrics().replayed_records.load();
    svc.shutdown();
  }
  std::filesystem::remove_all(dir, ec);
  return res;
}

// ---------------------------------------------------------------------------
// Scale-out mode (BENCH_09): the same r90w10 mix over a real transport —
// UDS line protocol or TCP binary frames — against a sharded core, swept
// over shard counts.  Clients run closed-loop with a pipelining window of
// `kWindow` requests per batch (the binary transport sends the batch as ONE
// frame), so the comparison captures framing + syscall overhead, not
// client-side think time.

constexpr std::size_t kWindow = 32;

struct ScaleResult {
  std::size_t ok = 0;
  std::size_t errors = 0;
  double wall_s = 0;
  std::vector<double> read_us;
  std::vector<double> write_us;
};

/// One client's worth of requests for one batch: 90 reads / 10 writes.
/// kind: 0 = write, 1 = read.
struct BatchOp {
  int kind;
  Op op;
  VertexId u, v;
  double w;
};

std::vector<BatchOp> make_batch(std::mt19937_64& rng, VertexId n) {
  std::uniform_int_distribution<VertexId> vtx(0, n - 1);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_real_distribution<double> wgt(0.0, 1.0);
  std::vector<BatchOp> ops;
  ops.reserve(kWindow);
  for (std::size_t i = 0; i < kWindow; ++i) {
    BatchOp b{};
    if (pct(rng) < 90) {
      b.kind = 1;
      if (pct(rng) < 50) {
        b.op = Op::kWeight;
      } else {
        b.op = Op::kConnected;
        b.u = vtx(rng);
        b.v = vtx(rng);
        while (b.v == b.u) b.v = vtx(rng);
      }
    } else {
      b.kind = 0;
      b.op = Op::kInsert;
      b.u = vtx(rng);
      b.v = vtx(rng);
      while (b.v == b.u) b.v = vtx(rng);
      b.w = wgt(rng);
    }
    ops.push_back(b);
  }
  return ops;
}

void record_latency(ScaleResult& r, const BatchOp& b, double us, bool ok) {
  if (!ok) {
    ++r.errors;
    return;
  }
  ++r.ok;
  (b.kind == 1 ? r.read_us : r.write_us).push_back(us);
}

/// TCP client loop: each batch goes out as one kBatch frame; responses are
/// matched by correlation id (they may arrive out of order).
void run_scale_client_tcp(std::uint16_t port,
                          const std::vector<std::string>& sessions,
                          VertexId n, std::size_t batches, std::uint64_t seed,
                          ScaleResult& out) {
  using Clock = std::chrono::steady_clock;
  net::TcpClient client("127.0.0.1", port);
  std::mt19937_64 rng(seed);
  for (std::size_t bi = 0; bi < batches; ++bi) {
    const std::string& session = sessions[bi % sessions.size()];
    const std::vector<BatchOp> ops = make_batch(rng, n);
    std::vector<Request> reqs;
    reqs.reserve(ops.size());
    for (const BatchOp& b : ops) {
      Request req;
      req.op = b.op;
      req.session = session;
      req.u = b.u;
      req.v = b.v;
      if (b.op == Op::kInsert) req.insertions.push_back(WEdge{b.u, b.v, b.w});
      reqs.push_back(std::move(req));
    }
    const auto t0 = Clock::now();
    const std::vector<std::uint64_t> ids = client.send_batch(reqs);
    std::unordered_map<std::uint64_t, std::size_t> slot_of;
    slot_of.reserve(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) slot_of[ids[i]] = i;
    for (std::size_t got = 0; got < ids.size(); ++got) {
      const net::BinResponse r = client.recv();
      const double us = std::chrono::duration<double, std::micro>(
                            Clock::now() - t0)
                            .count();
      const auto it = slot_of.find(r.id);
      if (it == slot_of.end()) continue;
      record_latency(out, ops[it->second], us, r.resp.ok());
    }
  }
  client.quit();
}

/// UDS client loop: the same batches as pipelined line-protocol requests
/// (kWindow lines written back-to-back, then kWindow responses drained).
void run_scale_client_uds(const std::string& path,
                          const std::vector<std::string>& sessions,
                          VertexId n, std::size_t batches, std::uint64_t seed,
                          ScaleResult& out) {
  using Clock = std::chrono::steady_clock;
  UdsClient client(path);
  std::mt19937_64 rng(seed);
  char line[128];
  for (std::size_t bi = 0; bi < batches; ++bi) {
    const std::string& session = sessions[bi % sessions.size()];
    const std::vector<BatchOp> ops = make_batch(rng, n);
    std::vector<std::string> lines;
    lines.reserve(ops.size());
    for (const BatchOp& b : ops) {
      // The wire is 1-based (DIMACS convention).
      if (b.op == Op::kWeight) {
        std::snprintf(line, sizeof line, "weight %s", session.c_str());
      } else if (b.op == Op::kConnected) {
        std::snprintf(line, sizeof line, "connected %s %llu %llu",
                      session.c_str(),
                      static_cast<unsigned long long>(b.u) + 1,
                      static_cast<unsigned long long>(b.v) + 1);
      } else {
        std::snprintf(line, sizeof line, "insert %s %llu %llu %.17g",
                      session.c_str(),
                      static_cast<unsigned long long>(b.u) + 1,
                      static_cast<unsigned long long>(b.v) + 1, b.w);
      }
      lines.emplace_back(line);
    }
    const auto t0 = Clock::now();
    for (const std::string& l : lines) client.send_line(l);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::vector<std::string> resp = client.read_response(lines[i]);
      const double us = std::chrono::duration<double, std::micro>(
                            Clock::now() - t0)
                            .count();
      record_latency(out, ops[i], us,
                     !resp.empty() && resp.front().rfind("ok", 0) == 0);
    }
  }
}

/// One (transport, shards) configuration: fresh sharded core, 2*shards
/// sessions spread across the shards by name hash, `clients` closed-loop
/// connections.  Returns aggregate throughput and latency tails.
ScaleResult run_scale_config(const std::string& transport, int shards,
                             int dispatchers, int clients, VertexId n,
                             EdgeId m, std::size_t batches_per_client,
                             std::uint64_t seed) {
  ServeOptions opts;
  opts.msf.threads = 2;
  opts.dispatchers = dispatchers;
  opts.queue_capacity = 1u << 14;
  opts.coalesce_window_s = 0.002;
  opts.shards = shards;
  ServiceCore svc(opts);

  std::vector<std::string> sessions;
  for (int s = 0; s < 2 * shards; ++s) {
    sessions.push_back("sc" + std::to_string(s));
  }
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    Request open;
    open.op = Op::kOpen;
    open.session = sessions[s];
    open.num_vertices = n;
    if (!svc.call(open).ok()) {
      std::fprintf(stderr, "scale bench: open %s failed\n",
                   sessions[s].c_str());
      std::exit(1);
    }
    std::mt19937_64 rng(seed + s);
    std::uniform_int_distribution<VertexId> vtx(0, n - 1);
    std::uniform_real_distribution<double> wgt(0.0, 1.0);
    Request ins;
    ins.op = Op::kInsert;
    ins.session = sessions[s];
    for (EdgeId i = 0; i < m; ++i) {
      VertexId u = vtx(rng), v = vtx(rng);
      while (v == u) v = vtx(rng);
      ins.insertions.push_back(WEdge{u, v, wgt(rng)});
    }
    if (!svc.call(ins).ok()) {
      std::fprintf(stderr, "scale bench: prepopulate failed\n");
      std::exit(1);
    }
  }

  // One server either way: a unix path and no TCP listener, or the reverse.
  net::TcpServerOptions server_opts;
  std::string socket_path;
  if (transport == "uds") {
    socket_path = (std::filesystem::temp_directory_path() /
                   ("bench_serve_scale_" + std::to_string(::getpid()) +
                    ".sock"))
                      .string();
    server_opts.port = std::nullopt;
    server_opts.unix_path = socket_path;
  }
  net::TcpServer server(svc, server_opts);
  server.start();
  const std::uint16_t port = server.port();

  using Clock = std::chrono::steady_clock;
  std::vector<ScaleResult> per_client(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::uint64_t s = seed + 31 * static_cast<std::uint64_t>(c);
      if (transport == "uds") {
        run_scale_client_uds(socket_path, sessions, n, batches_per_client, s,
                             per_client[static_cast<std::size_t>(c)]);
      } else {
        run_scale_client_tcp(port, sessions, n, batches_per_client, s,
                             per_client[static_cast<std::size_t>(c)]);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ScaleResult total;
  total.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (ScaleResult& r : per_client) {
    total.ok += r.ok;
    total.errors += r.errors;
    total.read_us.insert(total.read_us.end(), r.read_us.begin(),
                         r.read_us.end());
    total.write_us.insert(total.write_us.end(), r.write_us.begin(),
                          r.write_us.end());
  }
  server.stop();
  svc.shutdown();
  return total;
}

int run_scale_mode(const std::string& transport, int dispatchers,
                   const bench::Args& args) {
  const auto n = static_cast<VertexId>(
      std::max<std::size_t>(64, args.size(2000, 20000)));
  const auto m = static_cast<EdgeId>(3 * static_cast<EdgeId>(n));
  const int clients = std::max(2, args.max_threads / 2);
  const std::size_t batches_per_client = std::max<std::size_t>(
      4, args.size(4000, 40000) / kWindow);

  std::vector<std::string> transports;
  if (transport == "both") {
    transports = {"uds", "tcp"};
  } else {
    transports = {transport};
  }

  std::printf("bench_serve --transport %s  n=%llu m=%llu clients=%d"
              " window=%zu dispatchers=%d\n",
              transport.c_str(), static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(m), clients, kWindow,
              dispatchers);
  std::printf("%-6s %7s %10s %8s %8s %9s %9s %9s %9s\n", "trans", "shards",
              "rps", "ok", "err", "r.p50ms", "r.p99ms", "w.p50ms", "w.p99ms");

  bench::JsonSink sink;
  for (const int shards : {1, 2, 4}) {
    for (const std::string& t : transports) {
      ScaleResult r = run_scale_config(t, shards, dispatchers, clients, n, m,
                                       batches_per_client, args.seed);
      const double rps = static_cast<double>(r.ok) / r.wall_s;
      const double rp50 = quantile_us(r.read_us, 0.50) / 1000.0;
      const double rp99 = quantile_us(r.read_us, 0.99) / 1000.0;
      const double wp50 = quantile_us(r.write_us, 0.50) / 1000.0;
      const double wp99 = quantile_us(r.write_us, 0.99) / 1000.0;
      std::printf("%-6s %7d %10.1f %8zu %8zu %9.3f %9.3f %9.3f %9.3f\n",
                  t.c_str(), shards, rps, r.ok, r.errors, rp50, rp99, wp50,
                  wp99);
      if (r.errors != 0) {
        std::fprintf(stderr, "scale bench: %zu request errors\n", r.errors);
        return 1;
      }
      char rec[512];
      std::snprintf(
          rec, sizeof rec,
          "{\"tag\": \"serve_scale\", \"transport\": \"%s\", \"shards\": %d, "
          "\"dispatchers\": %d, \"clients\": %d, \"window\": %zu, "
          "\"sessions\": %d, \"mix\": \"r90w10\", \"n\": %llu, \"m\": %llu, "
          "\"ok\": %zu, \"rps\": %.1f, \"read_p50_ms\": %.3f, "
          "\"read_p99_ms\": %.3f, \"write_p50_ms\": %.3f, "
          "\"write_p99_ms\": %.3f}",
          t.c_str(), shards, dispatchers, clients, kWindow, 2 * shards,
          static_cast<unsigned long long>(n),
          static_cast<unsigned long long>(m), r.ok, rps, rp50, rp99, wp50,
          wp99);
      sink.add(rec);
    }
  }
  sink.write("bench_serve_scale", args);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the durability flags before the shared parser sees them (it
  // rejects unknown flags).
  std::string data_dir;
  persist::FsyncPolicy fsync = persist::FsyncPolicy::kInterval;
  bool recover_mode = false;
  std::string transport = "inproc";
  int dispatchers = 4;
  std::vector<Mix> mixes;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_serve: missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--data-dir") == 0) {
      data_dir = need("--data-dir");
    } else if (std::strcmp(argv[i], "--fsync") == 0) {
      fsync = persist::parse_fsync_policy(need("--fsync"));
    } else if (std::strcmp(argv[i], "--recover") == 0) {
      recover_mode = true;
    } else if (std::strcmp(argv[i], "--mix") == 0) {
      mixes.push_back(parse_mix(need("--mix")));
    } else if (std::strcmp(argv[i], "--transport") == 0) {
      transport = need("--transport");
      if (transport != "inproc" && transport != "uds" && transport != "tcp" &&
          transport != "both") {
        std::fprintf(stderr,
                     "bench_serve: --transport wants inproc|uds|tcp|both\n");
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--dispatchers") == 0) {
      dispatchers = std::atoi(need("--dispatchers"));
      if (dispatchers < 1) {
        std::fprintf(stderr, "bench_serve: --dispatchers wants >= 1\n");
        std::exit(2);
      }
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (mixes.empty()) {
    mixes = {parse_mix("r90w10"), parse_mix("r50w50")};
  }
  const bench::Args args =
      bench::parse_args(static_cast<int>(rest.size()), rest.data());
  if (transport != "inproc") {
    return run_scale_mode(transport, dispatchers, args);
  }
  if ((recover_mode || !data_dir.empty()) && data_dir.empty()) {
    data_dir = (std::filesystem::temp_directory_path() /
                ("bench_serve_data_" + std::to_string(::getpid())))
                   .string();
  }

  if (recover_mode) {
    std::printf("bench_serve --recover  fsync=%s\n",
                std::string(persist::to_string(fsync)).c_str());
    std::printf("%-10s %10s %10s %10s %8s %10s %10s\n", "updates", "n",
                "apply_s", "recover_s", "ratio", "wal_recs", "replayed");
    bench::JsonSink sink;
    for (const std::size_t base : {10'000ul, 100'000ul, 1'000'000ul}) {
      const std::size_t updates = std::max<std::size_t>(64, args.size(base, base));
      const auto n = static_cast<VertexId>(
          std::max<std::size_t>(256, updates / 20));
      const RecoverResult r = run_recover(
          data_dir + "/recover_" + std::to_string(base), fsync, n, updates,
          args.seed);
      const double ratio = r.apply_s > 0 ? r.recover_s / r.apply_s : 0.0;
      std::printf("%-10zu %10llu %10.3f %10.3f %8.2f %10llu %10llu\n",
                  updates, static_cast<unsigned long long>(n), r.apply_s,
                  r.recover_s, ratio,
                  static_cast<unsigned long long>(r.wal_records),
                  static_cast<unsigned long long>(r.replayed_records));
      if (r.errors != 0) {
        std::fprintf(stderr, "recover bench: %zu write errors\n", r.errors);
        return 1;
      }
      char rec[512];
      std::snprintf(
          rec, sizeof rec,
          "{\"tag\": \"recover\", \"updates\": %zu, \"n\": %llu, "
          "\"fsync\": \"%s\", \"apply_s\": %.4f, \"recover_s\": %.4f, "
          "\"replay_ratio\": %.3f, \"wal_records\": %llu, "
          "\"replayed_records\": %llu}",
          updates, static_cast<unsigned long long>(n),
          std::string(persist::to_string(fsync)).c_str(), r.apply_s,
          r.recover_s, ratio, static_cast<unsigned long long>(r.wal_records),
          static_cast<unsigned long long>(r.replayed_records));
      sink.add(rec);
    }
    sink.write("bench_serve_recover", args);
    return 0;
  }
  const auto n = static_cast<VertexId>(args.size(20000, 100000));
  const auto m = static_cast<EdgeId>(3 * static_cast<EdgeId>(n));
  const int clients = std::max(2, args.max_threads);
  const double target_rps = 1500.0;
  const std::size_t ops_per_client = 3000 / static_cast<std::size_t>(clients);

  const bool durable = !data_dir.empty();
  const std::string fsync_name =
      durable ? std::string(persist::to_string(fsync)) : "none";

  std::printf("bench_serve  n=%llu m=%llu clients=%d target_rps=%.0f"
              " fsync=%s\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(m), clients, target_rps,
              fsync_name.c_str());
  std::printf("%-10s %10s %8s %8s %9s %9s %9s %9s %9s %9s %7s\n", "mix",
              "rps", "ok", "rej", "p50ms", "p95ms", "p99ms", "w.p50ms",
              "w.p99ms", "q.p99ms", "coal");

  bench::JsonSink sink;
  for (const Mix& mix : mixes) {
    // A fresh core per mix isolates the metrics registry and the store.
    ServeOptions opts;
    opts.msf.threads = 4;
    opts.dispatchers = 4;
    opts.queue_capacity = 1024;
    opts.coalesce_window_s = 0.002;
    if (durable) {
      // Fresh per-mix directory: mixes must not recover each other's state.
      opts.data_dir = data_dir + "/mix_" + mix.name;
      opts.fsync = fsync;
      std::error_code ec;
      std::filesystem::remove_all(opts.data_dir, ec);
    }
    ServiceCore svc(opts);
    prepopulate(svc, n, m, args.seed);
    svc.metrics().reset_counters();

    MixResult r =
        run_mix(svc, mix, n, clients, ops_per_client, target_rps, args.seed);

    std::vector<double> all;
    all.reserve(r.read_us.size() + r.write_us.size());
    all.insert(all.end(), r.read_us.begin(), r.read_us.end());
    all.insert(all.end(), r.write_us.begin(), r.write_us.end());
    const double p50 = quantile_us(all, 0.50) / 1000.0;
    const double p95 = quantile_us(all, 0.95) / 1000.0;
    const double p99 = quantile_us(all, 0.99) / 1000.0;
    const double wp50 = quantile_us(r.write_us, 0.50) / 1000.0;
    const double wp99 = quantile_us(r.write_us, 0.99) / 1000.0;
    const double rp50 = quantile_us(r.read_us, 0.50) / 1000.0;
    const double rp99 = quantile_us(r.read_us, 0.99) / 1000.0;
    const double qp50 = quantile_us(r.query_us, 0.50) / 1000.0;
    const double qp99 = quantile_us(r.query_us, 0.99) / 1000.0;
    const double rps = static_cast<double>(r.ok) / r.wall_s;
    const auto batches = svc.metrics().apply_batches.load();
    const auto coalesced = svc.metrics().coalesced_writes.load();
    const double avg_coalesce =
        batches == 0 ? 0.0
                     : static_cast<double>(coalesced) / static_cast<double>(batches);

    std::printf(
        "%-10s %10.1f %8zu %8zu %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %7.2f\n",
        mix.name.c_str(), rps, r.ok, r.rejected, p50, p95, p99, wp50, wp99,
        qp99, avg_coalesce);

    char rec[1024];
    std::snprintf(
        rec, sizeof rec,
        "{\"tag\": \"serve\", \"mix\": \"%s\", \"read_pct\": %d, "
        "\"query_pct\": %d, \"fsync\": \"%s\", "
        "\"n\": %llu, \"m\": %llu, \"clients\": %d, \"target_rps\": %.0f, "
        "\"achieved_rps\": %.1f, \"ok\": %zu, \"rejected\": %zu, "
        "\"errors\": %zu, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
        "\"p99_ms\": %.3f, \"read_p50_ms\": %.3f, \"read_p99_ms\": %.3f, "
        "\"query_p50_ms\": %.3f, \"query_p99_ms\": %.3f, "
        "\"write_p50_ms\": %.3f, \"write_p99_ms\": %.3f, "
        "\"apply_batches\": %llu, \"coalesced_writes\": %llu, "
        "\"avg_coalesce\": %.2f}",
        mix.name.c_str(), mix.read_pct, mix.query_pct, fsync_name.c_str(),
        static_cast<unsigned long long>(n),
        static_cast<unsigned long long>(m), clients, target_rps, rps, r.ok,
        r.rejected, r.errors, p50, p95, p99, rp50, rp99, qp50, qp99, wp50,
        wp99, static_cast<unsigned long long>(batches),
        static_cast<unsigned long long>(coalesced), avg_coalesce);
    sink.add(rec);
    svc.shutdown();
  }
  sink.write("bench_serve", args);
  if (durable) {
    std::error_code ec;
    std::filesystem::remove_all(data_dir, ec);
  }
  return 0;
}
