// serve-rw: writes beside reads on one in-process ServiceCore (1 shard, a
// solver team of 2, 2 dispatchers) holding one session, a random graph with
// n = 2^16 and m = 2^22 loaded through ServiceCore::call.  Three closed-loop
// clients: one writer alternately inserts an edge and deletes it again (m
// stays constant), two readers issue connected and pathmax, half each.  At
// the end the session's snapshot forest is checked against Kruskal of its
// live graph.

#include <algorithm>
#include <atomic>
#include <span>
#include <thread>

#include "graph/generators.hpp"
#include "harness.hpp"
#include "seq/seq_msf.hpp"

namespace perfbench {

namespace {

constexpr graph::VertexId kN = 1u << 16;
constexpr graph::EdgeId kM = 1ull << 22;
constexpr int kSetups = 3;  ///< timed set-ups on kSetupSeed
constexpr int kSolverThreads = 2;
constexpr int kDispatchers = 2;
constexpr int kReaders = 2;
constexpr std::size_t kMinWrites = 100;
constexpr std::size_t kReadSamples = 1u << 20;  ///< kept per reader
const char* const kSession = "g";

/// A fixed-size uniform sample of one reader's latencies (Algorithm R).  Its
/// memory is allocated and touched up front and does not grow with the
/// number of reads, so peak_rss_mb does not follow reads_per_s.
class ReadSample {
 public:
  explicit ReadSample(std::uint64_t seed) : rng_(seed), kept_(kReadSamples) {}

  void add(float us) {
    if (seen_ < kept_.size()) {
      kept_[seen_] = us;
    } else if (const std::uint64_t j = rng_.next_below(seen_ + 1); j < kept_.size()) {
      kept_[j] = us;
    }
    ++seen_;
  }
  std::uint64_t seen() const { return seen_; }
  std::span<const float> kept() const {
    return {kept_.data(), std::min<std::size_t>(seen_, kept_.size())};
  }

 private:
  Rng rng_;
  std::vector<float> kept_;
  std::uint64_t seen_ = 0;
};

struct Traffic {
  std::vector<double> write_ms;
  std::vector<float> read_us;  ///< the readers' samples, merged
  std::uint64_t reads = 0;     ///< all completed reads
  double wall_s = 0;
  double cpu_s = 0;
};

serve::ServeOptions serve_options() {
  serve::ServeOptions o;
  o.shards = 1;
  o.msf.threads = kSolverThreads;
  o.dispatchers = kDispatchers;
  return o;
}

}  // namespace

Report run_serve_rw(const Args& a) {
  Report r;
  const int p = nproc();
  require_threads(kSolverThreads, "serve-rw solver team");
  require_threads(1 + kReaders, "serve-rw clients");
  r.host = host_json({{"solver_team", kSolverThreads},
                      {"dispatchers", kDispatchers},
                      {"clients", 1 + kReaders}});

  auto call = [&](serve::ServiceCore& svc, serve::Request req, const char* span) {
    SpanScope s(span);
    return svc.call(std::move(req));
  };

  // Set-up: generate the graph, start the service, open the session and load
  // the graph in one insert, kSetups times from kSetupSeed (setup_s is the
  // median), then once from the run's seed, the session the traffic runs on.
  graph::EdgeList g;
  std::unique_ptr<serve::ServiceCore> svc;
  std::vector<double> setup_s, generate_s;
  for (int i = 0; i <= kSetups; ++i) {
    svc.reset();
    g = {};
    bool ok = true;
    setup_s.push_back(1e-3 * time_ms([&] {
      SpanScope s("harness.setup", Tracer::instance().next_request());
      generate_s.push_back(1e-3 * time_ms([&] {
        SpanScope gen("graph.random_graph");
        g = graph::random_graph(kN, kM, i < kSetups ? kSetupSeed : a.seed);
      }));
      {
        SpanScope start("serve.ServiceCore");
        svc = std::make_unique<serve::ServiceCore>(serve_options());
      }
      serve::Request open;
      open.op = serve::Op::kOpen;
      open.session = kSession;
      open.num_vertices = kN;
      ok = call(*svc, open, "serve.call.open").ok();
      serve::Request load;
      load.op = serve::Op::kInsert;
      load.session = kSession;
      load.insertions = g.edges;
      ok = ok && call(*svc, std::move(load), "serve.call.load").ok();
    }));
    if (!ok) throw std::runtime_error("serve-rw: loading the session failed");
  }
  const double own_setup_s = setup_s.back();
  setup_s.pop_back();
  generate_s.pop_back();

  std::atomic<std::uint64_t> writes_done{0};
  auto run_traffic = [&](double seconds, bool traced, std::uint64_t stream) {
    Traffic t;
    Tracer::instance().set_enabled(traced);
    std::atomic<bool> stop{false};
    std::vector<ReadSample> reads;
    for (int k = 0; k < kReaders; ++k)
      reads.emplace_back(a.seed ^ (0x73616d706c65ULL + 16 * stream + k));
    std::vector<Report> client_reports(1 + kReaders);
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> clients;
    clients.emplace_back([&] {
      Rng rng(a.seed ^ (0x777269746572ULL + stream));
      Report& cr = client_reports[0];
      while (!stop.load(std::memory_order_relaxed)) {
        const graph::WEdge e = random_edge(rng, kN);
        serve::Request ins;
        ins.op = serve::Op::kInsert;
        ins.session = kSession;
        ins.insertions.push_back(e);
        serve::Request del;
        del.op = serve::Op::kDelete;
        del.session = kSession;
        del.deletions.emplace_back(e.u, e.v);
        for (serve::Request* req : {&ins, &del}) {
          serve::Response resp;
          t.write_ms.push_back(time_ms([&] {
            SpanScope s("serve.call.write", Tracer::instance().next_request());
            resp = svc->call(*req);
          }));
          cr.check(resp.ok(), "write: " + resp.detail, false);
        }
        writes_done.fetch_add(2, std::memory_order_relaxed);
      }
    });
    for (int k = 0; k < kReaders; ++k) {
      clients.emplace_back([&, k] {
        Rng rng(a.seed ^ (0x726561646572ULL + 16 * stream + k));
        Report& cr = client_reports[1 + k];
        ReadSample& lat = reads[k];
        for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          serve::Request q;
          q.op = i % 2 == 0 ? serve::Op::kConnected : serve::Op::kPathMax;
          q.session = kSession;
          const graph::WEdge e = random_edge(rng, kN);
          q.u = e.u;
          q.v = e.v;
          serve::Response resp;
          const Clock::time_point s0 = Clock::now();
          {
            SpanScope s(i % 2 == 0 ? "serve.call.connected" : "serve.call.pathmax",
                        Tracer::instance().next_request());
            resp = svc->call(std::move(q));
          }
          lat.add(std::chrono::duration<float, std::micro>(Clock::now() - s0).count());
          cr.check(resp.ok(), "read: " + resp.detail, false);
        }
      });
    }
    // Run for `seconds`, longer only if the writer has not yet reached the
    // write count a p90 needs (bounded at three times the run length).
    const std::uint64_t writes0 = writes_done.load();
    while (true) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const double el = std::chrono::duration<double>(Clock::now() - t0).count();
      const bool enough = writes_done.load() - writes0 >= kMinWrites || el > 3 * seconds;
      if (el >= seconds && enough) break;
    }
    stop.store(true);
    for (std::thread& c : clients) c.join();
    t.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    t.cpu_s = cpu_seconds() - cpu0;
    Tracer::instance().set_enabled(false);
    for (const Report& cr : client_reports) {
      r.attempted += cr.attempted;
      r.failed += cr.failed;
      for (const std::string& e : cr.errors)
        if (r.errors.size() < 10) r.errors.push_back(e);
    }
    for (const ReadSample& v : reads) {
      t.read_us.insert(t.read_us.end(), v.kept().begin(), v.kept().end());
      t.reads += v.seen();
    }
    return t;
  };

  const Traffic plain = run_traffic(a.trace ? a.seconds / 2 : a.seconds, false, 0);
  const double write_ms = median(plain.write_ms);
  const double read_us = median(plain.read_us);
  const double reads_per_s = ratio(double(plain.reads), plain.wall_s);
  r.add(r.e2e, "setup_s", median(setup_s), "s", setup_s.size(),
        "random_graph(2^16, 2^22) + ServiceCore + open + one-insert load");
  r.add(r.detail, "setup_own_s", own_setup_s, "s", 1, "the same on the run's seed");
  r.add(r.e2e, "op_ms", write_ms, "ms", plain.write_ms.size(), "= write_ms");
  r.add(r.e2e, "op2_ms", read_us / 1e3, "ms", plain.read_us.size(),
        "= read_us / 1000, over a uniform sample of the reads");
  r.add(r.e2e, "work_per_s", reads_per_s, "1/s", plain.reads, "= reads_per_s");
  r.add(r.detail, "write_ms", write_ms, "ms", plain.write_ms.size(),
        "writer's ServiceCore::call, insert or delete of one edge");
  if (const auto p90 = tail_percentile(plain.write_ms, 0.90)) {
    r.add(r.detail, "write_p90_ms", *p90, "ms", plain.write_ms.size());
  }
  r.add(r.detail, "reads_per_s", reads_per_s, "1/s", plain.reads,
        "connected + pathmax, 2 closed-loop readers, writer running");
  r.add(r.detail, "read_us", read_us, "us", plain.read_us.size(),
        "over a uniform sample of the reads");
  if (const auto p99 = tail_percentile(plain.read_us, 0.99)) {
    r.add(r.detail, "read_p99_us", *p99, "us", plain.read_us.size());
  }

  if (a.trace) {
    svc->metrics().reset_counters();
    const Traffic traced = run_traffic(a.seconds / 2, true, 1);
    const serve::MetricsRegistry& m = svc->metrics();
    r.add(r.layer, "graph.generate_s", median(generate_s), "s", generate_s.size());
    r.add(r.layer, "proc.cpu_busy_ratio",
          busy_ratio(plain.cpu_s, plain.wall_s, p), "ratio", 1);
    r.add(r.layer, "trace.overhead_pct",
          overhead_pct(median(traced.write_ms), write_ms), "%",
          traced.write_ms.size(), "write_ms traced vs untraced half");
    const auto load = [](const std::atomic<std::uint64_t>& c) {
      return static_cast<double>(c.load());
    };
    std::uint64_t op_errors = 0;
    for (const serve::OpMetrics& om : m.ops) op_errors += om.errors.load();
    r.add(r.layer_extra, "serve.coalesce_ratio",
          ratio(load(m.coalesced_writes), load(m.apply_batches)), "ratio", 1,
          "writes per apply_batch, traced half");
    r.add(r.layer_extra, "serve.index_hit_ratio",
          ratio(load(m.index_hits), load(m.index_hits) + load(m.index_misses)),
          "ratio", 1);
    r.add(r.layer_extra, "serve.snapshots_published", load(m.snapshots_published),
          "count", 1);
    r.add(r.layer_extra, "serve.max_queue_depth", load(m.max_queue_depth), "count", 1);
    r.add(r.layer_extra, "serve.rejected",
          load(m.rejected_overload) + load(m.rejected_rate_limited) +
              static_cast<double>(op_errors),
          "count", 1);

    Tracer::instance().set_enabled(true);
    ThreadTeam team(p);
    ThreadTeam serve_team(kSolverThreads);
    ProbeInputs in;
    in.g = &g;
    in.team = &team;
    in.dyn_team = &serve_team;
    in.svc = svc.get();
    in.seed = a.seed;
    run_probes(in, r);

    // Served pathmax from one caller, nothing else running, minus the bare
    // index lookup: the serving layer's own share of a read.
    Rng rng(a.seed ^ 0x73656c66ULL);
    const std::vector<double> served_us = repeat(20000, 1.0, [&] {
      serve::Request q;
      q.op = serve::Op::kPathMax;
      q.session = kSession;
      const graph::WEdge e = random_edge(rng, kN);
      q.u = e.u;
      q.v = e.v;
      serve::Response resp;
      const double us = 1e3 * time_ms([&] { resp = call(*svc, std::move(q), "serve.call.pathmax"); });
      r.check(resp.ok(), "pathmax probe: " + resp.detail, false);
      return us;
    });
    Tracer::instance().set_enabled(false);
    r.add(r.layer_extra, "serve.read_self_us",
          median(served_us) - layer_value(r, "query.path_max_us"), "us", served_us.size(),
          "served pathmax - query.path_max_us");
    r.add(r.layer_extra, "serve.write_self_ms",
          write_self_ms(write_ms, layer_value(r, "dynamic.apply_one_ms"),
                        layer_value(r, "dynamic.live_graph_ms"),
                        layer_value(r, "query.index_build_ms")),
          "ms", plain.write_ms.size(),
          "write_ms - apply_one - live_graph - index_build");
    if (const auto p90 = tail_percentile(plain.write_ms, 0.90)) {
      r.add(r.layer_extra, "serve.write_p90_ms", *p90, "ms", plain.write_ms.size());
    }
    if (const auto p99 = tail_percentile(plain.read_us, 0.99)) {
      r.add(r.layer_extra, "serve.read_p99_us", *p99, "us", plain.read_us.size());
    }
  }

  // The session's final state must be the forest a scratch solve gives.
  serve::Request snap;
  snap.op = serve::Op::kSnapshot;
  snap.session = kSession;
  const serve::Response sr = svc->call(snap);
  r.check(sr.ok() && sr.snapshot != nullptr, "snapshot: " + sr.detail, false);
  if (sr.ok() && sr.snapshot != nullptr) {
    const serve::SnapshotData& sd = *sr.snapshot;
    graph::MsfResult want = smp::seq::kruskal_msf(sd.live);
    for (graph::EdgeId& e : want.edge_ids) e = sd.live_ids[e];
    graph::MsfResult got;
    got.edge_ids = sd.forest_ids;
    got.total_weight = sd.weight;
    got.num_trees = sd.trees;
    std::string why;
    const bool ok = same_forest(got, want, &why);
    r.check(ok, "final session forest: " + why);
  }
  r.add(r.e2e, "peak_rss_mb", peak_rss_mb(), "MB", 1);
  return r;
}

}  // namespace perfbench
