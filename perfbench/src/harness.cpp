#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/connected_components.hpp"
#include "core/find_min.hpp"
#include "core/msf.hpp"
#include "net/tcp_client.hpp"
#include "net/tcp_server.hpp"
#include "pprim/build_info.hpp"
#include "pprim/machine.hpp"
#include "query/forest_index.hpp"
#include "seq/seq_msf.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxErrors = 10;

/// The forest as sorted input-edge ids, its identity under WeightOrder.
std::vector<graph::EdgeId> sorted_ids(const graph::MsfResult& r) {
  std::vector<graph::EdgeId> ids = r.edge_ids;
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

double layer_value(const Report& r, const std::string& name) {
  for (const Metric& m : r.layer)
    if (m.name == name) return m.value;
  return kNaN;
}

graph::WEdge random_edge(Rng& rng, graph::VertexId n) {
  const auto u = static_cast<graph::VertexId>(rng.next_below(n));
  auto v = static_cast<graph::VertexId>(rng.next_below(n - 1));
  if (v >= u) ++v;
  return {u, v, rng.next_double()};
}

void Report::check(bool ok, const std::string& what, bool wrong_forest) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (wrong_forest) correct = false;
  if (errors.size() < kMaxErrors) errors.push_back(what);
}

int nproc() {
  return static_cast<int>(std::max(1u, smp::machine_profile().available_threads));
}

void require_threads(int threads, const char* what) {
  if (threads > nproc()) {
    throw std::runtime_error(std::string(what) + " asks for " +
                             std::to_string(threads) + " threads but only " +
                             std::to_string(nproc()) +
                             " hardware threads are available");
  }
}

std::string host_json(const std::vector<std::pair<std::string, int>>& threads) {
  const smp::BuildInfo b = smp::build_info();
  std::ostringstream os;
  os << "{\"nproc\": " << nproc()
     << ", \"machine\": " << smp::machine_profile_json() << ", \"threads\": {";
  for (std::size_t i = 0; i < threads.size(); ++i) {
    os << (i ? ", " : "") << '"' << threads[i].first << "\": " << threads[i].second;
  }
  os << "}, \"compiler\": \"" << smp::json_escape(b.compiler)
     << "\", \"build_type\": \"" << smp::json_escape(b.build_type) << "\"}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double time_ms(const std::function<void()>& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

bool same_forest(const graph::MsfResult& got, const graph::MsfResult& want,
                 std::string* why) {
  if (sorted_ids(got) != sorted_ids(want)) {
    *why = "edge ids differ (" + std::to_string(got.edge_ids.size()) + " vs " +
           std::to_string(want.edge_ids.size()) + " edges)";
    return false;
  }
  if (got.num_trees != want.num_trees) {
    *why = "tree counts differ";
    return false;
  }
  // Same edge set; the sums may differ only by summation order.
  if (std::abs(got.total_weight - want.total_weight) >
      1e-9 * std::max(1.0, std::abs(want.total_weight))) {
    *why = "total weights differ";
    return false;
  }
  return true;
}

std::vector<double> repeat(int reps, double budget_s,
                           const std::function<double()>& fn) {
  std::vector<double> out;
  const Clock::time_point t0 = Clock::now();
  do {
    out.push_back(fn());
  } while (static_cast<int>(out.size()) < reps &&
           std::chrono::duration<double>(Clock::now() - t0).count() < budget_s);
  return out;
}

graph::MsfResult instrumented_solve(ThreadTeam& team, const graph::EdgeList& g,
                                    SolveBreakdown& out) {
  core::StepTimes st;
  core::PhaseStats ps;
  std::vector<core::IterationStat> its;
  core::MsfOptions o;
  o.step_times = &st;
  o.phase_stats = &ps;
  o.iteration_stats = &its;
  graph::MsfResult res;
  const double ms = time_ms([&] {
    SpanScope s("core.minimum_spanning_forest");
    res = core::minimum_spanning_forest(team, g, o);
  });
  out.wall_ms.push_back(ms);
  out.find_min_ms.push_back(st.find_min * 1e3);
  out.connect_ms.push_back(st.connect * 1e3);
  out.compact_ms.push_back(st.compact * 1e3);
  out.other_ms.push_back(st.other * 1e3);
  out.iterations.push_back(static_cast<double>(ps.iterations));
  out.regions_per_iteration.push_back(ps.regions_per_iteration());
  double live = 0;
  for (const core::IterationStat& it : its) live += it.live_fraction;
  out.live_fraction.push_back(its.empty() ? 1.0 : live / static_cast<double>(its.size()));
  return res;
}

void report_breakdown(Report& r, const SolveBreakdown& b) {
  const std::size_t n = b.wall_ms.size();
  r.add(r.layer, "core.find_min_ms", median(b.find_min_ms), "ms", n);
  r.add(r.layer, "core.connect_ms", median(b.connect_ms), "ms", n);
  r.add(r.layer, "core.compact_ms", median(b.compact_ms), "ms", n);
  r.add(r.layer, "core.other_ms", median(b.other_ms), "ms", n);
  r.add(r.layer, "core.iterations", median(b.iterations), "count", n);
  r.add(r.layer, "core.regions_per_iteration", median(b.regions_per_iteration),
        "ratio", n);
  r.add(r.layer, "core.live_arc_fraction", median(b.live_fraction), "ratio", n);
  // How much of the instrumented solves' wall time the four steps explain.
  std::vector<double> cover;
  for (std::size_t i = 0; i < n; ++i) {
    cover.push_back(ratio(b.find_min_ms[i] + b.connect_ms[i] + b.compact_ms[i] +
                              b.other_ms[i],
                          b.wall_ms[i]));
  }
  r.add(r.layer, "core.step_coverage", median(cover), "ratio", n,
        "StepTimes total / wall of the same solve");
}

void report_batches(Report& r, const BatchBreakdown& b) {
  std::vector<double> insert_self, mixed_self;
  for (std::size_t i = 0; i < b.insert_ms.size(); ++i)
    insert_self.push_back(b.insert_ms[i] - b.insert_solve_ms[i]);
  for (std::size_t i = 0; i < b.mixed_ms.size(); ++i)
    mixed_self.push_back(b.mixed_ms[i] - b.mixed_solve_ms[i]);
  r.add(r.layer, "dynamic.insert_solve_ms", median(b.insert_solve_ms), "ms",
        b.insert_solve_ms.size());
  r.add(r.layer, "dynamic.mixed_solve_ms", median(b.mixed_solve_ms), "ms",
        b.mixed_solve_ms.size());
  r.add(r.layer, "dynamic.insert_self_ms", median(insert_self), "ms",
        insert_self.size());
  r.add(r.layer, "dynamic.mixed_self_ms", median(mixed_self), "ms",
        mixed_self.size());
  double cand = 0;
  for (const double c : b.candidates) cand += c;
  r.add(r.layer, "dynamic.candidates",
        b.candidates.empty() ? kNaN : cand / static_cast<double>(b.candidates.size()),
        "count", b.candidates.size(), "mean MsfDelta::candidate_edges");
  // Table-only: batches this small stay far below the scratch threshold
  // (a quarter of the live edges), so the count reads 0.
  r.add(r.layer_extra, "dynamic.scratch_fallbacks",
        static_cast<double>(b.scratch_fallbacks), "count", b.candidates.size());
}

Batch make_batch(Rng& rng, graph::VertexId n, std::size_t inserts,
                 std::size_t deletes, std::vector<graph::EdgeId>& live) {
  Batch b;
  b.insertions.reserve(inserts);
  for (std::size_t i = 0; i < inserts; ++i) b.insertions.push_back(random_edge(rng, n));
  deletes = std::min(deletes, live.size());
  b.deletions.reserve(deletes);
  for (std::size_t i = 0; i < deletes; ++i) {
    const std::size_t k = rng.next_below(live.size());
    b.deletions.push_back(live[k]);
    live[k] = live.back();
    live.pop_back();
  }
  std::sort(b.deletions.begin(), b.deletions.end());
  return b;
}

double timed_batch(dynamic::DynamicMsf& dyn, const Batch& b,
                   core::StepTimes* step, BatchBreakdown& out, Report& r) {
  if (step != nullptr) *step = {};
  dynamic::MsfDelta delta;
  bool ok = true;
  std::string why;
  const double ms = time_ms([&] {
    SpanScope s("dynamic.apply_batch", Tracer::instance().next_request());
    try {
      delta = dyn.apply_batch(b.insertions, b.deletions);
    } catch (const std::exception& e) {
      ok = false;
      why = std::string("apply_batch failed: ") + e.what();
    }
  });
  r.check(ok, why, false);
  if (!ok) return ms;
  const double solve_ms = step != nullptr ? step->total() * 1e3 : kNaN;
  if (b.deletions.empty()) {
    out.insert_ms.push_back(ms);
    out.insert_solve_ms.push_back(solve_ms);
  } else {
    out.mixed_ms.push_back(ms);
    out.mixed_solve_ms.push_back(solve_ms);
  }
  out.candidates.push_back(static_cast<double>(delta.candidate_edges));
  if (delta.recomputed_from_scratch) ++out.scratch_fallbacks;
  return ms;
}

void check_dynamic(const dynamic::DynamicMsf& dyn, Report& r,
                   const std::string& when) {
  std::vector<graph::EdgeId> ids;
  const graph::EdgeList live = dyn.store().live_graph(&ids);
  graph::MsfResult want = smp::seq::kruskal_msf(live);
  for (graph::EdgeId& e : want.edge_ids) e = ids[e];
  std::string why;
  const bool ok = same_forest(dyn.forest(), want, &why);
  r.check(ok, "dynamic forest " + when + ": " + why);
}

void run_probes(const ProbeInputs& in, Report& r) {
  const graph::EdgeList& g = *in.g;
  ThreadTeam& team = *in.team;
  SpanScope probes("harness.probes", Tracer::instance().next_request());

  // --- core: solve breakdown, builds, components --------------------------
  graph::MsfResult probe_forest;  ///< checked against Kruskal below
  double solve_ms = in.solve_ms;
  double solve_p1_ms = in.solve_p1_ms;
  if (!in.have_solve) {
    SolveBreakdown b;
    for (int i = 0; i < 3; ++i) probe_forest = instrumented_solve(team, g, b);
    const std::vector<double> p1 = repeat(3, 3.0, [&] {
      return time_ms([&] {
        SpanScope s("core.minimum_spanning_forest.p1");
        (void)core::minimum_spanning_forest(g);
      });
    });
    solve_ms = median(b.wall_ms);
    solve_p1_ms = median(p1);
    report_breakdown(r, b);
    r.add(r.layer_extra, "core.probe_solve_ms", solve_ms, "ms", b.wall_ms.size());
    r.add(r.layer_extra, "core.probe_solve_p1_ms", solve_p1_ms, "ms", p1.size());
  }

  std::vector<std::uint32_t> rank, rank_to_edge;
  const std::vector<double> rank_ms = repeat(3, 3.0, [&] {
    return time_ms([&] {
      SpanScope s("core.build_weight_ranks");
      rank = core::build_weight_ranks(team, g, &rank_to_edge);
    });
  });
  const std::vector<double> arc_ms = repeat(3, 3.0, [&] {
    std::vector<graph::EdgeId> offsets;
    std::unique_ptr<std::uint64_t[]> keys;
    return time_ms([&] {
      SpanScope s("core.build_packed_arcs");
      core::build_packed_arcs(g, g.num_vertices, rank, offsets, keys);
    });
  });
  r.add(r.layer, "core.rank_build_ms", median(rank_ms), "ms", rank_ms.size());
  r.add(r.layer, "core.arc_build_ms", median(arc_ms), "ms", arc_ms.size());
  r.add(r.layer, "core.unattributed_ms",
        unattributed_ms(layer_value(r, "core.other_ms"), median(rank_ms),
                        median(arc_ms)),
        "ms", std::min(rank_ms.size(), arc_ms.size()));
  rank = {};
  rank_to_edge = {};

  const std::vector<double> cc_ms = repeat(3, 3.0, [&] {
    return time_ms([&] {
      SpanScope s("core.connected_components");
      (void)core::connected_components(team, g);
    });
  });
  r.add(r.layer, "core.cc_ms", median(cc_ms), "ms", cc_ms.size());

  // --- seq: the three sequential baselines --------------------------------
  graph::MsfResult seq_forest;
  auto seq_probe = [&](const char* span, graph::MsfResult (*fn)(const graph::EdgeList&)) {
    return repeat(3, 3.0, [&] {
      return time_ms([&] {
        SpanScope s(span);
        seq_forest = fn(g);
      });
    });
  };
  const std::vector<double> kruskal = seq_probe("seq.kruskal_msf", smp::seq::kruskal_msf);
  if (!in.have_solve) {
    std::string why;
    r.check(same_forest(probe_forest, seq_forest, &why), "probe solve: " + why);
  }
  const std::vector<double> prim = seq_probe(
      "seq.prim_msf", static_cast<graph::MsfResult (*)(const graph::EdgeList&)>(
                          smp::seq::prim_msf));
  const std::vector<double> boruvka = seq_probe("seq.boruvka_msf", smp::seq::boruvka_msf);
  const double kruskal_ms = median(kruskal);
  r.add(r.layer, "seq.kruskal_ms", kruskal_ms, "ms", kruskal.size());
  r.add(r.layer, "seq.prim_ms", median(prim), "ms", prim.size());
  r.add(r.layer, "seq.boruvka_ms", median(boruvka), "ms", boruvka.size());
  r.add(r.layer_extra, "seq.kruskal_fastest",
        kruskal_ms <= std::min(median(prim), median(boruvka)) ? 1.0 : 0.0, "bool",
        1, "0 flags a faster sequential baseline than Kruskal");
  r.add(r.layer, "core.speedup_vs_seq", speedup(kruskal_ms, solve_ms), "ratio", 1,
        "seq.kruskal_ms / solve at p = nproc");
  r.add(r.layer, "core.scaling", scaling(solve_p1_ms, solve_ms), "ratio", 1,
        "solve at p = 1 / solve at p = nproc");

  // --- pprim: team spawn and an empty region ------------------------------
  const std::vector<double> spawn_us = repeat(20, 1.0, [&] {
    return 1e3 * time_ms([&] {
      SpanScope s("pprim.ThreadTeam");
      ThreadTeam t(team.size());
    });
  });
  r.add(r.layer, "pprim.team_spawn_us", median(spawn_us), "us", spawn_us.size());
  const std::vector<double> region_us = repeat(2000, 1.0, [&] {
    return 1e3 * time_ms([&] {
      SpanScope s("pprim.ThreadTeam.run");
      team.run([](smp::TeamCtx&) {});
    });
  });
  r.add(r.layer, "pprim.region_us", median(region_us), "us", region_us.size());

  // --- dynamic: batches, one-edge apply, live-graph copy ------------------
  core::StepTimes step;
  std::unique_ptr<dynamic::DynamicMsf> own;
  dynamic::DynamicMsf* dyn = in.dyn;
  if (dyn == nullptr) {
    dynamic::DynamicMsfOptions o;
    o.team = in.dyn_team;
    o.msf.threads = in.dyn_team->size();
    o.msf.step_times = &step;
    SpanScope s("dynamic.DynamicMsf");
    own = std::make_unique<dynamic::DynamicMsf>(g, o);
    dyn = own.get();
  }
  Rng rng(in.seed ^ 0x70726f6265ULL);
  const graph::VertexId n = dyn->store().num_vertices();
  if (!in.have_batches) {
    std::vector<graph::EdgeId> live(dyn->store().size());
    std::iota(live.begin(), live.end(), graph::EdgeId{0});
    BatchBreakdown bb;
    for (int i = 0; i < 6; ++i) {
      const bool mixed = i % 2 == 1;
      const graph::EdgeId first_new = dyn->store().size();
      const Batch b = make_batch(rng, n, mixed ? 512 : 1024, mixed ? 512 : 0, live);
      timed_batch(*dyn, b, &step, bb, r);
      for (std::size_t k = 0; k < b.insertions.size(); ++k) live.push_back(first_new + k);
    }
    report_batches(r, bb);
  }
  const std::vector<double> one_ms = repeat(9, 3.0, [&] {
    const graph::WEdge e = random_edge(rng, n);
    const graph::EdgeId id = dyn->store().size();
    const double ms = time_ms([&] {
      SpanScope s("dynamic.apply_batch.one");
      dyn->apply_batch(std::span<const graph::WEdge>(&e, 1), {});
    });
    dyn->apply_batch({}, std::span<const graph::EdgeId>(&id, 1));
    return ms;
  });
  r.add(r.layer, "dynamic.apply_one_ms", median(one_ms), "ms", one_ms.size());
  const std::vector<double> copy_ms = repeat(3, 2.0, [&] {
    return time_ms([&] {
      SpanScope s("dynamic.EdgeStore.live_graph");
      std::vector<graph::EdgeId> ids;
      (void)dyn->store().live_graph(&ids);
    });
  });
  r.add(r.layer, "dynamic.live_graph_ms", median(copy_ms), "ms", copy_ms.size());
  check_dynamic(*dyn, r, "after probes");

  // --- query: index build and path-max ------------------------------------
  std::unique_ptr<smp::query::ForestIndex> index;
  const std::vector<double> index_ms = repeat(3, 2.0, [&] {
    return time_ms([&] {
      SpanScope s("query.ForestIndex");
      index = std::make_unique<smp::query::ForestIndex>(
          *in.dyn_team, dyn->store(), dyn->forest_edge_ids(), 1);
    });
  });
  r.add(r.layer, "query.index_build_ms", median(index_ms), "ms", index_ms.size());
  std::vector<double> pm_us;
  pm_us.reserve(20000);
  std::size_t found = 0;
  for (int i = 0; i < 20000; ++i) {
    const graph::WEdge e = random_edge(rng, n);
    const Clock::time_point t0 = Clock::now();
    const smp::query::ForestIndex::PathMax pm = index->path_max(e.u, e.v);
    pm_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    found += pm.connected ? 1 : 0;
  }
  r.add(r.layer, "query.path_max_us", median(pm_us), "us", pm_us.size());
  r.add(r.layer_extra, "query.path_max_connected", ratio(double(found), 20000.0),
        "ratio", pm_us.size());
  index.reset();
  own.reset();

  // --- net: ping round trip over loopback TCP -----------------------------
  std::unique_ptr<serve::ServiceCore> own_svc;
  serve::ServiceCore* svc = in.svc;
  if (svc == nullptr) {
    serve::ServeOptions o;
    o.dispatchers = 1;
    own_svc = std::make_unique<serve::ServiceCore>(o);
    svc = own_svc.get();
  }
  smp::net::TcpServerOptions to;
  to.io_threads = 1;
  smp::net::TcpServer server(*svc, to);
  server.start();
  std::vector<double> rtt_us;
  {
    smp::net::TcpClient client("127.0.0.1", server.port());
    serve::Request ping;
    ping.op = serve::Op::kPing;
    for (int i = 0; i < 200; ++i) (void)client.call(ping);  // warm the path
    rtt_us = repeat(5000, 1.5, [&] {
      serve::Response resp;
      const double us = 1e3 * time_ms([&] {
        SpanScope s("net.TcpClient.call");
        resp = client.call(ping);
      });
      r.check(resp.ok(), "tcp ping: " + resp.detail, false);
      return us;
    });
  }
  server.stop();
  r.add(r.layer, "net.ping_rtt_us", median(rtt_us), "us", rtt_us.size());
}

}  // namespace perfbench
