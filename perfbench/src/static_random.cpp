// static-random: the paper's setting.  One uniform random graph
// (n = 2^20, m = 10n) solved over and over with the default algorithm, at
// p = nproc on a persistent team and at p = 1, each forest checked against
// sequential Kruskal.

#include "core/msf.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "seq/seq_msf.hpp"

namespace perfbench {

namespace {

constexpr graph::VertexId kN = 1u << 20;
constexpr graph::EdgeId kM = 10ull * kN;
constexpr int kSetups = 5;  ///< timed set-ups on kSetupSeed

struct Section {
  std::vector<double> pn_ms, p1_ms;
  SolveBreakdown breakdown;  ///< filled only when traced
  double wall_s = 0;
  double cpu_s = 0;
};

}  // namespace

Report run_static_random(const Args& a) {
  Report r;
  const int p = nproc();
  require_threads(p, "static-random");
  r.host = host_json({{"solve_pn", p}, {"solve_p1", 1}, {"clients", 1}});
  ThreadTeam team(p);

  // Set-up: generate the graph kSetups times from kSetupSeed (setup_s is the
  // median), then once from the run's seed, the graph the run solves.
  graph::EdgeList g;
  std::vector<double> setup_s;
  for (int i = 0; i <= kSetups; ++i) {
    g = {};
    setup_s.push_back(1e-3 * time_ms([&] {
      SpanScope s("harness.setup", Tracer::instance().next_request());
      SpanScope gen("graph.random_graph");
      g = graph::random_graph(kN, kM, i < kSetups ? kSetupSeed : a.seed);
    }));
  }

  const double own_setup_s = setup_s.back();
  setup_s.pop_back();

  graph::MsfResult want;
  {
    SpanScope s("seq.kruskal_msf.reference", Tracer::instance().next_request());
    want = smp::seq::kruskal_msf(g);
  }
  auto check = [&](const graph::MsfResult& got, const char* what) {
    std::string why;
    const bool ok = same_forest(got, want, &why);
    r.check(ok, std::string(what) + ": " + why);
  };
  check(core::minimum_spanning_forest(team, g), "warm-up solve");

  auto run_section = [&](double seconds, bool traced) {
    Section sec;
    Tracer::instance().set_enabled(traced);
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    do {
      const std::uint64_t req = Tracer::instance().next_request();
      graph::MsfResult res;
      if (traced) {
        SpanScope s("harness.solve_pn", req);
        res = instrumented_solve(team, g, sec.breakdown);
        sec.pn_ms.push_back(sec.breakdown.wall_ms.back());
      } else {
        sec.pn_ms.push_back(time_ms([&] { res = core::minimum_spanning_forest(team, g); }));
      }
      check(res, "solve at p = nproc");
      sec.p1_ms.push_back(time_ms([&] {
        SpanScope s("core.minimum_spanning_forest.p1", req);
        res = core::minimum_spanning_forest(g);
      }));
      check(res, "solve at p = 1");
    } while (std::chrono::duration<double>(Clock::now() - t0).count() < seconds);
    sec.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    sec.cpu_s = cpu_seconds() - cpu0;
    Tracer::instance().set_enabled(false);
    return sec;
  };

  // A traced run measures half its time untraced (the reference for the
  // tracing overhead) and half traced.
  const Section plain = run_section(a.trace ? a.seconds / 2 : a.seconds, false);
  const double solve_ms = median(plain.pn_ms);
  const double solve_p1_ms = median(plain.p1_ms);
  double solved_ms = 0;
  for (const double ms : plain.pn_ms) solved_ms += ms;
  for (const double ms : plain.p1_ms) solved_ms += ms;
  const std::size_t solves = plain.pn_ms.size() + plain.p1_ms.size();

  r.add(r.e2e, "setup_s", median(setup_s), "s", setup_s.size(),
        "graph::random_graph(2^20, 10 * 2^20)");
  r.add(r.detail, "setup_own_s", own_setup_s, "s", 1, "the same on the run's seed");
  r.add(r.e2e, "op_ms", solve_ms, "ms", plain.pn_ms.size(), "= solve_ms");
  r.add(r.e2e, "op2_ms", solve_p1_ms, "ms", plain.p1_ms.size(), "= solve_p1_ms");
  r.add(r.e2e, "work_per_s", ratio(double(kM) * double(solves), 1e-3 * solved_ms),
        "1/s", solves, "input edges solved per second, both p");
  r.add(r.detail, "solve_ms", solve_ms, "ms", plain.pn_ms.size(),
        "core::minimum_spanning_forest, p = nproc, persistent team");
  r.add(r.detail, "solve_p1_ms", solve_p1_ms, "ms", plain.p1_ms.size(),
        "core::minimum_spanning_forest, p = 1");

  if (a.trace) {
    const Section traced = run_section(a.seconds / 2, true);
    r.add(r.layer, "graph.generate_s", median(setup_s), "s", setup_s.size());
    report_breakdown(r, traced.breakdown);
    r.add(r.layer, "proc.cpu_busy_ratio",
          busy_ratio(plain.cpu_s, plain.wall_s, p), "ratio", 1);
    r.add(r.layer, "trace.overhead_pct",
          overhead_pct(median(traced.pn_ms), solve_ms), "%", traced.pn_ms.size(),
          "solve_ms traced vs untraced half");
    Tracer::instance().set_enabled(true);
    ProbeInputs in;
    in.g = &g;
    in.team = &team;
    in.dyn_team = &team;
    in.seed = a.seed;
    in.have_solve = true;
    in.solve_ms = solve_ms;
    in.solve_p1_ms = solve_p1_ms;
    run_probes(in, r);
    Tracer::instance().set_enabled(false);
  }
  r.add(r.e2e, "peak_rss_mb", peak_rss_mb(), "MB", 1);
  return r;
}

}  // namespace perfbench
