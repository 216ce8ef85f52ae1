// dynamic-batches: a random graph (n = 2^18, m = 4n) maintained by
// DynamicMsf on a persistent team of nproc threads, fed alternating
// insert-only batches (1024 fresh edges) and mixed batches (512 deletions of
// live ids plus 512 insertions).
//
// The stream is cut into epochs of 50 batches.  After each epoch the forest
// is checked against Kruskal of the live graph, and the DynamicMsf is rebuilt
// from the initial graph (untimed) and fed the same 50 batches again.  Every
// epoch does identical work, so a run's medians do not drift with how many
// batches a run of --seconds happens to reach.

#include "graph/generators.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

constexpr graph::VertexId kN = 1u << 18;
constexpr graph::EdgeId kM = 4ull * kN;
constexpr int kSetups = 7;  ///< timed set-ups on kSetupSeed
constexpr std::size_t kBatchEdges = 1024;
constexpr int kEpochBatches = 50;

struct Section {
  BatchBreakdown batches;
  double apply_s = 0;  ///< summed apply_batch time
  std::size_t updates = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

}  // namespace

Report run_dynamic_batches(const Args& a) {
  Report r;
  const int p = nproc();
  require_threads(p, "dynamic-batches");
  r.host = host_json({{"solve", p}, {"clients", 1}});
  ThreadTeam team(p);

  // The solver's step times are only asked for in a traced run: they are
  // fixed for a DynamicMsf's lifetime, so both halves of a traced run
  // carry that instrumentation.
  core::StepTimes step;
  dynamic::DynamicMsfOptions opts;
  opts.team = &team;
  opts.msf.threads = p;
  opts.msf.step_times = a.trace ? &step : nullptr;

  // Set-up: generate the graph and build the DynamicMsf (its first solve)
  // kSetups times from kSetupSeed (setup_s is the median), then once from the
  // run's seed, the state the batches run on.
  graph::EdgeList g;
  std::unique_ptr<dynamic::DynamicMsf> dyn;
  std::vector<double> setup_s, generate_s;
  for (int i = 0; i <= kSetups; ++i) {
    dyn.reset();
    g = {};
    setup_s.push_back(1e-3 * time_ms([&] {
      SpanScope s("harness.setup", Tracer::instance().next_request());
      generate_s.push_back(1e-3 * time_ms([&] {
        SpanScope gen("graph.random_graph");
        g = graph::random_graph(kN, kM, i < kSetups ? kSetupSeed : a.seed);
      }));
      SpanScope build("dynamic.DynamicMsf");
      dyn = std::make_unique<dynamic::DynamicMsf>(g, opts);
    }));
  }

  const double own_setup_s = setup_s.back();
  setup_s.pop_back();
  generate_s.pop_back();

  // The epoch's batches are generated once, from the seed; `live` mirrors
  // the store's live ids while generating.
  std::vector<Batch> epoch;
  {
    Rng rng(a.seed ^ 0x6261746368ULL);
    std::vector<graph::EdgeId> live(kM);
    for (graph::EdgeId i = 0; i < kM; ++i) live[i] = i;
    graph::EdgeId next_id = kM;
    for (int i = 0; i < kEpochBatches; ++i) {
      const bool mixed = i % 2 == 1;
      epoch.push_back(make_batch(rng, kN, mixed ? kBatchEdges / 2 : kBatchEdges,
                                 mixed ? kBatchEdges / 2 : 0, live));
      for (std::size_t k = 0; k < epoch.back().insertions.size(); ++k)
        live.push_back(next_id++);
    }
  }
  int applied = 0;

  auto run_section = [&](double seconds, bool traced) {
    Section sec;
    Tracer::instance().set_enabled(traced);
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    do {
      const Batch& b = epoch[applied % kEpochBatches];
      sec.apply_s += 1e-3 * timed_batch(*dyn, b, opts.msf.step_times, sec.batches, r);
      sec.updates += b.insertions.size() + b.deletions.size();
      if (++applied % kEpochBatches == 0) {
        check_dynamic(*dyn, r, "after batch " + std::to_string(applied));
        dyn.reset();
        dyn = std::make_unique<dynamic::DynamicMsf>(g, opts);
      }
    } while (std::chrono::duration<double>(Clock::now() - t0).count() < seconds);
    sec.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    sec.cpu_s = cpu_seconds() - cpu0;
    Tracer::instance().set_enabled(false);
    return sec;
  };

  const Section plain = run_section(a.trace ? a.seconds / 2 : a.seconds, false);
  const double insert_ms = median(plain.batches.insert_ms);
  const double mixed_ms = median(plain.batches.mixed_ms);
  const double updates_per_s = ratio(double(plain.updates), plain.apply_s);
  r.add(r.e2e, "setup_s", median(setup_s), "s", setup_s.size(),
        "random_graph(2^18, 4 * 2^18) + DynamicMsf first solve");
  r.add(r.detail, "setup_own_s", own_setup_s, "s", 1, "the same on the run's seed");
  r.add(r.e2e, "op_ms", insert_ms, "ms", plain.batches.insert_ms.size(),
        "= insert_batch_ms");
  r.add(r.e2e, "op2_ms", mixed_ms, "ms", plain.batches.mixed_ms.size(),
        "= mixed_batch_ms");
  r.add(r.e2e, "work_per_s", updates_per_s, "1/s", plain.batches.candidates.size(),
        "= updates_per_s");
  r.add(r.detail, "insert_batch_ms", insert_ms, "ms", plain.batches.insert_ms.size(),
        "apply_batch, 1024 insertions");
  r.add(r.detail, "mixed_batch_ms", mixed_ms, "ms", plain.batches.mixed_ms.size(),
        "apply_batch, 512 deletions + 512 insertions");
  r.add(r.detail, "updates_per_s", updates_per_s, "1/s",
        plain.batches.candidates.size(), "edge updates / summed apply time");

  if (a.trace) {
    const Section traced = run_section(a.seconds / 2, true);
    r.add(r.layer, "graph.generate_s", median(generate_s), "s", generate_s.size());
    report_batches(r, traced.batches);
    r.add(r.layer, "proc.cpu_busy_ratio",
          busy_ratio(plain.cpu_s, plain.wall_s, p), "ratio", 1);
    r.add(r.layer, "trace.overhead_pct",
          overhead_pct(median(traced.batches.insert_ms), insert_ms), "%",
          traced.batches.insert_ms.size(), "insert_batch_ms traced vs untraced half");
    Tracer::instance().set_enabled(true);
    ProbeInputs in;
    in.g = &g;
    in.team = &team;
    in.dyn_team = &team;
    in.dyn = dyn.get();
    in.seed = a.seed;
    in.have_batches = true;
    run_probes(in, r);
    Tracer::instance().set_enabled(false);
  }
  check_dynamic(*dyn, r, "at the end");
  r.add(r.e2e, "peak_rss_mb", peak_rss_mb(), "MB", 1);
  return r;
}

}  // namespace perfbench
