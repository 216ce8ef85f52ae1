#pragma once

// Shared plumbing of the three workloads: run arguments, the report every
// run prints, host facts, timing helpers, and the per-layer probes that run
// after the timed section of a traced run.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dynamic/dynamic_msf.hpp"
#include "graph/edge_list.hpp"
#include "graph/msf_result.hpp"
#include "pprim/rng.hpp"
#include "pprim/thread_team.hpp"
#include "serve/service_core.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using smp::Rng;
using smp::ThreadTeam;
namespace core = smp::core;
namespace dynamic = smp::dynamic;
namespace graph = smp::graph;
namespace serve = smp::serve;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< where a traced run writes spans and its table
};

struct Metric {
  std::string name;
  double value = kNaN;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  ///< what the figure is on this workload
};

/// Everything one run reports.  `e2e` holds the benchmark's end-to-end
/// metrics (the same names on every workload), `detail` the workload's own
/// figures under their workload-specific names, `layer` the traced run's
/// per-layer metrics (the same names on every workload) and `layer_extra`
/// the per-layer figures only this workload has.
struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> detail;
  std::vector<Metric> layer;
  std::vector<Metric> layer_extra;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed, rejected or wrong operations
  bool correct = true;       ///< false on any wrong forest
  std::vector<std::string> errors;
  std::string host;  ///< host_json() of the run

  void add(std::vector<Metric>& to, std::string name, double value,
           std::string unit, std::size_t samples, std::string note = {}) {
    to.push_back({std::move(name), value, std::move(unit), samples,
                  std::move(note)});
  }
  /// Counts one checked operation; a wrong answer also clears `correct`
  /// when `wrong_forest` (a non-ok response alone does not).
  void check(bool ok, const std::string& what, bool wrong_forest = true);
};

/// The value of per-layer metric `name` in `r`, NaN if not yet reported.
double layer_value(const Report& r, const std::string& name);

/// Available hardware threads (the affinity mask), the p of every
/// parallel run.
int nproc();

/// Throws when `threads` exceeds the available hardware threads: a run
/// oversubscribing cores measures the scheduler, not the library.
void require_threads(int threads, const char* what);

/// Host facts recorded with every result (machine profile, nproc, the
/// thread counts the workload asks for).
std::string host_json(const std::vector<std::pair<std::string, int>>& threads);

double peak_rss_mb();
/// User + system CPU seconds of the whole process so far.
double cpu_seconds();

/// Milliseconds `fn` took.
double time_ms(const std::function<void()>& fn);

/// True when `got` is the forest `want` (edge ids, tree count, weight up to
/// summation order).  On mismatch `why` says what differed.
bool same_forest(const graph::MsfResult& got, const graph::MsfResult& want,
                 std::string* why);

/// Repeats `fn` (which returns one sample) until `reps` samples or `budget_s`
/// seconds, whichever is first, with at least one sample.
std::vector<double> repeat(int reps, double budget_s,
                           const std::function<double()>& fn);

/// The per-layer probes every workload runs after its traced section, on the
/// workload's own graph `g`: sequential baselines, rank/arc builds, connected
/// components, team costs, the dynamic layer (on `dyn` if the workload has
/// one, else on a private DynamicMsf over `g`), the query index and a TCP
/// ping.  `team` is the workload's persistent team of nproc threads;
/// `dyn_team` the team the dynamic probe solves on.
struct ProbeInputs {
  const graph::EdgeList* g = nullptr;
  ThreadTeam* team = nullptr;
  ThreadTeam* dyn_team = nullptr;
  dynamic::DynamicMsf* dyn = nullptr;  ///< optional; probes then use it
  serve::ServiceCore* svc = nullptr;   ///< optional; the ping goes to it
  std::uint64_t seed = 0;
  /// Set when the workload measured these itself (static-random's traced
  /// section); otherwise the probe solves `g` and fills them.
  bool have_solve = false;
  double solve_ms = kNaN;
  double solve_p1_ms = kNaN;
  /// Set when the workload's own batches gave the dynamic.* batch figures.
  bool have_batches = false;
};

/// Per-solve figures of instrumented solves (wall time, StepTimes in ms,
/// PhaseStats, mean IterationStat live fraction), one entry per solve.
struct SolveBreakdown {
  std::vector<double> wall_ms, find_min_ms, connect_ms, compact_ms, other_ms;
  std::vector<double> iterations, regions_per_iteration, live_fraction;
};

/// Runs an instrumented solve of `g` on `team` and appends its figures.
graph::MsfResult instrumented_solve(ThreadTeam& team, const graph::EdgeList& g,
                                    SolveBreakdown& out);

/// Adds the core.* figures of `b` (medians) to `r.layer`.
void report_breakdown(Report& r, const SolveBreakdown& b);

/// Dynamic-batch figures: insert-only and mixed batches, split into the
/// candidate solve (StepTimes total) and the rest of apply_batch.
struct BatchBreakdown {
  std::vector<double> insert_ms, insert_solve_ms, mixed_ms, mixed_solve_ms;
  std::vector<double> candidates;
  std::size_t scratch_fallbacks = 0;
};
void report_batches(Report& r, const BatchBreakdown& b);

/// The seed of every timed set-up, the same in every run.  random_graph's
/// cost depends on its seed (its top-up sort of a nearly sorted key vector
/// takes 0.3-1.7 s on the static graph), so setup_s is the median over
/// repeated set-ups on this one seed.  A last set-up on the run's seed then
/// builds the state the run measures; its time is the setup_own_s row.
inline constexpr std::uint64_t kSetupSeed = 0x7365747570ULL;

/// A uniform random edge {u, v}, u != v, with a uniform weight in [0, 1).
graph::WEdge random_edge(Rng& rng, graph::VertexId n);

/// Generates one batch: `inserts` fresh random edges and `deletes` distinct
/// live ids drawn from (and removed from) `live`, which tracks the store's
/// live ids.  Everything comes from `rng`, so the seed fixes the stream.
struct Batch {
  std::vector<graph::WEdge> insertions;
  std::vector<graph::EdgeId> deletions;
};
Batch make_batch(Rng& rng, graph::VertexId n, std::size_t inserts,
                 std::size_t deletes, std::vector<graph::EdgeId>& live);

/// Applies one batch to `dyn` inside a span and records its time in `out`,
/// split into solve and rest when `step`, the StepTimes `dyn` was configured
/// with, is given.  Returns ms.
double timed_batch(dynamic::DynamicMsf& dyn, const Batch& b,
                   core::StepTimes* step, BatchBreakdown& out, Report& r);

/// Checks `dyn`'s forest against a from-scratch solve of its live graph.
void check_dynamic(const dynamic::DynamicMsf& dyn, Report& r,
                   const std::string& when);

void run_probes(const ProbeInputs& in, Report& r);

// --- the workloads --------------------------------------------------------

Report run_static_random(const Args& a);
Report run_dynamic_batches(const Args& a);
Report run_serve_rw(const Args& a);

}  // namespace perfbench
