// Fig. 2 of the paper: breakdown of the running time into the three Borůvka
// steps (find-min / connect-components / compact-graph) for Bor-EL, Bor-AL,
// Bor-ALM and Bor-FAL, on random graphs with fixed n and m = 4n, 6n, 10n,
// plus Champion and one m = 2n and one m = 64n block.
//
// The paper's claims to check:
//   * compact-graph dominates for Bor-EL and Bor-AL,
//   * Bor-EL is much slower than Bor-AL and degrades as density grows,
//   * Bor-FAL's compact-graph time is tiny and nearly independent of m,
//   * Bor-FAL's find-min grows with m, because the paper's rescans all m
//     edges each iteration.  This library's find-min walks rank-sorted
//     slices with one cursor per vertex instead, so its cost is O(n) per
//     iteration plus the 2m arcs the cursors step past once,
//   * connect-components is a small fraction everywhere.
//
// Also reports the fused-execution counters: iterations, SPMD regions, and
// regions per iteration (1.0 for the fused algorithms — each Borůvka
// iteration is one persistent region, not one fork/join per parallel loop),
// and how many arcs Bor-FAL's find-min cursors retired.  Every density block
// ends with a determinism check — the Bor-EL, Bor-FAL and Champion forests
// at p ∈ {1,2,4,8} must be bit-identical to sequential Kruskal's, on the
// block's graph and on the same graph with 8 weight classes; a mismatch
// aborts the bench.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/msf.hpp"
#include "graph/generators.hpp"
#include "pprim/rng.hpp"
#include "seq/seq_msf.hpp"

using namespace smp;
using namespace smp::graph;

namespace {

/// Sorted forest edge ids — the bit-identical-forest witness.
std::vector<EdgeId> sorted_ids(MsfResult r) {
  std::sort(r.edge_ids.begin(), r.edge_ids.end());
  return r.edge_ids;
}

std::vector<EdgeId> forest_ids(const EdgeList& g, core::Algorithm alg,
                               int threads) {
  core::MsfOptions opts;
  opts.algorithm = alg;
  opts.threads = threads;
  return sorted_ids(core::minimum_spanning_forest(g, opts));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const auto n = static_cast<VertexId>(args.size(100000, 1000000));
  bench::JsonSink sink;

  const core::Algorithm algs[] = {core::Algorithm::kBorEL, core::Algorithm::kBorAL,
                                  core::Algorithm::kBorALM, core::Algorithm::kBorFAL,
                                  core::Algorithm::kChampion};
  // m/n = 2 is below the light target's bend at 32/15, where Champion's
  // light set is 15/16 of the edges; m/n = 64 is the serving shape, where
  // it is 1/32.  Their rows and the forest check below cover Champion there.
  for (const int density : {2, 4, 6, 10, 64}) {
    const auto m = static_cast<EdgeId>(density) * n;
    const EdgeList g = random_graph(n, m, args.seed + static_cast<std::uint64_t>(density));
    bench::banner("Fig 2 / random", g);
    std::printf("  %-8s %10s %10s %10s %10s %10s %10s %10s %10s %10s %6s %8s\n",
                "alg", "find-min", "connect", "compact", "other", "(rank)",
                "(arcs)", "(assembly)", "(filter)", "total", "iters", "reg/iter");
    for (const auto alg : algs) {
      core::StepTimes best{};
      core::PhaseStats best_ps{};
      std::vector<core::IterationStat> best_iters;
      double best_total = 1e300;
      for (int r = 0; r < args.reps; ++r) {
        core::StepTimes st;
        core::PhaseStats ps;
        std::vector<core::IterationStat> iters;
        core::MsfOptions opts;
        opts.algorithm = alg;
        opts.threads = args.max_threads;
        opts.step_times = &st;
        opts.phase_stats = &ps;
        opts.iteration_stats = &iters;
        (void)core::minimum_spanning_forest(g, opts);
        if (st.total() < best_total) {
          best_total = st.total();
          best = st;
          best_ps = ps;
          best_iters = std::move(iters);
        }
      }
      const std::string name(core::to_string(alg));
      std::printf("  %-8s %9.3fs %9.3fs %9.3fs %9.3fs %9.3fs %9.3fs %9.3fs "
                  "%9.3fs %9.3fs %6llu %8.2f\n",
                  name.c_str(), best.find_min, best.connect, best.compact,
                  best.other, best.rank_build, best.arc_build, best.assembly,
                  best.filter, best.total(),
                  static_cast<unsigned long long>(best_ps.iterations),
                  best_ps.regions_per_iteration());
      double live_last = 1.0;
      if (!best_iters.empty()) live_last = best_iters.back().live_fraction;
      char buf[1024];
      std::snprintf(
          buf, sizeof buf,
          "{\"density\": %d, \"n\": %u, \"m\": %llu, \"alg\": \"%s\", "
          "\"threads\": %d, \"find_min\": %.6f, \"connect\": %.6f, "
          "\"compact\": %.6f, \"other\": %.6f, \"rank_build\": %.6f, "
          "\"arc_build\": %.6f, \"assembly\": %.6f, \"filter\": %.6f, "
          "\"total\": %.6f, "
          "\"iterations\": %llu, \"regions\": %llu, "
          "\"regions_per_iteration\": %.4f, "
          "\"find_min_pruned_arcs\": %llu, \"live_fraction_last\": %.4f}",
          density, g.num_vertices, static_cast<unsigned long long>(g.num_edges()),
          name.c_str(), args.max_threads, best.find_min, best.connect,
          best.compact, best.other, best.rank_build, best.arc_build,
          best.assembly, best.filter, best.total(),
          static_cast<unsigned long long>(best_ps.iterations),
          static_cast<unsigned long long>(best_ps.regions),
          best_ps.regions_per_iteration(),
          static_cast<unsigned long long>(best.pruned_arcs), live_last);
      sink.add(buf);
    }

    // Determinism gate: neither the packed find-min nor the thread count
    // may change the forest.  Compare Bor-EL, Bor-FAL and Champion at
    // p ∈ {1,2,4,8} against sequential Kruskal, an independent reference;
    // any drift is a correctness bug, so fail the whole bench rather than
    // record timings for a wrong answer.  The same graph with 8 weight
    // classes checks the tie-breaking paths: Champion's light buckets
    // then split at repeated splitters.
    EdgeList tied = g;
    Rng rng(args.seed ^ 0x7135ULL);
    for (WEdge& e : tied.edges) e.w = static_cast<double>(rng.next_below(8));
    for (const auto& [weights, input] :
         {std::pair<const char*, const EdgeList*>{"uniform", &g}, {"8-class", &tied}}) {
      const std::vector<EdgeId> ref = sorted_ids(seq::kruskal_msf(*input));
      int configs = 0;
      for (const auto alg : {core::Algorithm::kBorEL, core::Algorithm::kBorFAL,
                             core::Algorithm::kChampion}) {
        for (const int p : {1, 2, 4, 8}) {
          ++configs;
          if (forest_ids(*input, alg, p) != ref) {
            std::fprintf(stderr,
                         "FAIL: %s forest differs from Kruskal at p=%d "
                         "(density %d, %s weights)\n",
                         std::string(core::to_string(alg)).c_str(), p, density,
                         weights);
            return 1;
          }
        }
      }
      std::printf(
          "  forest identity, %s weights: OK (%d Bor-EL/Bor-FAL/Champion "
          "configs bit-identical to Kruskal)\n",
          weights, configs);
      char check[256];
      std::snprintf(check, sizeof check,
                    "{\"density\": %d, \"check\": \"forest_identity\", "
                    "\"weights\": \"%s\", "
                    "\"alg\": \"Bor-EL+Bor-FAL+Champion\", \"reference\": "
                    "\"Kruskal\", \"configs\": %d, \"forests_identical\": true}",
                    density, weights, configs);
      sink.add(check);
    }
    std::printf("\n");
  }
  sink.write("fig2_breakdown", args);
  return 0;
}
