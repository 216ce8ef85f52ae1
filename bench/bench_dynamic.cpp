// Extension bench: batch-dynamic MSF maintenance versus from-scratch
// recomputation.  For each batch size B we replay K mixed update batches
// (half insertions, half deletions) through DynamicMsf and compare the
// amortised per-batch cost against one full solve of the final live graph —
// the cost a recompute-per-batch strategy would pay.  The crossover point
// (smallest B whose batches start falling back to scratch solves) is
// reported so docs/PERFORMANCE.md numbers can be regenerated.  Two more rows
// at B = 256 split the paths: deletion-only batches (replacements only) and
// insertion-only batches; each record names its `mix`.
#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "common.hpp"
#include "core/msf.hpp"
#include "dynamic/dynamic_msf.hpp"
#include "graph/generators.hpp"

using namespace smp;
using namespace smp::graph;

namespace {

struct Batch {
  std::vector<WEdge> ins;
  std::vector<EdgeId> del;
};

/// What a row's batches hold: half deletions and half insertions, or only
/// one of the two.
enum class Mix { kMixed, kDelete, kInsert };

const char* mix_name(Mix mix) {
  static constexpr const char* kNames[] = {"mixed", "delete", "insert"};
  return kNames[static_cast<int>(mix)];
}

/// Builds one deterministic batch of `ops` updates: deletions drawn from the
/// currently-live ids (half of them for kMixed, all for kDelete) and the
/// remainder fresh random insertions.  `live` is kept in sync so successive
/// batches see the post-update id population.
Batch make_batch(std::size_t ops, Mix mix, VertexId n,
                 std::vector<EdgeId>& live, EdgeId next_id,
                 std::mt19937_64& rng) {
  Batch b;
  std::uniform_int_distribution<VertexId> vtx(0, n - 1);
  std::uniform_real_distribution<double> wgt(0.0, 1.0);
  const std::size_t want = mix == Mix::kMixed    ? ops / 2
                           : mix == Mix::kDelete ? ops
                                                 : 0;
  std::size_t dels = std::min(want, live.size() > 1 ? live.size() - 1 : 0);
  for (std::size_t i = 0; i < dels; ++i) {
    std::uniform_int_distribution<std::size_t> pick(0, live.size() - 1);
    const std::size_t j = pick(rng);
    b.del.push_back(live[j]);
    live[j] = live.back();
    live.pop_back();
  }
  std::sort(b.del.begin(), b.del.end());
  for (std::size_t i = dels; i < ops; ++i) {
    VertexId u = vtx(rng), v = vtx(rng);
    while (v == u) v = vtx(rng);
    b.ins.push_back({u, v, wgt(rng)});
    live.push_back(next_id++);
  }
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const auto n = static_cast<VertexId>(args.size(1000000, 1000000));
  const auto m = static_cast<EdgeId>(4 * static_cast<EdgeId>(n));
  const EdgeList base = random_graph(n, m, args.seed);
  bench::banner("dynamic MSF / random", base);

  dynamic::DynamicMsfOptions dopts;
  dopts.msf.threads = args.max_threads;
  dopts.msf.seed = args.seed;
  core::MsfOptions sopts = dopts.msf;

  bench::JsonSink sink;
  constexpr int kBatches = 8;
  std::size_t crossover = 0;
  std::printf("  %-7s %-10s %12s %14s %9s %7s %6s\n", "mix", "batch",
              "s/batch", "scratch s", "speedup", "scratch", "match");
  struct Row {
    Mix mix;
    std::size_t batch_size;
  };
  for (const auto [mix, batch_size] :
       {Row{Mix::kMixed, 1}, Row{Mix::kMixed, 16}, Row{Mix::kMixed, 256},
        Row{Mix::kMixed, 4096}, Row{Mix::kMixed, 65536},
        Row{Mix::kDelete, 256}, Row{Mix::kInsert, 256}}) {
    dynamic::DynamicMsf d(base, dopts);
    std::vector<EdgeId> live(base.num_edges());
    for (EdgeId i = 0; i < base.num_edges(); ++i) live[i] = i;
    std::mt19937_64 rng(args.seed ^ batch_size ^
                        (static_cast<std::uint64_t>(mix) << 32));

    int recomputed = 0;
    double dyn_seconds = 0;
    for (int k = 0; k < kBatches; ++k) {
      const Batch b = make_batch(batch_size, mix, n, live,
                                 static_cast<EdgeId>(d.store().size()), rng);
      const double t = bench::time_best_of(
          1, [&] { recomputed += d.apply_batch(b.ins, b.del).recomputed_from_scratch; });
      dyn_seconds += t;
    }
    const double per_batch = dyn_seconds / kBatches;

    // What recompute-per-batch would pay: one full parallel solve of the
    // final live graph, and the bit-identity check against the maintained
    // forest (the acceptance criterion, not just a sanity check).
    std::vector<EdgeId> ids;
    const EdgeList final_graph = d.store().live_graph(&ids);
    graph::MsfResult ref;
    const double scratch = bench::time_best_of(args.reps, [&] {
      ref = core::minimum_spanning_forest_of_candidates(final_graph, ids, sopts);
    });
    std::vector<EdgeId> ref_ids = ref.edge_ids;
    std::sort(ref_ids.begin(), ref_ids.end());
    const bool match = ref_ids == d.forest_edge_ids() &&
                       ref.total_weight == d.total_weight();
    if (mix == Mix::kMixed && recomputed > 0 && crossover == 0) {
      crossover = batch_size;
    }

    std::printf("  %-7s %-10zu %11.6fs %13.6fs %8.2fx %4d/%-2d %6s\n",
                mix_name(mix), batch_size, per_batch, scratch,
                scratch / per_batch, recomputed, kBatches, match ? "yes" : "NO");
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"tag\": \"dynamic\", \"n\": %u, \"m\": %llu, "
                  "\"mix\": \"%s\", \"batch_size\": %zu, \"batches\": %d, "
                  "\"seconds_per_batch\": %.6f, \"scratch_seconds\": %.6f, "
                  "\"speedup_vs_scratch\": %.4f, \"recomputed\": %d, "
                  "\"match\": %s}",
                  base.num_vertices,
                  static_cast<unsigned long long>(base.num_edges()),
                  mix_name(mix), batch_size,
                  kBatches, per_batch, scratch, scratch / per_batch, recomputed,
                  match ? "true" : "false");
    sink.add(buf);
    if (!match) {
      std::fprintf(stderr,
                   "FATAL: dynamic forest diverged at %s batch size %zu\n",
                   mix_name(mix), batch_size);
      return 1;
    }
  }
  if (crossover != 0) {
    std::printf("  crossover to scratch recompute at batch size %zu\n", crossover);
  }
  sink.write("bench_dynamic", args);
  return 0;
}
