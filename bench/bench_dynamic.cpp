// Extension bench: batch-dynamic MSF maintenance versus from-scratch
// recomputation.  For each batch size B we replay K mixed update batches
// (half insertions, half deletions) through DynamicMsf and compare the
// amortised per-batch cost against one full solve of the final live graph —
// the cost a recompute-per-batch strategy would pay.  The crossover point
// (smallest B whose batches start falling back to scratch solves) is
// reported so docs/PERFORMANCE.md numbers can be regenerated.  Two more rows
// at B = 256 split the paths: deletion-only batches (replacements only) and
// insertion-only batches.  Then one-edge rows at n = 2^16, 2^18 and 2^20
// (times --scale), m = 4n, time single writes by kind and report the median:
// an insert that cannot enter the forest, one that must, and the delete of
// a forest edge.  Each record names its `mix`, the path most of its cut
// batches took to their replacement edges (`search` of the small pieces,
// `sweep` of every slot, or `none`), how many swept, and the medians of the
// arcs a search read, the pieces it named, the rounds it read in and the
// arcs of its largest exhausted piece, and the median count of crossing
// pairs (one record per pair of pieces) it handed the replacement solve;
// over its batches that took the Kruskal pass, the median forest edges the
// root-path walks gathered, the median and the largest count of compressed
// path records the pass sorted in their place; and the row's first batch
// (`first_batch_s`, which on a cut builds the incidence lists; the rooted
// forest is built with the DynamicMsf) apart from the mean of the rest
// (`steady_seconds_per_batch`).  Every row's final forest is checked
// bit-identical to a scratch solve.
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
/// one of the two; or, in a one-edge row, one insert that cannot enter the
/// forest, one that must, or the delete of one forest edge.
enum class Mix { kMixed, kDelete, kInsert, kOneNonTree, kOneForest, kOneTreeDelete };

const char* mix_name(Mix mix) {
  static constexpr const char* kNames[] = {
      "mixed", "delete", "insert", "one-nontree", "one-forest", "one-tree-delete"};
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

/// The one-edge batch of kind `mix` (k-th of its row): a heavier twin of a
/// random forest edge closes a 2-cycle it is the maximum of; an edge
/// lighter than every weight so far between two random vertices enters the
/// forest; a random forest edge is deleted.
Batch one_edge_batch(Mix mix, int k, const dynamic::DynamicMsf& d,
                     std::mt19937_64& rng) {
  Batch b;
  const std::vector<EdgeId>& forest = d.forest_edge_ids();
  const EdgeId f = forest[std::uniform_int_distribution<std::size_t>(
      0, forest.size() - 1)(rng)];
  if (mix == Mix::kOneNonTree) {
    const WEdge& e = d.store().edge(f);
    b.ins.push_back({e.u, e.v, 2.0});
  } else if (mix == Mix::kOneForest) {
    std::uniform_int_distribution<VertexId> vtx(0, d.store().num_vertices() - 1);
    VertexId u = vtx(rng), v = vtx(rng);
    while (v == u) v = vtx(rng);
    b.ins.push_back({u, v, -1.0 - k});
  } else {
    b.del.push_back(f);
  }
  return b;
}

/// The median of `v`, 0 when it is empty.
std::size_t median(std::vector<std::size_t>& v) {
  if (v.empty()) return 0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// What a row's batches did: how its cut batches found their replacements
/// (how many searched the small pieces and how many swept, and for each
/// search the arcs it read, the pieces it named, its rounds and the arcs of
/// its largest exhausted piece, and the crossing pairs it handed the
/// replacement solve), and, for each batch that took the Kruskal pass, the
/// forest edges its walks gathered and the path records it sorted.
struct Replacements {
  int searched = 0;
  int swept = 0;
  std::vector<std::size_t> arcs;
  std::vector<std::size_t> pieces;
  std::vector<std::size_t> rounds;
  std::vector<std::size_t> largest;
  std::vector<std::size_t> pairs;
  std::vector<std::size_t> gathered;
  std::vector<std::size_t> records;

  void add(const dynamic::MsfDelta& d) {
    // No oracle is passed, so a batch that decided something without a
    // scratch solve took the Kruskal pass.
    if (!d.recomputed_from_scratch && d.candidate_edges > 0) {
      gathered.push_back(d.gathered_edges);
      records.push_back(d.path_records);
    }
    if (d.replacement_path == dynamic::ReplacementPath::kNone) return;
    ++(d.replacement_path == dynamic::ReplacementPath::kSearch ? searched : swept);
    arcs.push_back(d.search_arcs);
    pieces.push_back(d.search_pieces);
    rounds.push_back(d.search_rounds);
    largest.push_back(d.largest_piece_arcs);
    pairs.push_back(d.crossing_pairs);
  }
  /// The path most of the row's cut batches took, or "none".
  [[nodiscard]] const char* path() const {
    return searched + swept == 0 ? "none" : searched >= swept ? "search" : "sweep";
  }
  /// The most path records one batch sorted.
  [[nodiscard]] std::size_t max_records() const {
    return records.empty() ? 0 : *std::max_element(records.begin(), records.end());
  }
};

/// Checks `d`'s forest against one parallel solve of its live graph, prints
/// the row and adds its record (n and m are those of `start`, the graph the
/// row started from, `per_batch` the row's reported time and `times` each
/// batch's, in order); false when the forests differ.
bool finish_row(bench::JsonSink& sink, const EdgeList& start,
                const dynamic::DynamicMsf& d, Mix mix,
                std::size_t batch_size, int batches, double per_batch,
                const std::vector<double>& times, int recomputed,
                Replacements& rep, const core::MsfOptions& sopts, int reps) {
  // The first batch builds the incidence lists on a cut; the rest are the
  // row's steady state.
  const double first = times.front();
  double steady = 0;
  for (std::size_t i = 1; i < times.size(); ++i) steady += times[i];
  if (times.size() > 1) steady /= static_cast<double>(times.size() - 1);
  // What recompute-per-batch would pay: one full parallel solve of the
  // final live graph, and the bit-identity check against the maintained
  // forest (the acceptance criterion, not just a sanity check).
  std::vector<EdgeId> ids;
  const EdgeList final_graph = d.store().live_graph(&ids);
  graph::MsfResult ref;
  const double scratch = bench::time_best_of(reps, [&] {
    ref = core::minimum_spanning_forest_of_candidates(final_graph, ids, sopts);
  });
  std::vector<EdgeId> ref_ids = ref.edge_ids;
  std::sort(ref_ids.begin(), ref_ids.end());
  const bool match = ref_ids == d.forest_edge_ids() &&
                     ref.total_weight == d.total_weight();

  const std::size_t arcs = median(rep.arcs);
  const std::size_t pieces = median(rep.pieces);
  const std::size_t rounds = median(rep.rounds);
  const std::size_t largest = median(rep.largest);
  const std::size_t pairs = median(rep.pairs);
  const std::size_t kruskal = rep.records.size();
  const std::size_t max_records = rep.max_records();
  const std::size_t gathered = median(rep.gathered);
  const std::size_t records = median(rep.records);
  std::printf("  %-15s %-8u %-6zu %11.6fs %10.6fs %10.6fs %13.6fs %8.2fx %4d/%-3d "
              "%6s %-6s %3d/%-3d %9zu %7zu %6zu %8zu %7zu %9zu %8zu\n",
              mix_name(mix), start.num_vertices, batch_size, per_batch, first,
              steady, scratch, scratch / per_batch, recomputed, batches,
              match ? "yes" : "NO", rep.path(), rep.swept, rep.searched + rep.swept,
              arcs, pieces, rounds, largest, pairs, gathered, records);
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"tag\": \"dynamic\", \"n\": %u, \"m\": %llu, "
                "\"mix\": \"%s\", \"batch_size\": %zu, \"batches\": %d, "
                "\"seconds_per_batch\": %.6f, \"first_batch_s\": %.6f, "
                "\"steady_seconds_per_batch\": %.6f, \"scratch_seconds\": %.6f, "
                "\"speedup_vs_scratch\": %.4f, \"recomputed\": %d, "
                "\"path\": \"%s\", \"searched\": %d, \"swept\": %d, "
                "\"search_arcs\": %zu, \"search_pieces\": %zu, "
                "\"search_rounds\": %zu, \"largest_piece_arcs\": %zu, "
                "\"crossing_pairs\": %zu, "
                "\"kruskal_batches\": %zu, "
                "\"gathered_edges\": %zu, \"path_records\": %zu, "
                "\"max_path_records\": %zu, \"match\": %s}",
                start.num_vertices,
                static_cast<unsigned long long>(start.num_edges()),
                mix_name(mix), batch_size, batches, per_batch, first, steady,
                scratch, scratch / per_batch, recomputed, rep.path(), rep.searched,
                rep.swept, arcs, pieces, rounds, largest, pairs, kruskal, gathered,
                records, max_records, match ? "true" : "false");
  sink.add(buf);
  if (!match) {
    std::fprintf(stderr, "FATAL: dynamic forest diverged at %s batch size %zu\n",
                 mix_name(mix), batch_size);
  }
  return match;
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
  std::printf("  %-15s %-8s %-6s %12s %11s %11s %14s %9s %8s %6s %-6s %7s %9s %7s %6s "
              "%8s %7s %9s %8s\n",
              "mix", "n", "batch", "s/batch", "first s", "steady s", "scratch s",
              "speedup", "scratch", "match", "path", "swept", "arcs", "pieces",
              "rounds", "largest", "pairs", "gathered", "records");
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
    std::vector<double> times;
    Replacements rep;
    for (int k = 0; k < kBatches; ++k) {
      const Batch b = make_batch(batch_size, mix, n, live,
                                 static_cast<EdgeId>(d.store().size()), rng);
      dynamic::MsfDelta delta;
      times.push_back(
          bench::time_best_of(1, [&] { delta = d.apply_batch(b.ins, b.del); }));
      dyn_seconds += times.back();
      recomputed += delta.recomputed_from_scratch;
      rep.add(delta);
    }
    if (mix == Mix::kMixed && recomputed > 0 && crossover == 0) {
      crossover = batch_size;
    }
    if (!finish_row(sink, base, d, mix, batch_size, kBatches, dyn_seconds / kBatches,
                    times, recomputed, rep, sopts, args.reps)) {
      return 1;
    }
  }

  // One-edge writes: the median of many single-edge batches per kind.  The
  // first tree-edge delete builds the incidence lists, and a delete whose
  // small side passes the search limit labels and sweeps, so tree-edge
  // deletes get fewer repetitions.
  for (const int lg : {16, 18, 20}) {
    const std::size_t full = std::size_t{1} << lg;
    const auto n1 = static_cast<VertexId>(std::max<std::size_t>(args.size(full, full), 16));
    const EdgeList g1 = random_graph(n1, 4 * static_cast<EdgeId>(n1), args.seed + lg);
    for (const Mix mix : {Mix::kOneNonTree, Mix::kOneForest, Mix::kOneTreeDelete}) {
      dynamic::DynamicMsf d(g1, dopts);
      std::mt19937_64 rng(args.seed ^ (static_cast<std::uint64_t>(mix) << 32) ^
                          static_cast<std::uint64_t>(lg));
      const int batches = mix == Mix::kOneTreeDelete ? 24 : 200;
      std::vector<double> times;
      int recomputed = 0;
      Replacements rep;
      for (int k = 0; k < batches; ++k) {
        const Batch b = one_edge_batch(mix, k, d, rng);
        dynamic::MsfDelta delta;
        times.push_back(
            bench::time_best_of(1, [&] { delta = d.apply_batch(b.ins, b.del); }));
        recomputed += delta.recomputed_from_scratch;
        rep.add(delta);
      }
      std::vector<double> ranked = times;
      std::nth_element(ranked.begin(), ranked.begin() + batches / 2, ranked.end());
      if (!finish_row(sink, g1, d, mix, 1, batches, ranked[batches / 2], times,
                      recomputed, rep, sopts, args.reps)) {
        return 1;
      }
    }
  }
  if (crossover != 0) {
    std::printf("  crossover to scratch recompute at batch size %zu\n", crossover);
  }
  sink.write("bench_dynamic", args);
  return 0;
}
