// Extension bench: the §3 hypothesis.  The paper's Table 1 analysis argues
// that excluding heavy edges early via the cycle property should pay off
// once m/n ≥ 2 ("more than half of the edges are not in the MST").
// Filter-Kruskal is that idea; this bench sweeps density and compares it
// with plain Kruskal and Borůvka.  The expected shape: the denser the graph,
// the larger Filter-Kruskal's win over Kruskal.
#include <cstdio>

#include "common.hpp"
#include "core/filter_kruskal.hpp"
#include "graph/generators.hpp"
#include "seq/seq_msf.hpp"

using namespace smp;
using namespace smp::graph;

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const auto n = static_cast<VertexId>(args.size(100000, 1000000));

  std::printf("%-10s %12s %12s %14s %14s %10s\n", "m/n", "Kruskal",
              "Boruvka", "FilterK(p=1)", "FilterK(p=4)", "K/FK1");
  for (const int density : {1, 2, 4, 8, 16, 32}) {
    const auto m = static_cast<EdgeId>(density) * n;
    const EdgeList g =
        random_graph(n, m, args.seed + static_cast<std::uint64_t>(density));
    const double tk =
        bench::time_best_of(args.reps, [&] { (void)seq::kruskal_msf(g); });
    const double tb =
        bench::time_best_of(args.reps, [&] { (void)seq::boruvka_msf(g); });
    const double tf1 =
        bench::time_best_of(args.reps, [&] { (void)core::filter_kruskal_msf(g, 1); });
    const double tf4 =
        bench::time_best_of(args.reps, [&] { (void)core::filter_kruskal_msf(g, 4); });
    std::printf("%-10d %11.3fs %11.3fs %13.3fs %13.3fs %9.2fx\n", density,
                tk, tb, tf1, tf4, tk / tf1);
  }
  return 0;
}
