// Extension bench: connected components (the paper's §6 future work) —
// core::connected_components (a min-root union-find pass plus dense labels)
// versus the bare sequential union-find sweep, across input families.
#include <cstdio>

#include "common.hpp"
#include "core/connected_components.hpp"
#include "graph/generators.hpp"
#include "seq/union_find.hpp"

using namespace smp;
using namespace smp::graph;

namespace {

std::size_t seq_cc(const EdgeList& g) {
  seq::UnionFind uf(g.num_vertices);
  for (const auto& e : g.edges) uf.unite(e.u, e.v);
  return uf.num_sets();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const auto n = static_cast<VertexId>(args.size(200000, 1000000));
  const auto side = static_cast<VertexId>(args.size(450, 1000));

  struct Case {
    const char* name;
    EdgeList g;
  };
  const Case cases[] = {
      {"random m=2n", random_graph(n, 2 * static_cast<EdgeId>(n), args.seed)},
      {"random m=0.5n", random_graph(n, static_cast<EdgeId>(n) / 2, args.seed)},
      {"mesh2d60", mesh2d_p(side, side, 0.6, args.seed)},
      {"rmat m=4n", rmat_graph(18, 4ull << 18, args.seed)},
  };

  for (const auto& c : cases) {
    bench::banner(std::string("CC / ") + c.name, c.g);
    std::size_t comps = 0;
    const double ts = bench::time_best_of(args.reps, [&] { comps = seq_cc(c.g); });
    std::printf("  union-find (seq): %.3fs, %zu components\n", ts, comps);
    std::size_t cc = 0;
    const double tc = bench::time_best_of(args.reps, [&] {
      cc = core::connected_components(c.g).num_components;
    });
    std::printf("  core cc (labels):  %.3fs %5.2fx  (%zu components)\n", tc,
                ts / tc, cc);
    std::printf("\n");
  }
  return 0;
}
