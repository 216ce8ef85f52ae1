#include <algorithm>
#include <vector>

#include "core/msf.hpp"
#include "graph/types.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/sample_sort.hpp"
#include "pprim/timer.hpp"
#include "seq/union_find.hpp"

namespace smp::core {

using graph::EdgeId;
using graph::EdgeList;
using graph::MsfResult;
using graph::Weight;
using graph::WeightOrder;

namespace {

struct SortRec {
  Weight w;
  EdgeId id;
};

constexpr std::size_t kSweepCheck = std::size_t{1} << 16;

}  // namespace

/// Parallel-sort Kruskal: the sort — Kruskal's asymptotic bottleneck — runs
/// on the team via sample sort; the union-find sweep stays sequential but
/// usually stops long before exhausting the sorted array (once a spanning
/// tree per component is complete).  Amdahl caps the speedup well below the
/// Borůvka variants', which is exactly why the paper engineers those.
MsfResult par_kruskal_msf(ThreadTeam& team, const EdgeList& g, const MsfOptions& opts) {
  StepTimes st;
  WallTimer phase;
  const std::size_t m = g.edges.size();

  std::vector<SortRec> order(m);
  parallel_for(team, m, [&](std::size_t i) {
    order[i] = {g.edges[i].w, i};
  });
  sample_sort(team, order, [](const SortRec& a, const SortRec& b) {
    return WeightOrder{a.w, a.id} < WeightOrder{b.w, b.id};
  });
  st.compact += phase.elapsed_s();  // the sort is this algorithm's "compact"

  phase.reset();
  MsfResult res;
  seq::UnionFind uf(g.num_vertices);
  for (std::size_t i = 0; i < m; ++i) {
    // The sweep is this algorithm's one long sequential round: check the
    // budget as it starts and every kSweepCheck edges after.
    if (i % kSweepCheck == 0) iteration_checkpoint(opts, "Par-Kruskal sweep");
    const SortRec& r = order[i];
    const auto& e = g.edges[r.id];
    if (uf.unite(e.u, e.v)) {
      res.edges.push_back(e);
      res.edge_ids.push_back(r.id);
      res.total_weight += e.w;
      if (uf.num_sets() == 1) break;
    }
  }
  res.num_trees = g.num_vertices - res.edges.size();
  st.find_min += phase.elapsed_s();
  if (opts.step_times) *opts.step_times += st;
  return res;
}

}  // namespace smp::core
