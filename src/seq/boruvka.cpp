#include <vector>

#include "graph/exact_sum.hpp"
#include "graph/types.hpp"
#include "seq/seq_msf.hpp"
#include "seq/union_find.hpp"

namespace smp::seq {

using graph::EdgeId;
using graph::EdgeList;
using graph::kInvalidEdge;
using graph::MsfResult;
using graph::VertexId;
using graph::WeightOrder;

MsfResult boruvka_msf(const EdgeList& g) {
  MsfResult res;
  const VertexId n = g.num_vertices;
  if (n == 0) return res;

  // Live edges as indices into g.edges; self-loops (within a component) are
  // filtered out after each iteration, so total work is O(m log n).
  std::vector<EdgeId> live(g.edges.size());
  for (EdgeId i = 0; i < g.edges.size(); ++i) live[i] = i;

  UnionFind uf(n);
  std::vector<EdgeId> best(n, kInvalidEdge);  // indexed by component root

  while (!live.empty()) {
    // find-min: cheapest edge leaving each component.
    bool any = false;
    for (const EdgeId i : live) {
      const auto& e = g.edges[i];
      const VertexId ru = uf.find(e.u);
      const VertexId rv = uf.find(e.v);
      if (ru == rv) continue;
      const WeightOrder key{e.w, i};
      for (const VertexId r : {ru, rv}) {
        if (best[r] == kInvalidEdge ||
            key < WeightOrder{g.edges[best[r]].w, best[r]}) {
          best[r] = i;
          any = true;
        }
      }
    }
    if (!any) break;

    // connect-components: contract every chosen edge.  Gather the chosen set
    // *before* uniting (roots move as unions happen); an edge chosen by both
    // endpoints' components is recorded once because the second unite fails.
    for (VertexId v = 0; v < n; ++v) {
      const EdgeId i = best[v];
      if (i == kInvalidEdge) continue;
      const auto& e = g.edges[i];
      if (uf.unite(e.u, e.v)) {
        res.edges.push_back(e);
        res.edge_ids.push_back(i);
      }
    }

    // compact-graph: drop intra-component edges; reset per-root candidates.
    std::vector<EdgeId> next;
    next.reserve(live.size());
    for (const EdgeId i : live) {
      const auto& e = g.edges[i];
      if (uf.find(e.u) != uf.find(e.v)) next.push_back(i);
    }
    live.swap(next);
    for (auto& b : best) b = kInvalidEdge;
  }

  res.total_weight = graph::exact_sum(res.edges, [](const graph::WEdge& e) { return e.w; });
  res.num_trees = n - res.edges.size();
  return res;
}

}  // namespace smp::seq
