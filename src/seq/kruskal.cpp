#include <vector>

#include "graph/exact_sum.hpp"
#include "graph/types.hpp"
#include "pprim/seq_sort.hpp"
#include "seq/seq_msf.hpp"
#include "seq/union_find.hpp"

namespace smp::seq {

using graph::EdgeId;
using graph::EdgeList;
using graph::MsfResult;
using graph::Weight;
using graph::WeightOrder;

namespace {

/// Compact sort record: weight + edge index.  Sorting these directly (rather
/// than indices with indirect weight lookups) keeps the merge passes
/// sequential in memory — the kind of cache consideration the paper's
/// algorithm engineering is about.
struct SortRec {
  Weight w;
  EdgeId id;
};

}  // namespace

MsfResult kruskal_msf(const EdgeList& g) {
  MsfResult res;
  const std::size_t m = g.edges.size();

  // Non-recursive bottom-up merge sort — the paper found it superior to
  // qsort, GNU quicksort and recursive merge sort for large inputs (§5.2).
  std::vector<SortRec> order(m);
  for (EdgeId i = 0; i < m; ++i) order[i] = {g.edges[i].w, i};
  std::vector<SortRec> scratch(m);
  merge_sort_bottomup(std::span<SortRec>(order), std::span<SortRec>(scratch),
                      [](const SortRec& a, const SortRec& b) {
                        return WeightOrder{a.w, a.id} < WeightOrder{b.w, b.id};
                      });

  UnionFind uf(g.num_vertices);
  for (const SortRec& r : order) {
    const auto& e = g.edges[r.id];
    if (uf.unite(e.u, e.v)) {
      res.edges.push_back(e);
      res.edge_ids.push_back(r.id);
      if (uf.num_sets() == 1) break;  // spanning tree complete
    }
  }
  res.total_weight = graph::exact_sum(res.edges, [](const graph::WEdge& e) { return e.w; });
  res.num_trees = g.num_vertices - res.edges.size();
  return res;
}

}  // namespace smp::seq
