#include "graph/exact_sum.hpp"
#include "graph/types.hpp"
#include "seq/indexed_heap.hpp"
#include "seq/seq_msf.hpp"

namespace smp::seq {

using graph::CsrGraph;
using graph::EdgeId;
using graph::EdgeList;
using graph::MsfResult;
using graph::VertexId;
using graph::Weight;
using graph::WeightOrder;

namespace {

/// Heap key for a fringe vertex: the best edge connecting it to the tree.
struct FringeKey {
  WeightOrder order;
  VertexId parent;

  friend bool operator<(const FringeKey& a, const FringeKey& b) {
    return a.order < b.order;
  }
};

}  // namespace

MsfResult prim_msf(const CsrGraph& g) {
  const VertexId n = g.num_vertices();
  MsfResult res;
  if (n == 0) return res;
  res.edges.reserve(n);
  res.edge_ids.reserve(n);

  std::vector<char> in_tree(n, 0);
  IndexedHeap<FringeKey> heap(n);

  for (VertexId start = 0; start < n; ++start) {
    if (in_tree[start]) continue;
    // Grow this component's tree from `start`.
    in_tree[start] = 1;
    heap.clear();
    VertexId current = start;
    for (;;) {
      const auto nbrs = g.neighbors(current);
      const auto ws = g.weights(current);
      const auto os = g.origs(current);
      for (std::size_t a = 0; a < nbrs.size(); ++a) {
        const VertexId t = nbrs[a];
        if (in_tree[t]) continue;
        heap.push_or_decrease(t, FringeKey{{ws[a], os[a]}, current});
      }
      if (heap.empty()) break;
      const auto top = heap.pop();
      in_tree[top.id] = 1;
      res.edges.push_back({top.key.parent, top.id, top.key.order.w});
      res.edge_ids.push_back(top.key.order.orig);
      current = top.id;
    }
  }
  res.total_weight = graph::exact_sum(res.edges, [](const graph::WEdge& e) { return e.w; });
  res.num_trees = n - res.edges.size();
  return res;
}

MsfResult prim_msf(const EdgeList& g) { return prim_msf(CsrGraph(g)); }

}  // namespace smp::seq
