#include "core/connected_components.hpp"

#include <utility>

#include "seq/union_find.hpp"

namespace smp::core {

using graph::EdgeList;
using graph::VertexId;

CcResult connected_components(const EdgeList& g, int /*threads*/) {
  // One pass over the edges with a min-root union-find, then one ascending
  // pass that numbers the roots: a root is its component's minimum vertex,
  // so it is numbered before any other member reads its label.
  seq::MinRootUnionFind uf(g.num_vertices);
  for (const auto& e : g.edges) uf.unite(e.u, e.v);
  CcResult res;
  res.label = std::move(uf).flatten();
  VertexId next = 0;
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    const VertexId root = res.label[v];
    res.label[v] = root == v ? next++ : res.label[root];
  }
  res.num_components = next;
  return res;
}

CcResult connected_components(ThreadTeam& /*team*/, const EdgeList& g) {
  return connected_components(g);
}

}  // namespace smp::core
