#include "core/connected_components.hpp"

#include <utility>

#include "seq/union_find.hpp"

namespace smp::core {

using graph::EdgeList;

CcResult connected_components(const EdgeList& g) {
  seq::MinRootUnionFind uf(g.num_vertices);
  std::size_t unites = 0;
  for (const auto& e : g.edges) unites += uf.unite(e.u, e.v) ? 1 : 0;
  CcResult res;
  res.label = std::move(uf).dense_labels();
  res.num_components = g.num_vertices - unites;
  return res;
}

CcResult connected_components(ThreadTeam& /*team*/, const EdgeList& g) {
  return connected_components(g);
}

}  // namespace smp::core
