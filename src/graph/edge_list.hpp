#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "graph/exact_sum.hpp"
#include "graph/types.hpp"

namespace smp::graph {

/// An undirected weighted graph as a flat list of edges (each stored once).
///
/// This is the neutral interchange representation: generators produce it,
/// the public MSF API consumes it, and the algorithms build their own
/// internal representations (directed edge list, adjacency arrays, flexible
/// adjacency list) from it.
struct EdgeList {
  VertexId num_vertices = 0;
  std::vector<WEdge> edges;

  EdgeList() = default;
  explicit EdgeList(VertexId n) : num_vertices(n) {}

  [[nodiscard]] EdgeId num_edges() const { return edges.size(); }

  void add_edge(VertexId u, VertexId v, Weight w) {
    assert(u < num_vertices && v < num_vertices && u != v);
    edges.push_back(WEdge{u, v, w});
  }

  /// Sum of every edge weight, exactly rounded (see ExactSum).
  [[nodiscard]] Weight total_weight() const {
    return exact_sum(edges, [](const WEdge& e) { return e.w; });
  }
};

}  // namespace smp::graph
