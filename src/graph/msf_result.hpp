#pragma once

#include <cstddef>
#include <vector>

#include "graph/types.hpp"

namespace smp::graph {

/// Output of every MSF algorithm in this repo, sequential or parallel.
///
/// Because all algorithms share one total order on edges (WeightOrder: weight
/// with input-edge-index tie-break), the minimum spanning forest is unique
/// and `edge_ids` — sorted — must be *identical* across algorithms.  The test
/// suite checks exactly that.
struct MsfResult {
  /// Forest edges, endpoints in the caller's vertex ids.
  std::vector<WEdge> edges;
  /// For each forest edge, the index of the matching edge in the input
  /// EdgeList::edges (parallel to `edges`).
  std::vector<EdgeId> edge_ids;
  /// Sum of forest edge weights, exactly rounded (graph::ExactSum): the
  /// same bits for the same forest, whatever the solver.
  Weight total_weight = 0;
  /// Number of trees = number of connected components of the input
  /// (isolated vertices count as single-vertex trees).
  std::size_t num_trees = 0;
  /// True when the dispatcher degraded a failing parallel run to sequential
  /// Kruskal (see MsfOptions::allow_sequential_fallback); benches and the
  /// CLI report it so degraded timings are never mistaken for parallel ones.
  bool degraded_to_sequential = false;
};

}  // namespace smp::graph
