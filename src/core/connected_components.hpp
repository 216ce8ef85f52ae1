#pragma once

#include <cstddef>
#include <vector>

#include "graph/edge_list.hpp"
#include "pprim/thread_team.hpp"

namespace smp::core {

/// Result of a connected-components computation.
struct CcResult {
  /// Dense component label in [0, num_components) per vertex.
  std::vector<graph::VertexId> label;
  std::size_t num_components = 0;
};

/// Connected components by union-find labelling — the paper lists
/// connected components as the natural next application of its SMP
/// techniques (§6).  One sequential pass over the edges plus one over the
/// vertices, however deep the trees are.  The inputs it serves are forests
/// and sparse graphs, on which a lock-free team union-find measured 0.3–0.65×
/// of this pass at p = 2–4, and hook-and-jump 0.2–0.7×.
///
/// Deterministic: unions hook the larger root under the smaller one, so
/// each component's root is its minimum vertex and the dense labels number
/// the components in order of their minimum vertex.
CcResult connected_components(const graph::EdgeList& g);

/// The same labelling; `team` is ignored.  Kept only because perfbench's
/// frozen `core.cc_ms` probe calls it.  ROADMAP item 1 deletes that probe,
/// and this overload goes with it.
CcResult connected_components(ThreadTeam& team, const graph::EdgeList& g);

}  // namespace smp::core
