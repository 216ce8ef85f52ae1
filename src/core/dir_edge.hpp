#pragma once

#include "graph/types.hpp"

namespace smp::core {

/// Internal directed edge record used by Bor-EL and by the contraction
/// cascades of MST-BC.  Each undirected edge appears twice, once per
/// direction, exactly as §2.1 of the paper describes.
struct DirEdge {
  graph::VertexId u;
  graph::VertexId v;
  graph::Weight w;
  graph::EdgeId orig;  ///< index of the undirected edge in the input list

  [[nodiscard]] graph::WeightOrder order() const { return {w, orig}; }
};

}  // namespace smp::core
