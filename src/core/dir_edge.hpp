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

/// How compact-graph deduplicates the relabeled arc array.
///
/// kAuto packs ⟨u, v⟩ into one uint64_t and dispatches to the parallel LSD
/// radix sort whenever VertexId fits 32 bits (always, with the current
/// 32-bit VertexId), falling back to comparison sample sort otherwise.
/// kSample is the paper's compact (§2.1).  The explicit modes pin one path
/// for ablation benches; all modes keep exactly the lightest arc of every
/// ⟨u, v⟩ group under the WeightOrder total order, so every downstream
/// forest is bit-identical.
enum class CompactSortMode {
  kAuto,
  kRadix,
  kSample,
};

/// Sample-sort key for compact-graph: supervertex of the first endpoint is
/// the primary key, of the second endpoint the secondary key, and the edge
/// weight (with orig tie-break) the tertiary key (§2.1).
struct DirEdgeCompactLess {
  bool operator()(const DirEdge& a, const DirEdge& b) const {
    if (a.u != b.u) return a.u < b.u;
    if (a.v != b.v) return a.v < b.v;
    return a.order() < b.order();
  }
};

}  // namespace smp::core
