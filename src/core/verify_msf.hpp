#pragma once

#include <optional>
#include <span>
#include <string>

#include "graph/edge_list.hpp"
#include "graph/msf_result.hpp"
#include "graph/types.hpp"

namespace smp::core {

/// Maximum-weight edge on forest paths, answered in O(log n) after
/// O(n log n) preprocessing (binary lifting over rooted trees).
///
/// This is the core of MST *verification* by the cycle property: a spanning
/// forest F is minimum iff every non-forest edge e = (u,v) satisfies
/// order(e) > max-order edge on F's u–v path (with our strict total edge
/// order); verify_msf runs that check.
class ForestPathMax {
 public:
  /// Builds the structure over a forest on `n` vertices.  `edges[i]` must
  /// form a forest (no cycles); `ids[i]` is each edge's identity used in the
  /// WeightOrder tie-break.
  ForestPathMax(graph::VertexId n, std::span<const graph::WEdge> edges,
                std::span<const graph::EdgeId> ids);

  /// True if u and v are in the same tree.
  [[nodiscard]] bool connected(graph::VertexId u, graph::VertexId v) const {
    return comp_[u] == comp_[v] && comp_[u] != graph::kInvalidVertex;
  }

  /// The heaviest edge order on the tree path u..v, or nullopt when u and v
  /// lie in different trees (or u == v).
  [[nodiscard]] std::optional<graph::WeightOrder> path_max(graph::VertexId u,
                                                           graph::VertexId v) const;

 private:
  [[nodiscard]] graph::WeightOrder lift(graph::VertexId& v, std::uint32_t target_depth,
                                        graph::WeightOrder acc) const;

  std::vector<graph::VertexId> comp_;    // tree id (root) per vertex
  std::vector<std::uint32_t> depth_;
  int levels_ = 1;
  // up_[k*n + v] = 2^k-th ancestor; upmax_[k*n + v] = heaviest edge order on
  // the way there.  Roots point at themselves with a -inf order.
  std::vector<graph::VertexId> up_;
  std::vector<graph::WeightOrder> upmax_;
  std::size_t n_ = 0;
};

/// Full MSF verification in O(m log n): structural checks (membership,
/// acyclicity, maximality — via graph::validate_spanning_forest) plus the
/// cycle property for every non-forest edge.  Unlike
/// graph::verify_cut_property (O(m · t), test-sized inputs only), this runs
/// comfortably at the paper's 1M/20M scale.
bool verify_msf(const graph::EdgeList& g, const graph::MsfResult& msf,
                std::string* error = nullptr);

}  // namespace smp::core
