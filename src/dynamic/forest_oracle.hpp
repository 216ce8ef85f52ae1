#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/types.hpp"

namespace smp::dynamic {

/// Read-only topology of the forest DynamicMsf currently maintains, as an
/// Euler-tour index over it answers it.  apply_batch uses one to apply an
/// insert-only batch by path-max instead of a solve; query::ForestIndex
/// implements it, so `dynamic` needs no dependency on `query`.
///
/// The oracle must describe exactly the forest DynamicMsf holds when the
/// batch starts; apply_batch checks the edge count and otherwise trusts the
/// caller (the serving layer passes an index only when its version equals
/// the session's committed version).
class ForestOracle {
 public:
  virtual ~ForestOracle() = default;

  /// Forest edges the oracle was built over.
  [[nodiscard]] virtual std::size_t num_forest_edges() const = 0;
  /// Tree label of `v`: equal for two vertices iff a forest path joins them.
  [[nodiscard]] virtual graph::VertexId component(graph::VertexId v) const = 0;
  /// Preorder position of `v` in a DFS of its tree.
  [[nodiscard]] virtual std::uint32_t tin(graph::VertexId v) const = 0;
  /// Lowest common ancestor of two vertices of the same tree.
  [[nodiscard]] virtual graph::VertexId lca(graph::VertexId u,
                                            graph::VertexId v) const = 0;
  /// Store id of the ⟨weight, store-id⟩-maximal edge on the forest path
  /// between two distinct vertices of the same tree.
  [[nodiscard]] virtual graph::EdgeId bottleneck(graph::VertexId u,
                                                 graph::VertexId v) const = 0;

 protected:
  ForestOracle() = default;
  ForestOracle(const ForestOracle&) = default;
  ForestOracle(ForestOracle&&) = default;
  ForestOracle& operator=(const ForestOracle&) = default;
  ForestOracle& operator=(ForestOracle&&) = default;
};

}  // namespace smp::dynamic
