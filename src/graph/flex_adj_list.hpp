#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "pprim/thread_team.hpp"

namespace smp::graph {

/// Flexible adjacency list (§2.3 of the paper).
///
/// The original (immutable) adjacency arrays stay in place for the whole
/// solve, owned by the caller; the structure is the vertex → supervertex
/// lookup table (`super_of`) alone.  Self-loops and multi-edges are *not*
/// removed — find-min filters them lazily through the lookup table (the
/// packed find-min's per-vertex cursors live in its own loop).
///
/// §2.3 also gives each supervertex a linked list of its members' adjacency
/// arrays, built at compact-graph time by a sort of the supervertices plus
/// O(n) pointer appends, for a find-min that walks supervertices.  Ours walks
/// *original* vertices x and publishes into slot `super_of(x)`, so a member
/// list would have no reader: compact-graph here is the lookup-table update
/// alone.
class FlexAdjList {
 public:
  /// Start state: every one of the n vertices is its own supervertex.
  explicit FlexAdjList(VertexId n);
  explicit FlexAdjList(const CsrGraph& csr) : FlexAdjList(csr.num_vertices()) {}

  [[nodiscard]] VertexId num_super() const { return num_super_; }

  /// Current supervertex of an original vertex (the lookup table).
  [[nodiscard]] VertexId super_of(VertexId orig) const { return label_[orig]; }
  [[nodiscard]] std::span<const VertexId> labels() const { return label_; }

  /// compact-graph: merge supervertices according to `new_label`, which maps
  /// every current supervertex id to its new dense id in [0, new_n).  One
  /// pass over the original vertices, `label[x] = new_label[label[x]]`, with
  /// no sort and no pointer appends (see the class comment) — no edge is
  /// touched or copied.
  void contract(ThreadTeam& team, std::span<const VertexId> new_label, VertexId new_n);

  /// In-region variant: all team threads call it inside an open SPMD region
  /// with identical arguments, after a barrier that published `new_label`
  /// and retired every read of the old labels; the trailing barrier
  /// publishes the contracted state to every thread.
  void contract(TeamCtx& ctx, std::span<const VertexId> new_label, VertexId new_n);

 private:
  VertexId num_super_;
  std::vector<VertexId> label_;  // per original vertex
};

}  // namespace smp::graph
