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
/// solve; the structure adds only the vertex → supervertex lookup table
/// (`super_of`) and, for the packed find-min, the live-arc ends.  Self-loops
/// and multi-edges are *not* removed — find-min filters them lazily through
/// the lookup table.
///
/// §2.3 also gives each supervertex a linked list of its members' adjacency
/// arrays, built at compact-graph time by a sort of the supervertices plus
/// O(n) pointer appends, for a find-min that walks supervertices.  Ours walks
/// *original* vertices x and publishes into slot `super_of(x)`, so a member
/// list would have no reader: compact-graph here is the lookup-table update
/// alone.
class FlexAdjList {
 public:
  /// Start state: every vertex is its own supervertex.
  explicit FlexAdjList(const CsrGraph& csr);

  /// Same, from bare adjacency offsets (n + 1 entries, caller keeps them
  /// alive) — the packed find-min path carries targets inside its key array
  /// and never materializes a full CsrGraph.
  FlexAdjList(VertexId n, std::span<const EdgeId> offsets);

  [[nodiscard]] VertexId num_super() const { return num_super_; }

  /// Current supervertex of an original vertex (the lookup table).
  [[nodiscard]] VertexId super_of(VertexId orig) const { return label_[orig]; }
  [[nodiscard]] std::span<const VertexId> labels() const { return label_; }
  /// Moves the lookup table out (the structure is spent afterwards).
  [[nodiscard]] std::vector<VertexId> release_labels() { return std::move(label_); }

  /// Live-arc working set (packed-key find-min acceleration): for each
  /// original vertex x, only the arc slots in [csr.offsets()[x],
  /// live_ends()[x]) can still connect x's supervertex to another one.
  /// Initialized to the full slice; find-min block-compacts arcs out of the
  /// prefix once the labels prove them permanent supervertex self-loops
  /// (contraction only ever merges supervertices, so a dead arc stays dead).
  /// Contraction itself never touches the set — slices stay keyed by
  /// original vertex.  FindMinMode::kScan ignores it.
  [[nodiscard]] std::span<EdgeId> live_ends() { return live_end_; }
  [[nodiscard]] std::span<const EdgeId> live_ends() const { return live_end_; }

  /// Directed arcs still live across all vertices (Σ slice lengths).
  [[nodiscard]] EdgeId live_arcs() const;

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
  std::span<const EdgeId> offsets_;  // n + 1 adjacency offsets (not owned)
  VertexId num_super_;
  std::vector<VertexId> label_;  // per original vertex
  std::vector<EdgeId> live_end_;  // per original vertex: end of live prefix
};

}  // namespace smp::graph
