#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "pprim/sample_sort.hpp"
#include "pprim/thread_team.hpp"

namespace smp::graph {

/// Flexible adjacency list (§2.3 of the paper).
///
/// Augments plain adjacency arrays by letting each *supervertex* hold a
/// linked list of adjacency arrays: contraction appends each member vertex's
/// original (immutable) adjacency array to its supervertex's list with O(1)
/// pointer operations, instead of sorting and copying edges.  Self-loops and
/// multi-edges are *not* removed — the find-min step filters them lazily
/// through the vertex → supervertex lookup table (`super_of`).
///
/// Because every original vertex contributes exactly one segment, the
/// segment list of a supervertex is simply the linked list of its member
/// vertices; each member's segment is its slice of the original CSR.
class FlexAdjList {
 public:
  /// Start state: every vertex is its own supervertex with one segment.
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
  /// Contraction itself never touches the set — segments stay keyed by
  /// original vertex.  FindMinMode::kScan ignores it.
  [[nodiscard]] std::span<EdgeId> live_ends() { return live_end_; }
  [[nodiscard]] std::span<const EdgeId> live_ends() const { return live_end_; }

  /// Directed arcs still live across all vertices (Σ slice lengths).
  [[nodiscard]] EdgeId live_arcs() const;

  /// Visit every member (original vertex) of supervertex `s`.
  template <class Fn>
  void for_each_member(VertexId s, Fn&& fn) const {
    for (VertexId x = head_[s]; x != kInvalidVertex; x = next_[x]) fn(x);
  }

  /// Number of members of supervertex `s` (walks the list; for tests).
  [[nodiscard]] std::size_t member_count(VertexId s) const;

  /// Team-shared scratch for the in-region `contract` overload.  Grow-only
  /// across Borůvka iterations (supervertex counts only shrink).
  struct ContractScratch {
    std::vector<VertexId> order;
    std::vector<VertexId> group_start;
    std::vector<VertexId> new_head;
    std::vector<VertexId> new_tail;
    SampleSortScratch<VertexId> sort;
    std::atomic<std::size_t> chain_cursor{0};
  };

  /// compact-graph: merge supervertices according to `new_label`, which maps
  /// every current supervertex id to its new dense id in [0, new_n).
  ///
  /// Cost per the paper: one parallel sort of the current supervertices (to
  /// group those merging together), O(current n) pointer appends, and the
  /// lookup-table update — no edge is touched or copied.
  void contract(ThreadTeam& team, std::span<const VertexId> new_label, VertexId new_n);

  /// In-region variant: all team threads call it inside an open SPMD region
  /// with identical arguments; synchronizes via ctx.barrier() only, and the
  /// trailing barrier publishes the contracted state to every thread.
  void contract(TeamCtx& ctx, std::span<const VertexId> new_label, VertexId new_n,
                ContractScratch& scratch);

 private:
  std::span<const EdgeId> offsets_;  // n + 1 adjacency offsets (not owned)
  VertexId num_super_;
  std::vector<VertexId> label_;  // per original vertex
  std::vector<VertexId> head_;   // per supervertex: first member
  std::vector<VertexId> tail_;   // per supervertex: last member
  std::vector<VertexId> next_;   // per original vertex: next member in list
  std::vector<EdgeId> live_end_;  // per original vertex: end of live prefix
};

}  // namespace smp::graph
