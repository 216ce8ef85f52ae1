#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"

namespace smp::graph {

/// Result of checking a claimed minimum spanning forest.
struct ForestCheck {
  bool ok = false;
  std::string error;          ///< empty when ok
  std::size_t num_trees = 0;  ///< number of trees in the forest
  Weight total_weight = 0;    ///< exactly rounded forest weight

  explicit operator bool() const { return ok; }
};

/// Structural validation of `forest` against `g`:
///   * every forest edge is an edge of g (same endpoints and weight),
///   * the forest is acyclic,
///   * the forest is maximal: it has exactly n − #components(g) edges,
///     i.e. it spans every connected component.
///
/// Minimality is *not* checked here (use verify_cut_property or compare the
/// total weight with a reference algorithm).
ForestCheck validate_spanning_forest(const EdgeList& g, std::span<const WEdge> forest);

/// Full minimality check via the cut property: for every forest edge e, e is
/// the lightest edge (under WeightOrder with the forest edge's position as
/// tie-break proxy) crossing the cut defined by removing e from its tree.
/// O(m · t) where t = forest size — use on small graphs in tests only.
bool verify_cut_property(const EdgeList& g, std::span<const WEdge> forest,
                         std::string* error = nullptr);

/// One edge in the canonical order that every deduplicating path shares —
/// canonicalize_parallel_edges, CompressedCsr::build and the .smpz
/// converter's run sort and merge: ⟨min(u,v), max(u,v), w, input index⟩.
/// Sorted by this order, the first record of each endpoint pair is the pair's
/// WeightOrder-minimal edge, its canonical winner.
struct CanonicalEdge {
  VertexId u, v;  ///< u <= v
  Weight w;
  EdgeId idx;     ///< position in the input, the WeightOrder tie-break

  [[nodiscard]] static CanonicalEdge of(const WEdge& e, EdgeId idx) {
    return e.u <= e.v ? CanonicalEdge{e.u, e.v, e.w, idx}
                      : CanonicalEdge{e.v, e.u, e.w, idx};
  }
  [[nodiscard]] bool same_pair(const CanonicalEdge& o) const {
    return u == o.u && v == o.v;
  }
  friend bool operator<(const CanonicalEdge& a, const CanonicalEdge& b) {
    if (a.u != b.u) return a.u < b.u;
    if (a.v != b.v) return a.v < b.v;
    return WeightOrder{a.w, a.idx} < WeightOrder{b.w, b.idx};
  }
  friend bool operator==(const CanonicalEdge&, const CanonicalEdge&) = default;
};
static_assert(sizeof(CanonicalEdge) == 24);

/// g's canonical winners, one per endpoint pair, in canonical order.
std::vector<CanonicalEdge> canonical_winners(const EdgeList& g);

/// Deterministic parallel-edge canonicalization.
///
/// Among every set of edges with the same unordered endpoint pair, exactly
/// one edge is kept: the one minimal under WeightOrder ⟨weight, edge-id⟩ —
/// the only member of the set that can ever enter the minimum spanning
/// forest (any heavier/later parallel edge closes a 2-cycle in which it is
/// the maximum).  Kept edges preserve their relative input order, so the
/// result is a deterministic function of the input edge list alone —
/// dynamic batch apply (and delete-by-endpoints update traces) depend on
/// this canonical choice being reproducible across runs and readers.
/// The winners are canonical_winners(g), emitted in input order.
///
/// `kept_ids` (optional out) maps each position in the returned edge list
/// to the index of that edge in `g.edges`.  Self-loops are preserved as-is
/// (the readers reject them; rejecting an in-memory one is
/// validate_request's job, not this transform's).
EdgeList canonicalize_parallel_edges(const EdgeList& g,
                                     std::vector<EdgeId>* kept_ids = nullptr);

}  // namespace smp::graph
