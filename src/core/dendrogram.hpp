#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/msf_result.hpp"
#include "graph/types.hpp"
#include "pprim/thread_team.hpp"

namespace smp::core {

/// Single-linkage dendrogram over the vertices of a forest, kept as the
/// leaf order of its Kruskal reconstruction tree.  Single-linkage
/// clustering is exactly MST clustering — the paper's §1 motivates MST with
/// this family of applications (cancer detection, proteomics) — and the
/// dendrogram is its complete output: every cut at a height yields the
/// clustering at that linkage distance.
///
/// The forest edges are united in ⟨weight, store id⟩ order, each union
/// concatenating the two roots' leaf lists.  The order comes from the
/// library's one weight sort (core/weight_sort.hpp), and the unions run
/// behind it like Champion's light scan: tid 0 merges each weight bucket
/// as soon as the team has sorted it.  Merge i (0-based, ascending
/// in that order) is recorded at the junction between the two lists, so in
/// the final leaf order:
///   * each tree of the forest is one contiguous run;
///   * the heaviest edge on the u–v forest path is merge max(junctions in
///     [pos u, pos v)) — one sparse-table range-max;
///   * the clusters at a cut are the segments between the junctions whose
///     merge the cut undoes.
/// Vertices in different trees are never merged.  Immutable once built, so
/// any number of threads may query one instance.
class Dendrogram {
 public:
  /// Builds from a graph's MSF result (edges in any order).
  Dendrogram(graph::VertexId num_vertices, const graph::MsfResult& msf);

  /// Builds from forest `edges` and their store ids, ids ascending (so the
  /// input position breaks weight ties like the id).  The weight sort, the
  /// merges behind it and the range-max table run on `team`; the caller
  /// must own it.  Every team size builds the same dendrogram.
  Dendrogram(ThreadTeam& team, graph::VertexId num_vertices,
             std::span<const graph::WEdge> edges,
             std::span<const graph::EdgeId> ids);

  [[nodiscard]] graph::VertexId num_leaves() const { return n_; }
  [[nodiscard]] std::size_t num_merges() const { return merge_height_.size(); }

  /// Height (edge weight) of merge i.  Non-decreasing in i.
  [[nodiscard]] graph::Weight merge_height(std::size_t i) const {
    return merge_height_[i];
  }
  /// Store id of merge i's edge.
  [[nodiscard]] graph::EdgeId merge_id(std::size_t i) const {
    return merge_id_[i];
  }
  /// Position of merge i's edge in the constructor's edge list.
  [[nodiscard]] std::uint32_t merge_edge(std::size_t i) const {
    return merge_edge_[i];
  }

  /// Position of `v` in the leaf order.
  [[nodiscard]] std::uint32_t pos(graph::VertexId v) const { return pos_[v]; }
  /// Position of the first leaf of `v`'s run (its tree).
  [[nodiscard]] std::uint32_t run(graph::VertexId v) const { return run_[v]; }
  /// Same tree of the forest?
  [[nodiscard]] bool connected(graph::VertexId u, graph::VertexId v) const {
    return run_[u] == run_[v];
  }
  /// Merge index of the heaviest edge on the u–v forest path, in O(1);
  /// u ≠ v, connected(u, v).
  [[nodiscard]] std::uint32_t path_max(graph::VertexId u,
                                       graph::VertexId v) const {
    std::uint32_t a = pos_[u];
    std::uint32_t b = pos_[v];
    if (a > b) std::swap(a, b);
    const int k = std::bit_width(b - a) - 1;
    const std::vector<std::uint32_t>& level = table_[k];
    return std::max(level[a], level[b - (std::uint32_t{1} << k)]);
  }

  /// Cluster labels after cutting all merges with height > `threshold`:
  /// label[v] in [0, k), numbered by first occurrence over vertex id; k
  /// returned via the out-param if non-null.
  [[nodiscard]] std::vector<graph::VertexId> cut_at(
      graph::Weight threshold, std::size_t* num_clusters = nullptr) const;

  /// Cluster labels for exactly `k` clusters (undoing the k-1 heaviest
  /// merges of a connected input; with c components, k >= c is required).
  [[nodiscard]] std::vector<graph::VertexId> cut_into(
      std::size_t k, std::size_t* num_clusters = nullptr) const;

 private:
  void build(ThreadTeam& team, std::span<const graph::WEdge> edges,
             std::span<const graph::EdgeId> ids);
  [[nodiscard]] std::vector<graph::VertexId> labels_keeping(
      std::size_t merges_kept, std::size_t* num_clusters) const;

  graph::VertexId n_ = 0;
  std::vector<graph::Weight> merge_height_;  ///< ascending
  std::vector<graph::EdgeId> merge_id_;
  std::vector<std::uint32_t> merge_edge_;
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint32_t> run_;
  /// table_[k][p]: largest junction merge index in [p, p + 2^k).  Level 0
  /// holds the junction after each position; a run's last position has
  /// none (UINT32_MAX, above every merge index, so every cut splits there).
  std::vector<std::vector<std::uint32_t>> table_;
};

}  // namespace smp::core
