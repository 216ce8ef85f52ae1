#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/dendrogram.hpp"
#include "dynamic/edge_store.hpp"
#include "graph/types.hpp"
#include "pprim/thread_team.hpp"

namespace smp::query {

/// Immutable topology index over one committed version of a maintained
/// forest — the query engine the serving layer answers pathmax / conn / cut
/// / topk from.  It holds the forest edges (ascending store id) and one
/// core::Dendrogram over them, the forest's Kruskal reconstruction tree in
/// leaf order, built on the solver ThreadTeam: connected compares runs,
/// path_max is one range-max over junctions, cut is one scan over them.
///
/// The whole object is immutable after construction; readers on any number
/// of threads may query one instance concurrently.  Consistency with the
/// live session state is the serving layer's job: each index carries the
/// session `version` it was built from, and ServiceCore swaps whole
/// instances via shared_ptr so a query never observes a half-built index.
/// The topology itself is a shared body: restamped() hands the same body to
/// a later version whose forest is unchanged, in O(1).  dendrogram() is the
/// oracle DynamicMsf applies an insert-only batch by path-max against.
class ForestIndex final {
 public:
  struct Stats {
    std::uint64_t version = 0;
    graph::VertexId num_vertices = 0;
    std::size_t num_forest_edges = 0;
    std::size_t num_components = 0;
    double build_seconds = 0;
  };

  /// Bottleneck edge on the u–v forest path.  `connected == false` means
  /// no path; u == v yields connected == true with edge_id == kInvalidEdge
  /// (an empty path has no bottleneck — the serve layer rejects it before
  /// it gets here).
  struct PathMax {
    bool connected = false;
    graph::EdgeId edge_id = graph::kInvalidEdge;  ///< store id
    graph::VertexId u = graph::kInvalidVertex;    ///< bottleneck endpoints
    graph::VertexId v = graph::kInvalidVertex;
    graph::Weight weight = 0;
  };

  /// Single-linkage cut at a threshold: cluster count plus an
  /// order-sensitive FNV-1a digest of the (deterministic) label sequence,
  /// cheap enough to ship over the wire and strong enough for the stress
  /// suite's bit-identity comparison.
  struct Cut {
    std::size_t num_clusters = 0;
    std::uint64_t labels_digest = 0;
  };

  struct TopkEdge {
    graph::EdgeId id = graph::kInvalidEdge;  ///< store id
    graph::VertexId u = 0;
    graph::VertexId v = 0;
    graph::Weight w = 0;
  };

  /// Builds from the live store and the maintained forest's store ids
  /// (ascending, as DynamicMsf::forest_edge_ids returns them).  Gathers the
  /// edges and builds the dendrogram on `team` — the caller must own the
  /// team (serving: hold solver_mu) and must not be inside an open region.
  ForestIndex(ThreadTeam& team, const dynamic::EdgeStore& store,
              std::span<const graph::EdgeId> forest_ids, std::uint64_t version);

  /// Builds from an already-materialized forest — no EdgeStore needed.
  /// `fedges` must be ascending by store id and `fids` its parallel store
  /// ids (exactly what a serve-layer MVCC snapshot captures at publish
  /// time), so the index can be built long after the store has moved on.
  ForestIndex(ThreadTeam& team, graph::VertexId num_vertices,
              std::vector<graph::WEdge> fedges,
              std::vector<graph::EdgeId> fids, std::uint64_t version);

  /// The same index stamped with a later `version` whose forest is this
  /// one's, edge for edge and id for id.  Shares the edges and the
  /// dendrogram; keeps built_at() and the build stats.
  [[nodiscard]] std::shared_ptr<const ForestIndex> restamped(
      std::uint64_t version) const;

  [[nodiscard]] std::uint64_t version() const { return stats_.version; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::chrono::steady_clock::time_point built_at() const {
    return built_at_;
  }

  /// O(1): same tree of the forest?
  [[nodiscard]] bool connected(graph::VertexId u, graph::VertexId v) const {
    return b_->dend.connected(u, v);
  }

  /// O(1) bottleneck edge on the forest path (see PathMax).
  [[nodiscard]] PathMax path_max(graph::VertexId u, graph::VertexId v) const;

  /// O(n) single-linkage clustering at threshold (edges with weight <=
  /// threshold merge).  If `labels` is non-null it receives the per-vertex
  /// cluster labels (dense, numbered by first occurrence — deterministic).
  [[nodiscard]] Cut cut(graph::Weight threshold,
                        std::vector<graph::VertexId>* labels = nullptr) const;

  /// The k lightest live edges of `view` crossing distinct clusters, in
  /// ascending ⟨weight, store-id⟩ order.  With `lambda` the clusters are
  /// cut(*lambda); without, every vertex is its own cluster, i.e. the k
  /// lightest live edges overall.  A view is immutable, so this needs no
  /// lock: the MVCC read path scans its epoch's view directly.  One pass
  /// over the slots in dynamically scheduled blocks: each thread keys a slot
  /// by its monotone weight bits, drops it unless it beats the thread's
  /// cached k-th bound, and otherwise pushes it into its bounded heap.
  [[nodiscard]] std::vector<TopkEdge> top_k(
      ThreadTeam& team, const dynamic::StoreView& view, std::size_t k,
      std::optional<graph::Weight> lambda) const;

  /// top_k over the store as it is now (its view()).  The caller must keep
  /// writers off the store for the call.
  [[nodiscard]] std::vector<TopkEdge> top_k(
      ThreadTeam& team, const dynamic::EdgeStore& store, std::size_t k,
      std::optional<graph::Weight> lambda) const {
    return top_k(team, store.view(), k, lambda);
  }

  // --- forest accessors; dendrogram() is DynamicMsf's path-max oracle ---
  [[nodiscard]] graph::VertexId num_vertices() const {
    return stats_.num_vertices;
  }
  [[nodiscard]] std::size_t num_forest_edges() const {
    return b_->fedges.size();
  }
  [[nodiscard]] const graph::WEdge& forest_edge(std::size_t i) const {
    return b_->fedges[i];
  }
  [[nodiscard]] graph::EdgeId forest_id(std::size_t i) const {
    return b_->fids[i];
  }
  [[nodiscard]] const core::Dendrogram& dendrogram() const { return b_->dend; }

 private:
  /// Everything derived from the forest: shared by every restamp.
  struct Body {
    Body(ThreadTeam& team, graph::VertexId n, std::vector<graph::WEdge> e,
         std::vector<graph::EdgeId> ids)
        : fedges(std::move(e)), fids(std::move(ids)),
          dend(team, n, fedges, fids) {}
    std::vector<graph::WEdge> fedges;  ///< ascending store id
    std::vector<graph::EdgeId> fids;
    core::Dendrogram dend;
  };

  ForestIndex(std::shared_ptr<const Body> body, Stats stats,
              std::chrono::steady_clock::time_point built_at)
      : stats_(stats), built_at_(built_at), b_(std::move(body)) {}

  Stats stats_;
  std::chrono::steady_clock::time_point built_at_;
  std::shared_ptr<const Body> b_;
};

/// Order-sensitive FNV-1a over a label sequence — the digest cut() reports.
[[nodiscard]] std::uint64_t labels_digest(
    std::span<const graph::VertexId> labels);

}  // namespace smp::query
