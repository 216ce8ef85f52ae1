#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/dendrogram.hpp"
#include "dynamic/edge_store.hpp"
#include "dynamic/forest_oracle.hpp"
#include "graph/types.hpp"
#include "pprim/thread_team.hpp"

namespace smp::query {

/// Immutable Euler-tour topology index over one committed version of a
/// maintained forest — the query engine the serving layer answers pathmax /
/// conn / cut / topk from, and the substrate the polylog dynamic-deletion
/// line (Holm–Rotenberg–Wulff-Nilsen; ROADMAP) will search replacement
/// edges on.
///
/// Built in parallel on the solver ThreadTeam from the forest edge list:
///
///   1. forest edges gathered ascending by store id, so the position of an
///      edge in the index IS its WeightOrder tie-break rank order input —
///      core::build_weight_ranks then yields a 32-bit *weight rank* per
///      forest edge whose unsigned order equals ⟨weight, store-id⟩ exactly
///      (the find_min packed-key scheme of PR 5, reused verbatim);
///   2. a CSR adjacency over the 2·m_f forest arcs (stable counting sort,
///      so child order is deterministic and thread-count independent);
///   3. deterministic component labels (core::connected_components) and
///      per-component roots (minimum vertex id of the component);
///   4. an Euler/DFS tour: preorder vertex sequence with each component
///      contiguous, entry/exit positions (tin/tout: the subtree of v is
///      tour[tin(v), tout(v))), parent pointers, depths, and the packed
///      ⟨rank, forest-position⟩ key of each vertex's parent edge;
///   5. skip-level (binary-lifting) ancestor + path-max tables over the
///      packed keys, so one unsigned uint64 max along a path is the full
///      WeightOrder bottleneck comparison.
///
/// The whole object is immutable after construction (the lazily built
/// dendrogram for cut() is memoized under an internal mutex); readers on
/// any number of threads may query one instance concurrently.  Consistency
/// with the live session state is the serving layer's job: each index
/// carries the session `version` it was built from, and ServiceCore swaps
/// whole instances via shared_ptr so a query never observes a half-built
/// index.  The topology itself is a shared body: restamped() hands the same
/// body to a later version whose forest is unchanged, in O(1).
///
/// As a dynamic::ForestOracle it lets DynamicMsf apply an insert-only batch
/// by path-max against the forest it indexes.
class ForestIndex final : public dynamic::ForestOracle {
 public:
  struct Stats {
    std::uint64_t version = 0;
    graph::VertexId num_vertices = 0;
    std::size_t num_forest_edges = 0;
    std::size_t num_components = 0;
    std::uint32_t max_depth = 0;
    std::uint32_t levels = 0;
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
  /// (ascending, as DynamicMsf::forest_edge_ids returns them).  Runs a
  /// sequence of parallel phases on `team` — the caller must own the team
  /// (serving: hold solver_mu) and must not be inside an open region.
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
  /// one's, edge for edge and id for id.  Shares every table (and the cut()
  /// memo); keeps built_at() and the build stats.
  [[nodiscard]] std::shared_ptr<const ForestIndex> restamped(
      std::uint64_t version) const;

  [[nodiscard]] std::uint64_t version() const { return stats_.version; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::chrono::steady_clock::time_point built_at() const {
    return built_at_;
  }

  /// O(1): same tree of the forest?
  [[nodiscard]] bool connected(graph::VertexId u, graph::VertexId v) const {
    return b_->comp[u] == b_->comp[v];
  }

  /// O(log n) bottleneck edge on the forest path (see PathMax).
  [[nodiscard]] PathMax path_max(graph::VertexId u, graph::VertexId v) const;

  /// O(log n) lowest common ancestor of two vertices of the same tree
  /// (roots are the minimum vertex id of their tree).
  [[nodiscard]] graph::VertexId lca(graph::VertexId u,
                                    graph::VertexId v) const override;
  /// Store id of path_max(u, v)'s edge; u ≠ v, same tree.
  [[nodiscard]] graph::EdgeId bottleneck(graph::VertexId u,
                                         graph::VertexId v) const override;

  /// Single-linkage clustering at threshold (edges with weight <= threshold
  /// merge).  Memoizes the dendrogram on first use.  If `labels` is
  /// non-null it receives the per-vertex cluster labels (dense, numbered by
  /// first occurrence — deterministic).
  [[nodiscard]] Cut cut(graph::Weight threshold,
                        std::vector<graph::VertexId>* labels = nullptr) const;

  /// The k lightest live edges of `view` crossing distinct clusters, in
  /// ascending ⟨weight, store-id⟩ order.  With `lambda` the clusters are
  /// cut(*lambda); without, every vertex is its own cluster, i.e. the k
  /// lightest live edges overall.  A view is immutable, so this needs no
  /// lock: the MVCC read path scans its epoch's view directly.  Scans in
  /// blocks, skimming each block with the u64_argmin SIMD kernel over
  /// monotone weight bits so only candidates that beat the current k-th
  /// bound are examined individually.
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

  // --- topology accessors (tests; dynamic::ForestOracle) ---
  [[nodiscard]] graph::VertexId num_vertices() const {
    return stats_.num_vertices;
  }
  [[nodiscard]] std::size_t num_forest_edges() const override {
    return b_->fedges.size();
  }
  [[nodiscard]] const graph::WEdge& forest_edge(std::size_t i) const {
    return b_->fedges[i];
  }
  [[nodiscard]] graph::EdgeId forest_id(std::size_t i) const {
    return b_->fids[i];
  }
  [[nodiscard]] graph::VertexId component(graph::VertexId v) const override {
    return b_->comp[v];
  }
  [[nodiscard]] graph::VertexId parent(graph::VertexId v) const {
    return b_->parent[v];
  }
  [[nodiscard]] std::uint32_t depth(graph::VertexId v) const {
    return b_->depth[v];
  }
  [[nodiscard]] std::uint32_t tin(graph::VertexId v) const override {
    return b_->tin[v];
  }
  [[nodiscard]] std::uint32_t tout(graph::VertexId v) const {
    return b_->tout[v];
  }
  [[nodiscard]] const std::vector<graph::VertexId>& tour() const {
    return b_->tour;
  }

 private:
  /// Everything derived from the forest: shared by every restamp.
  struct Body {
    // Forest edges ascending by store id; position is the packed-key index.
    std::vector<graph::WEdge> fedges;
    std::vector<graph::EdgeId> fids;

    // Per-vertex topology.
    std::vector<graph::VertexId> comp;    ///< dense component label
    std::vector<graph::VertexId> parent;  ///< roots point at themselves
    std::vector<std::uint32_t> depth;
    std::vector<std::uint64_t> pkey;  ///< packed key of parent edge; 0 at roots
    std::vector<graph::VertexId> tour;
    std::vector<std::uint32_t> tin;
    std::vector<std::uint32_t> tout;

    // Level-major skip tables: up[k * n + v] jumps 2^k ancestors;
    // upkey[k * n + v] is the packed max key along that jump.
    std::uint32_t levels = 0;
    std::vector<graph::VertexId> up;
    std::vector<std::uint64_t> upkey;

    // Lazily built single-linkage dendrogram for cut().
    mutable std::mutex dend_mu;
    mutable std::unique_ptr<core::Dendrogram> dend;
  };

  ForestIndex(std::shared_ptr<const Body> body, Stats stats,
              std::chrono::steady_clock::time_point built_at)
      : stats_(stats), built_at_(built_at), b_(std::move(body)) {}

  /// Build phases 2–5 into `b`; b.fedges/b.fids and stats_.version set.
  void build(ThreadTeam& team, Body& b, graph::VertexId num_vertices,
             std::chrono::steady_clock::time_point t0);

  /// Packed key of the bottleneck edge on the u–v path (same tree, u ≠ v).
  [[nodiscard]] std::uint64_t path_max_key(graph::VertexId u,
                                           graph::VertexId v) const;
  [[nodiscard]] const core::Dendrogram& dendrogram() const;

  Stats stats_;
  std::chrono::steady_clock::time_point built_at_;
  std::shared_ptr<const Body> b_;
};

/// Order-sensitive FNV-1a over a label sequence — the digest cut() reports.
[[nodiscard]] std::uint64_t labels_digest(
    std::span<const graph::VertexId> labels);

}  // namespace smp::query
