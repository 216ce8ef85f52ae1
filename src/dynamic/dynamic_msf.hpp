#pragma once

#include <span>
#include <vector>

#include "core/dendrogram.hpp"
#include "core/msf.hpp"
#include "dynamic/delta.hpp"
#include "dynamic/edge_store.hpp"
#include "graph/edge_list.hpp"
#include "graph/msf_result.hpp"

namespace smp::dynamic {

struct DynamicMsfOptions {
  /// Backend for every solve: algorithm, threads, seed, budget, sequential
  /// fallback — the full static engine rides along, including the fused
  /// ThreadTeam regions and FaultInjector checkpoints.  Under the default
  /// Algorithm::kChampion ("the fastest engine for the input") a sparsified
  /// batch is not solved but applied by the forest-ordered Kruskal pass (see
  /// DynamicMsf); the first solve, recompute() and scratch-crossover batches
  /// still solve, and an explicitly named algorithm solves every candidate
  /// set.  Instrumentation out-pointers are honored per solve, and the
  /// Kruskal pass adds its candidate sort to step_times->rank_build (part
  /// of `other`) and its union-find scan to step_times->connect.
  core::MsfOptions msf;
  /// Crossover heuristic: when a batch touches at least this fraction of
  /// the live edges (insertions + deletions vs. live count), skip the
  /// sparsified candidate construction and recompute on the whole live
  /// graph — at that size the filtered problem approaches the full one and
  /// the filtering scan is pure overhead.  bench_dynamic measures the real
  /// crossover; <= 0 forces every batch to recompute, >= 1 never does.
  double scratch_batch_fraction = 0.25;
  /// Optional persistent thread team for every (re)solve.  When set, solves
  /// run on it (the run's p is team->size(); msf.threads is ignored) instead
  /// of spawning a team per solve — the serving layer shares one pool across
  /// all sessions this way.  Must outlive the DynamicMsf, and the caller
  /// must serialize solves if the team is shared (regions must not nest).
  ThreadTeam* team = nullptr;
};

/// Batch-dynamic minimum spanning forest.
///
/// Owns the current graph (an EdgeStore, ids stable under mutation) and the
/// current forest, and maintains the forest under batches of edge
/// insertions and deletions without solving the full graph each time:
///
///  * Insertions use the sparsification identity MSF(G ∪ B) = MSF(F ∪ B):
///    a non-tree edge of G is the heaviest on a cycle through forest edges,
///    and stays so in any supergraph, so the candidate set is the ~n−1
///    forest edges plus the batch — independent of m.
///  * Deletions drop the dead edges, label the split forest's components
///    with a sequential union-find, and promote candidates from the retained
///    non-tree edges whose endpoints now carry different labels (every other
///    retained non-tree edge still closes a surviving forest cycle it is the
///    maximum of, so it cannot enter).
///  * Under the default backend (Algorithm::kChampion) the candidate set —
///    retained forest ∪ batch insertions ∪ replacement candidates — is
///    decided by one Kruskal pass instead of a solve.  The forest is kept as
///    packed ⟨weight, store id, u, v⟩ records in WeightOrder (built on the
///    first batch that needs it), so only the new candidates are sorted;
///    they are merged into the ordered forest under a fresh union-find, and
///    the scan writes the next ordered forest as it goes.  A forest record
///    whose endpoints are already joined leaves the forest, a candidate that
///    joins two trees enters it.
///  * Any other backend hands the candidate set, in ascending store-id
///    order, to core::minimum_spanning_forest_of_candidates.  Both routes
///    break weight ties by store id exactly as a from-scratch run would, so
///    the maintained forest is bit-identical (edge ids and weight) to
///    MSF(live graph) after every batch, for every backend and thread count.
///  * An insert-only batch given a core::Dendrogram of the forest skips
///    both: the batch endpoints in leaf order, each same-tree adjacent pair
///    joined by an edge labelled with the heaviest forest edge between
///    them (the range-max junction), realise the forest's bottleneck
///    distances between endpoints.  Kruskal over those < 2k labelled edges
///    plus the k batch edges decides everything (Anderson–Blelloch–
///    Tangwongsan, "Work-efficient batch-incremental minimum spanning
///    trees"): a dropped label removes its edge from the forest, a kept
///    batch edge enters it.  The total order is the same ⟨weight, store-id⟩
///    order, so the result is the same forest the solve would give.
///
/// Not thread-safe (one writer); solves parallelize internally per
/// DynamicMsfOptions::msf.threads (or the team), and the Kruskal pass runs
/// its O(m) replacement sweep on DynamicMsfOptions::team when one is set.
class DynamicMsf {
 public:
  /// Starts from `initial` (store ids = positions in initial.edges) and
  /// solves it once with the configured backend.
  explicit DynamicMsf(const graph::EdgeList& initial,
                      DynamicMsfOptions opts = {});
  /// Starts from an edgeless graph on `num_vertices` vertices.
  explicit DynamicMsf(graph::VertexId num_vertices,
                      DynamicMsfOptions opts = {});
  /// Starts from an adopted store (typically slab-backed, see
  /// EdgeStore(shared_ptr<const EdgeSlab>)) and solves its live graph once.
  /// The transient solve copy is released afterwards; the maintained graph
  /// keeps serving reads from the store's mmap base.
  explicit DynamicMsf(EdgeStore store, DynamicMsfOptions opts = {});

  /// Restores a previously maintained state without solving: adopts `store`
  /// as-is and `forest` as the committed forest (store ids, any order; they
  /// are sorted here).  Used by the persistence layer to rebuild a session
  /// from a snapshot — the forest was bit-identical to MSF(live graph) when
  /// snapshotted, so no recompute is needed.  Validates that every forest id
  /// is live, that ids are unique, and that the edge count is consistent
  /// with a forest (<= n - 1); throws Error{kInvalidInput} otherwise.
  DynamicMsf(EdgeStore store, std::vector<graph::EdgeId> forest,
             DynamicMsfOptions opts = {});

  /// Applies one batch: `deletions` are store ids that must be live at
  /// batch entry (deletions are processed first, so a batch cannot delete
  /// its own insertions) and batch-unique; `insertions` are new edges
  /// validated like EdgeStore::insert.  Throws Error{kInvalidInput} before
  /// any mutation on a bad batch.  Returns what changed.
  ///
  /// `oracle` (optional) must be the dendrogram of the forest as it is at
  /// batch entry; the edge count is checked, the rest is trusted (the
  /// serving layer passes one only when its version equals the session's
  /// committed version).  An insert-only batch that would take the
  /// sparsified path is then applied by path-max instead, with an identical
  /// result and delta; every other batch, and any oracle whose forest size
  /// differs from ours, takes the sparsified path (the Kruskal pass or a
  /// candidate solve, see above).
  ///
  /// All or nothing: if anything fails after validation (budget cancellation
  /// or deadline at a checkpoint, OOM with fallback disabled, an armed fault
  /// point), the store is rolled back (EdgeStore::rollback) and the
  /// exception propagates; the store, the forest and every view taken
  /// before the call read exactly as they did before it.
  MsfDelta apply_batch(std::span<const graph::WEdge> insertions,
                       std::span<const graph::EdgeId> deletions,
                       const core::Dendrogram* oracle = nullptr);

  /// Solves the whole live graph from scratch and commits the result; a
  /// failed solve commits nothing.
  MsfDelta recompute();

  /// Compacts the underlying store (drops every tombstoned slot, renumbering
  /// live edges to [0, num_live) in ascending old-id order) and remaps the
  /// maintained forest, which stays bit-identical as an edge *set* — only
  /// the ids change, order-preservingly, so the WeightOrder tie-break order
  /// is untouched.  Returns the remap table (old id -> new id,
  /// graph::kInvalidEdge for dead slots); any store ids held by the caller
  /// (deltas, traces) are stale after this and must be translated through
  /// it.  No solve happens: O(slots) time.
  std::vector<graph::EdgeId> compact_store();

  /// Installs (or clears, with nullptr) the execution budget consulted by
  /// subsequent solves — apply_batch, recompute and nothing else.  The
  /// serving layer points this at a per-request deadline budget for the
  /// duration of one call and clears it right after; the budget must outlive
  /// every solve it covers.  Overrides any budget set in the constructor
  /// options.
  void set_budget(const ExecutionBudget* budget) { opts_.msf.budget = budget; }

  [[nodiscard]] const EdgeStore& store() const { return store_; }
  /// Current forest as ascending store ids.
  [[nodiscard]] const std::vector<graph::EdgeId>& forest_edge_ids() const {
    return forest_;
  }
  /// Forest weight, summed in ascending store-id order (bit-identical to
  /// the same deterministic sum over a from-scratch solve).
  [[nodiscard]] graph::Weight total_weight() const { return weight_; }
  [[nodiscard]] std::size_t num_trees() const { return trees_; }
  /// Batches apply_batch has applied by path-max rather than by a solve.
  [[nodiscard]] std::uint64_t path_max_batches() const {
    return path_max_batches_;
  }
  /// Materializes the forest as an MsfResult in store-id space.
  [[nodiscard]] graph::MsfResult forest() const;

 private:
  /// One forest edge or candidate as the Kruskal pass reads it: packed, so
  /// the scan never goes back to the store.
  struct Record {
    graph::Weight w;
    graph::EdgeId id;
    graph::VertexId u, v;
  };
  /// WeightOrder on records.
  static bool before(const Record& a, const Record& b) {
    return graph::WeightOrder{a.w, a.id} < graph::WeightOrder{b.w, b.id};
  }
  [[nodiscard]] Record record(graph::EdgeId id) const {
    const graph::WEdge& e = store_.edge(id);
    return Record{e.w, id, e.u, e.v};
  }

  /// Solve `candidates`/`ids`, diff the result against the forest into a
  /// delta, and commit it.
  MsfDelta solve_and_commit(const graph::EdgeList& candidates,
                            const std::vector<graph::EdgeId>& ids,
                            bool from_scratch);
  /// The insert-only batch [first_new, store size) by path-max over
  /// `oracle`; commits like solve_and_commit.
  MsfDelta apply_by_path_max(const core::Dendrogram& oracle,
                             graph::EdgeId first_new);
  /// The batch [first_new, store size), after the deletion of the forest
  /// edges `cut` (ascending), by one Kruskal pass over the ordered forest.
  MsfDelta apply_by_kruskal(graph::EdgeId first_new,
                            std::vector<graph::EdgeId> cut);
  /// Live edges below `end` whose endpoints carry different `label`s, in
  /// ascending store-id order (swept on the team when one is set).
  std::vector<Record> crossing_records(
      graph::EdgeId end, const std::vector<graph::VertexId>& label) const;
  /// Builds ordered_ from forest_ unless it is current.
  void build_ordered();
  void drop_ordered();
  /// Commits the forest minus `removed` plus `added` (both ascending,
  /// `removed` ⊆ forest, `added` disjoint from it); the delta is exactly
  /// those two lists.  Allocates before it writes anything.
  MsfDelta commit(std::vector<graph::EdgeId> removed,
                  std::vector<graph::EdgeId> added);
  void recompute_weight();

  EdgeStore store_;
  DynamicMsfOptions opts_;
  std::vector<graph::EdgeId> forest_;  ///< ascending store ids
  graph::Weight weight_ = 0;
  std::size_t trees_ = 0;
  std::uint64_t path_max_batches_ = 0;
  /// forest_ as records in WeightOrder, valid while ordered_ready_.
  std::vector<Record> ordered_;
  /// The Kruskal scan's output buffer, swapped with ordered_ on commit.
  std::vector<Record> ordered_next_;
  bool ordered_ready_ = false;
};

}  // namespace smp::dynamic
