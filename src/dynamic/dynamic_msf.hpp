#pragma once

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/dendrogram.hpp"
#include "core/msf.hpp"
#include "dynamic/delta.hpp"
#include "dynamic/edge_store.hpp"
#include "dynamic/forest_bits.hpp"
#include "dynamic/incidence_list.hpp"
#include "dynamic/pair_table.hpp"
#include "graph/edge_list.hpp"
#include "graph/exact_sum.hpp"
#include "graph/msf_result.hpp"
#include "pprim/cacheline.hpp"
#include "pprim/thread_team.hpp"

namespace smp::dynamic {

/// Crossover heuristic: when a batch touches at least this fraction of the
/// live edges (insertions + deletions vs. the live count after the batch),
/// DynamicMsf skips the sparsified candidate construction and recomputes on
/// the whole live graph — at that size the filtered problem approaches the
/// full one and the filtering scan is pure overhead.  bench_dynamic measures
/// the real crossover.
inline constexpr double kScratchBatchFraction = 0.25;

/// A cut batch's piece search gives up, and the batch labels every piece
/// and sweeps every slot instead, once it has read more incidence arcs than
/// this fraction of the live edge count.
inline constexpr double kSearchFraction = 0.125;

struct DynamicMsfOptions {
  /// Backend for the solves: the first solve, recompute() and batches past
  /// the scratch crossover.  Algorithm, threads, seed, budget and sequential
  /// fallback ride along, including the fused ThreadTeam regions and
  /// FaultInjector checkpoints.  A sparsified batch is never solved, whatever
  /// the algorithm: one Kruskal pass over the forest paths the batch can
  /// close a cycle on decides it (see DynamicMsf), and that pass honours the
  /// budget too.  Instrumentation out-pointers are honored per solve, and
  /// the Kruskal pass adds the gathering, compression and sort of its
  /// records to step_times->rank_build (part of `other`) and the rest —
  /// finding the crossing edges (the piece search, or the fallback labels
  /// and sweep), the replacement Borůvka and the scan — to
  /// step_times->connect.
  core::MsfOptions msf;
  /// Persistent thread team for every solve, the rooted forest's adjacency
  /// and the Kruskal pass's incidence-list build, piece search and
  /// replacement sweep.  When null, the DynamicMsf creates one of
  /// msf.threads and keeps it for its lifetime; when set, the run's p is
  /// team->size() and msf.threads is ignored — the serving layer shares one
  /// pool across all sessions this way.  A given team must outlive the
  /// DynamicMsf, and the caller must serialize solves if the team is shared
  /// (regions must not nest).
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
///  * Deletions drop the dead edges.  F' (the forest minus its cut edges)
///    stays: an MSF edge is still the lightest across some cut of G − D.
///    The crossing edges — retained non-tree edges whose endpoints lie in
///    different pieces (components of F') — are found by a search of the
///    pieces of every cut tree over a per-vertex incidence list of the
///    store (IncidenceList, built on the first cut batch).  The rooted
///    forest (below) names the pieces: each cut edge's child end tops a
///    piece, and a walk up the parent links from each parent end finds the
///    top of its piece — another cut's child end, or a root, which tops its
///    tree's root piece.  That gives the piece tree: each cut tree and its
///    piece count.  Each piece is read top-down from its top: at a vertex,
///    every live forest arc but its parent edge leads to a child in the
///    same piece, and the live non-tree arcs are set aside.  The pieces are
///    disjoint, so they are read side by side on the team, in rounds whose
///    per-piece arc budget doubles (a root piece, nearly always its tree's
///    largest, at a quarter of the rate).  A tree is done when all of its
///    pieces but one are exhausted: every crossing edge of that tree has an
///    end in an exhausted piece, so the unsearched rest needs no label of
///    its own.  The first rounds read only the child pieces; when all of
///    them are exhausted every tree is done, and the walks are skipped.
///    (Searching only the two sides of each cut would not do: with pieces
///    A–B–C and a small B, both of B's sides end before A or C is known
///    whole, and the A–C edges are never seen; the piece tree holds A, B
///    and C in one tree of three pieces, so the search goes on until A or
///    C is exhausted too.)  Each round reads what the rounds before it
///    decide, so the arcs read are the same at every thread count.  When
///    the search reads more than kSearchFraction of the live edge count in
///    arcs, the batch falls back to labelling every vertex with its piece's
///    top, by walks up the parent links, and sweeping every slot, both on
///    the team.  Either way each thread keeps only the lightest crossing
///    edge of each pair of pieces: with the pieces contracted, a heavier
///    one closes a 2-cycle it is the maximum of.  Borůvka over those pair
///    minima, with every piece contracted to a point, yields the
///    replacement set R: MSF(G − D) = F' ∪ R.  (Every other retained
///    non-tree edge still closes a surviving forest cycle it is the maximum
///    of, so it cannot enter.)
///  * The batch is then decided by one Kruskal pass over F' ∪ R ∪ B, whatever
///    the backend: every algorithm returns the unique MSF under ⟨weight,
///    store id⟩, so the pass commits what a solve of that set would.  A
///    forest edge can leave only if it lies on a cycle with a candidate (an
///    edge of R ∪ B), and every such edge lies on a candidate endpoint's
///    root path in F'; every other forest edge is a bridge of F' ∪ R ∪ B and
///    stays without a find.  So the pass walks each candidate endpoint's
///    root path in the rooted forest — stopping at the root, a cut edge or
///    an edge already gathered — and compresses the gathered edges before
///    it sorts anything.  A numbered vertex is key if it is a candidate
///    endpoint or has two or more gathered children; every other one has
///    degree 2 in the gathered edges ∪ candidates, so the gathered edges
///    fall into chains between key vertices.  Every cycle through a chain
///    edge uses the whole chain, so no chain edge but the heaviest can be a
///    cycle's maximum: the chain becomes one record, that edge between its
///    two key ends.  A chain that reaches a root or a cut edge before a key
///    vertex is all bridges and gets no record.  The pass sorts and scans
///    those records with the candidates under a fresh union-find over the
///    key vertices.  A record whose endpoints are already joined takes its
///    edge out of the forest, a candidate that joins two trees enters it.
///    Ties break by store id exactly as a from-scratch run would, so the
///    maintained forest is bit-identical (edge ids and weight) to MSF(live
///    graph) after every batch, for every backend and thread count.
///  * The rooted forest (a parent vertex and parent edge per vertex) is
///    built by the constructors that take edges and by recompute(), after
///    its commit: the forest's adjacency on the team, then one BFS from the
///    least vertex of each tree.  (An edgeless start roots nothing: its
///    first batch that decides anything is a crossover.)  Every commit
///    keeps it current: a removed edge detaches its child side, an added
///    edge (u, v) everts u's tree at u and hangs it under v.  A commit whose
///    everts pass n steps drops it instead (a path-shaped forest can make
///    every evert long), and the next Kruskal batch rebuilds it; no other
///    batch builds it.
///  * A commit costs O(Δ) for Δ changed edges.  The forest is a membership
///    bit per store slot in copy-on-write blocks (ForestBits), and its
///    weight is an exact running sum (graph::ExactSum) that each added edge
///    adds to and each removed edge subtracts from, rounded once per commit.
///    Every commit that changes the forest takes a process-unique forest
///    version, so two forests with the same version are the same forest.
///  * An insert-only batch given a core::Dendrogram of the forest skips
///    the pass: the batch endpoints in leaf order, each same-tree adjacent pair
///    joined by an edge labelled with the heaviest forest edge between
///    them (the range-max junction), realise the forest's bottleneck
///    distances between endpoints.  Kruskal over those < 2k labelled edges
///    plus the k batch edges decides everything (Anderson–Blelloch–
///    Tangwongsan, "Work-efficient batch-incremental minimum spanning
///    trees"): a dropped label removes its edge from the forest, a kept
///    batch edge enters it.  The total order is the same ⟨weight, store-id⟩
///    order, so the result is the same forest the pass would give.
///
/// The configured backend solves the whole live graph: the first time, on
/// recompute(), and for a batch past the scratch crossover.
///
/// Not thread-safe (one writer); solves, the rooted forest's adjacency and
/// the Kruskal pass's O(m) incidence-list build, its piece search and its
/// fallback sweep run on one team (DynamicMsfOptions::team, or the
/// DynamicMsf's own of msf.threads).
class DynamicMsf {
 public:
  /// Starts from `initial` (store ids = positions in initial.edges,
  /// adopted on the team), solves it once with the configured backend and
  /// roots the forest.
  explicit DynamicMsf(const graph::EdgeList& initial,
                      DynamicMsfOptions opts = {});
  /// Starts from an edgeless graph on `num_vertices` vertices, allocating
  /// nothing per vertex.
  explicit DynamicMsf(graph::VertexId num_vertices,
                      DynamicMsfOptions opts = {});

  /// Restores a previously maintained state without solving: adopts `store`
  /// as-is and `forest` as the committed forest (store ids, any order; they
  /// are sorted here).  Used by the persistence layer to rebuild a session
  /// from a snapshot — the forest was bit-identical to MSF(live graph) when
  /// snapshotted, so no recompute is needed.  Validates that every forest id
  /// is live, that ids are unique, that the edge count is consistent with a
  /// forest (<= n - 1), and, while rooting it, that the edges close no
  /// cycle; throws Error{kInvalidInput} otherwise.
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
  /// differs from ours, takes the sparsified path (the Kruskal pass, see
  /// above).
  ///
  /// All or nothing: if anything fails after validation (budget cancellation
  /// or deadline at a checkpoint, OOM with fallback disabled, an armed fault
  /// point), the store is rolled back (EdgeStore::rollback) and the
  /// exception propagates; the store, the forest and every view taken
  /// before the call read exactly as they did before it.
  MsfDelta apply_batch(std::span<const graph::WEdge> insertions,
                       std::span<const graph::EdgeId> deletions,
                       const core::Dendrogram* oracle = nullptr);

  /// Solves the whole live graph from scratch with the backend and commits
  /// the diff against the forest; a failed solve commits nothing.  Then
  /// roots the new forest; if that fails, the commit stands and the forest
  /// is left unrooted for the next Kruskal batch to root.  Batches past the
  /// scratch crossover take this path too.
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
  /// Current forest as ascending store ids.  Materialized on the first call
  /// after the forest changed (O(slots / 64 + forest size)) and cached; the
  /// reference stays valid until the next batch, recompute or compaction.
  /// Like every member, not safe to call concurrently.
  [[nodiscard]] const std::vector<graph::EdgeId>& forest_edge_ids() const;
  [[nodiscard]] std::size_t forest_size() const { return forest_size_; }
  /// Changes whenever the forest does (a commit that adds or removes an
  /// edge, compact_store), and is unique across every DynamicMsf of the
  /// process.
  [[nodiscard]] std::uint64_t forest_version() const { return forest_version_; }
  /// The current forest as an immutable view that shares its blocks with
  /// this DynamicMsf: O(1) now, and each later commit copies only the
  /// blocks it touches that a view may still read.
  [[nodiscard]] ForestView share_forest();
  /// Forest weight: the exactly rounded sum of the forest's edge weights,
  /// bit-identical to every solver's total_weight for the same forest.
  [[nodiscard]] graph::Weight total_weight() const { return weight_; }
  [[nodiscard]] std::size_t num_trees() const { return trees_; }
  /// Batches apply_batch has applied by path-max rather than by the Kruskal
  /// pass or a solve.
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
  /// A vertex's link to its parent in the rooted forest: the parent edge's
  /// weight and store id, and the parent vertex.  A root is its own parent,
  /// with edge kInvalidEdge.
  struct Link {
    graph::Weight w;
    graph::EdgeId edge;
    graph::VertexId parent;
  };

  /// The insert-only batch [first_new, store size) by path-max over
  /// `oracle`.
  MsfDelta apply_by_path_max(const core::Dendrogram& oracle,
                             graph::EdgeId first_new);
  /// The batch [first_new, store size), after the deletion of the forest
  /// edges `cut` (ascending), by one Kruskal pass over the root paths of its
  /// candidates.
  MsfDelta apply_by_kruskal(graph::EdgeId first_new,
                            const std::vector<graph::EdgeId>& cut);
  /// The lightest under ⟨w, store id⟩ of the retained non-tree edges that
  /// cross each pair of pieces of F', with its endpoints replaced by their
  /// pieces' labels in [0, pieces), and how many crossing edges there were.
  /// A heavier edge of a pair is the maximum of a 2-cycle once the pieces
  /// are contracted, so no MSF of the crossing edges holds it.
  struct Crossing {
    std::vector<Record> pairs;
    std::size_t pieces = 0;
    std::size_t edges = 0;
  };
  /// One thread's share of the crossing edges: the lightest it saw of each
  /// pair of pieces, as a record between their labels (`best`), the index
  /// of that record under pair_key of the labels (`at`), and how many
  /// crossing edges it saw.  One to a cache line.
  struct alignas(kCacheLineBytes) Lane {
    PairTable at;
    std::vector<Record> best;
    std::size_t edges = 0;
    /// Keeps `r`, a crossing edge between the labels r.u != r.v, if it is
    /// the lightest of its pair so far.
    void keep(const Record& r) {
      graph::EdgeId& i = at.try_emplace(pair_key(r.u, r.v), best.size());
      if (i == best.size()) {
        best.push_back(r);
      } else if (before(r, best[i])) {
        best[i] = r;
      }
    }
  };
  /// The lanes merged: the lightest edge per pair over all of them.
  [[nodiscard]] static Crossing merge(std::vector<Lane>& lanes, std::size_t pieces);
  /// What the piece search did, for MsfDelta.
  struct SearchCounts {
    std::size_t arcs = 0;
    std::size_t pieces = 0;
    std::size_t rounds = 0;
    std::size_t largest = 0;  ///< arcs of the largest exhausted piece
  };
  /// The crossing edges after the deletion of the forest edges `cut`, over
  /// the slots incidence_ lists, by the search of the cut trees' pieces (see
  /// the class comment), read on the team; nullopt once it has read more
  /// than `limit` arcs.  `counts` receives what it did, also then.
  std::optional<Crossing> search_pieces(const std::vector<graph::EdgeId>& cut,
                                        std::size_t limit, SearchCounts& counts);
  /// The search's fallback: every vertex labelled with its piece, then
  /// every live slot below `end` swept for edges whose ends' labels differ,
  /// each in one region on the team.
  Crossing sweep_pieces(graph::EdgeId end) const;
  /// The MSF of the crossing pairs' edges with every piece contracted to
  /// its label, by Borůvka rounds, as records of the store's edges.
  std::vector<Record> replacements(Crossing cross) const;
  /// Builds links_ from the forest: its adjacency on the team, then one BFS
  /// from the least vertex of each tree.  Sets rooted_ and returns true,
  /// unless the forest has a cycle (only a restore of bad input gives it
  /// one): then rooted_ stays false and it returns false.  On an exception
  /// rooted_ stays false too.
  bool build_rooted();
  /// Keeps links_ current across a commit (see commit); allocates nothing.
  void relink(const std::vector<graph::EdgeId>& removed,
              const std::vector<graph::EdgeId>& added);
  /// Commits the forest minus `removed` plus `added` (both ascending,
  /// `removed` ⊆ forest, `added` disjoint from it); the delta is exactly
  /// those two lists.  O(|removed| + |added|); allocates before it writes
  /// anything.
  MsfDelta commit(std::vector<graph::EdgeId> removed,
                  std::vector<graph::EdgeId> added);
  /// Makes the block of every id in `a` and `b` writable in place (see
  /// ForestBits), allocating or copying as needed.  Changes no bit.
  void prepare_forest(std::span<const graph::EdgeId> a,
                      std::span<const graph::EdgeId> b);
  /// The writable block of `id`, after prepare_forest.
  [[nodiscard]] ForestBits::Block& forest_block(graph::EdgeId id) {
    return *forest_->blocks[static_cast<std::size_t>(id / kForestBlockSlots)];
  }

  EdgeStore store_;
  /// The team opts_.team points at when the caller gave none.
  std::unique_ptr<ThreadTeam> own_team_;
  DynamicMsfOptions opts_;
  /// The forest's membership bits; never null.
  std::shared_ptr<ForestBits> forest_ = std::make_shared<ForestBits>();
  std::size_t forest_size_ = 0;
  std::uint64_t forest_version_ = 0;
  /// How many times share_forest sealed the table and its blocks.
  std::uint64_t seals_ = 0;
  /// forest_edge_ids' cache, and the forest version it holds (0 = none).
  mutable std::vector<graph::EdgeId> ids_;
  mutable std::uint64_t ids_version_ = 0;
  graph::ExactSum weight_sum_;  ///< the forest's weight, exact
  graph::Weight weight_ = 0;    ///< weight_sum_, rounded
  std::size_t trees_ = 0;
  std::uint64_t path_max_batches_ = 0;
  /// The rooted forest, one link per vertex (allocated by the first
  /// build), valid while rooted_.
  std::unique_ptr<Link[]> links_;
  bool rooted_ = false;
  /// Kruskal-pass scratch, n entries each, allocated by the first
  /// build_rooted and left clear between batches: a vertex's stop bit (see
  /// apply_by_kruskal) and its number in the scan's union-find (kNoSlot
  /// when unnumbered), each reset through the list of the vertices a batch
  /// touched.
  std::vector<std::uint64_t> stop_;
  std::vector<graph::VertexId> stopped_;
  std::vector<std::uint32_t> slot_;
  std::vector<graph::VertexId> numbered_;
  /// The compression's scratch, one entry per numbered vertex, resized each
  /// batch: its child count and then its key number, and the chain below it
  /// so far (see apply_by_kruskal).
  std::vector<std::uint32_t> key_;
  std::vector<Record> below_;
  /// The piece search's scratch, left clear the same way: the piece of
  /// each vertex the search named or reached (kNoSlot when none), and the
  /// vertices its naming walks labelled.
  std::vector<std::uint32_t> piece_;
  std::vector<graph::VertexId> claimed_;
  /// The store's incidence lists, for the piece search; built on the first
  /// cut batch, dropped by compact_store.
  IncidenceList incidence_;
};

}  // namespace smp::dynamic
