#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "graph/edge_list.hpp"
#include "graph/msf_result.hpp"
#include "pprim/fault.hpp"
#include "pprim/thread_team.hpp"

namespace smp::core {

/// The algorithms of the paper.  kBorEL/kBorAL/kBorALM/kBorFAL are the four
/// parallel Borůvka variants of §2; kMstBC is the new Prim/Borůvka hybrid of
/// §4; the kSeq* entries are the sequential baselines of §5.2 routed through
/// the same interface.
enum class Algorithm {
  kBorEL,
  kBorAL,
  kBorALM,
  kBorFAL,
  kMstBC,
  kSeqPrim,
  kSeqKruskal,
  kSeqBoruvka,
  // The extension beyond the paper (see DESIGN.md).  Its id is pinned: the
  // ids of removed algorithms (8, 9, 10, 11) are never reused, so an id an
  // older build logged or printed still names the same algorithm.
  kChampion = 12,  ///< the library default: Bor-FAL behind a heavy-edge
                   ///< filter (core/champion.hpp) — Kruskal over the lightest
                   ///< min(2n, 15m/16) edges, drop every heavier edge inside
                   ///< one light component, finish on the contracted survivors
};
static_assert(static_cast<int>(Algorithm::kChampion) == 12);

[[nodiscard]] std::string_view to_string(Algorithm a);

/// The command-line / server spelling of every Algorithm — the one table
/// every front end parses through, in the order usage lines list them.
struct AlgorithmName {
  std::string_view name;
  Algorithm alg;
};
inline constexpr AlgorithmName kAlgorithmNames[] = {
    {"champion", Algorithm::kChampion},
    {"bor-el", Algorithm::kBorEL},
    {"bor-al", Algorithm::kBorAL},
    {"bor-alm", Algorithm::kBorALM},
    {"bor-fal", Algorithm::kBorFAL},
    {"mst-bc", Algorithm::kMstBC},
    {"prim", Algorithm::kSeqPrim},
    {"kruskal", Algorithm::kSeqKruskal},
    {"boruvka", Algorithm::kSeqBoruvka},
};

/// Looks `name` up in kAlgorithmNames.  Throws Error{kInvalidInput}
/// "unknown algorithm 'X' (valid: champion bor-el ...)" otherwise.
[[nodiscard]] Algorithm parse_algorithm(std::string_view name);

/// The paper's five parallel algorithms, for iteration in tests/benches.
inline constexpr Algorithm kParallelAlgorithms[] = {
    Algorithm::kBorEL, Algorithm::kBorAL, Algorithm::kBorALM,
    Algorithm::kBorFAL, Algorithm::kMstBC};

/// Wall-clock seconds spent in each step of the Borůvka iteration — the
/// instrumentation behind the Fig. 2 breakdown.
struct StepTimes {
  double find_min = 0;
  double connect = 0;
  double compact = 0;
  double other = 0;  ///< setup, result assembly, base-case solve (MST-BC)
  /// Named parts OF `other` (already counted there, so total() and `other`
  /// are unchanged): the weight sort of the packed prologue (core/
  /// weight_sort.hpp: its pivot and splitter pick, bucketed walk and bucket
  /// sorts), the packed-arc build, the final result assembly, and
  /// Champion's heavy-edge filter stage (the same sort's pick and walk over
  /// the light edges, then the survivor filter).  Engines without a step
  /// leave it at 0.  Champion's rank_build, arc_build and find_min are its
  /// survivor pass's alone; its light pass's bucket sorts and Kruskal scan,
  /// which share one region, count as connect.
  double rank_build = 0;
  double arc_build = 0;
  double assembly = 0;
  double filter = 0;
  /// Arcs Bor-FAL's per-vertex find-min cursors stepped past across all
  /// iterations — each one proven a permanent self-loop, so a full solve
  /// counts all 2m (0 for the eager algorithms, which drop dead arcs in
  /// compact-graph instead).
  std::uint64_t pruned_arcs = 0;

  [[nodiscard]] double total() const { return find_min + connect + compact + other; }

  StepTimes& operator+=(const StepTimes& o) {
    find_min += o.find_min;
    connect += o.connect;
    compact += o.compact;
    other += o.other;
    rank_build += o.rank_build;
    arc_build += o.arc_build;
    assembly += o.assembly;
    filter += o.filter;
    pruned_arcs += o.pruned_arcs;
    return *this;
  }
};

/// Region accounting for the fused SPMD execution model: how many ThreadTeam
/// regions each algorithm iteration forked.  A fused algorithm runs one
/// persistent region per Borůvka iteration (regions_per_iteration() == 1);
/// anything larger means the iteration still pays extra fork/join wake-ups.
/// Champion's counters, like its MsfOptions::iteration_stats rows, come
/// from its survivor pass alone: the light scan runs no Borůvka iteration,
/// and its filter regions run between iterations and count in neither.
struct PhaseStats {
  std::uint64_t iterations = 0;  ///< Borůvka iterations / MST-BC rounds
  std::uint64_t regions = 0;     ///< SPMD regions started inside those iterations

  [[nodiscard]] double regions_per_iteration() const {
    return iterations == 0
               ? 0.0
               : static_cast<double>(regions) / static_cast<double>(iterations);
  }

  PhaseStats& operator+=(const PhaseStats& o) {
    iterations += o.iterations;
    regions += o.regions;
    return *this;
  }
};

/// Per-iteration size trace (Table 1: how fast the edge list shrinks); MST-BC
/// adds one row per round.
struct IterationStat {
  graph::VertexId vertices = 0;    ///< supervertices at iteration start
  graph::EdgeId directed_edges = 0;  ///< live directed edges (the "2m" column)
  /// Live arcs divided by arc-array size at iteration start (1.0 for the
  /// eager paths, which rebuild the array every iteration).  Bor-FAL
  /// counts the arcs at or after its per-vertex cursors — the arcs behind
  /// them are dead — so it falls below 1 as the cursors move.
  double live_fraction = 1.0;
};

struct MsfOptions {
  Algorithm algorithm = Algorithm::kChampion;
  /// Worker threads (the paper's p).  <= 1 runs inline.
  int threads = 1;
  /// Seed for MST-BC's random vertex permutation.
  std::uint64_t seed = 1;
  /// MST-BC: below this many supervertices the rest is solved sequentially.
  graph::VertexId bc_base_size = 512;
  /// Optional out-params for instrumentation; may be nullptr.
  StepTimes* step_times = nullptr;
  std::vector<IterationStat>* iteration_stats = nullptr;
  PhaseStats* phase_stats = nullptr;
  /// Optional execution budget (cancellation token, deadline, arena memory
  /// cap), checked at per-iteration checkpoints; may be nullptr.  The budget
  /// outlives the call and may be shared with a canceller thread.
  const ExecutionBudget* budget = nullptr;
  /// When a parallel variant fails with std::bad_alloc (heap exhaustion or
  /// the budget's arena cap), recompute sequentially with Kruskal instead of
  /// failing the request; the result records the degradation.  When false,
  /// the dispatcher surfaces Error{kOutOfMemory}.
  bool allow_sequential_fallback = true;
};

/// Validate a request before running it: endpoint ranges / self-loops in the
/// graph, `threads >= 1`, `bc_base_size >= 1`, a known Algorithm, and
/// validate_edge_count.  Throws Error{kInvalidInput}; called by
/// minimum_spanning_forest.
void validate_request(const graph::EdgeList& g, const MsfOptions& opts);

/// The edge bound of the packed find-min.  Bor-EL, Bor-FAL and Champion pack
/// a 32-bit weight rank beside a 32-bit arc index or target, so they accept
/// at most 2^31 edges (find_min_packable); Bor-AL, Bor-ALM, MST-BC and the
/// sequential baselines have no edge limit.  Throws
/// Error{kInvalidInput} naming the limit and the unbounded algorithms when
/// `num_edges` exceeds the bound of `alg`.  validate_request calls it with
/// the edge list's size, minimum_spanning_forest_compressed with the
/// compressed graph's edge count.
void validate_edge_count(Algorithm alg, std::size_t num_edges);

/// Per-iteration cooperative checkpoint.  Called on the orchestrating thread
/// between parallel regions, or by one thread of a region between two of its
/// barriers (DynamicMsf's piece search does so between rounds), where a
/// throw poisons the barrier and the region unwinds.  Each check under a budget
/// is a hit of the fault point "budget.check", so a test can count them, or
/// cancel at the k-th one (FaultKind::kCancel).
inline void iteration_checkpoint(const MsfOptions& opts, std::string_view where) {
  if (opts.budget == nullptr) return;
  fault_point("budget.check");
  opts.budget->check(where);
}

/// Compute the minimum spanning forest of `g`.
///
/// All algorithms resolve equal weights by input edge index, so the forest
/// (as a set of input edge indices) is unique and identical across
/// algorithms and thread counts.
graph::MsfResult minimum_spanning_forest(const graph::EdgeList& g,
                                         const MsfOptions& opts = {});

/// As above, but parallel algorithms run on the caller's persistent `team`
/// instead of a team created per call — the thread-spawn cost matters when a
/// long-lived service solves many small candidate sets back to back.  The
/// run's p is team.size(); MsfOptions::threads is ignored.  The team must be
/// idle (regions must not nest), so callers sharing one team across threads
/// serialize solves externally.
graph::MsfResult minimum_spanning_forest(ThreadTeam& team,
                                         const graph::EdgeList& g,
                                         const MsfOptions& opts = {});

/// Candidate-set entry point for the batch-dynamic subsystem (and anything
/// else that already knows a superset of the forest).
///
/// Solves the MSF of `candidates`, a subset of some larger graph's edges,
/// where `candidates.edges[i]` is the caller's edge `candidate_ids[i]`.
/// The ids must be *strictly increasing*: WeightOrder breaks weight ties by
/// edge index, so ascending ids make the candidate-local total order agree
/// with the full graph's order — exactly what the sparsification identity
/// MSF(G ∪ B) = MSF(F ∪ B) needs to return the same forest, edge for edge,
/// as a from-scratch run on the full graph.  The returned MsfResult has
/// edge_ids mapped back into the caller's id space.
///
/// Throws Error{kInvalidInput} on a size mismatch or non-increasing ids.
graph::MsfResult minimum_spanning_forest_of_candidates(
    const graph::EdgeList& candidates,
    std::span<const graph::EdgeId> candidate_ids, const MsfOptions& opts = {});

/// Team-reusing variant of the candidate-set entry point (see the
/// ThreadTeam overload of minimum_spanning_forest for the contract).
graph::MsfResult minimum_spanning_forest_of_candidates(
    ThreadTeam& team, const graph::EdgeList& candidates,
    std::span<const graph::EdgeId> candidate_ids, const MsfOptions& opts = {});

/// Entry points taking an existing thread team (reused across calls; the
/// team's size is the p of the run).  These are what the dispatcher calls.
graph::MsfResult bor_el_msf(ThreadTeam& team, const graph::EdgeList& g,
                            const MsfOptions& opts = {});
graph::MsfResult bor_al_msf(ThreadTeam& team, const graph::EdgeList& g,
                            const MsfOptions& opts = {});
graph::MsfResult bor_alm_msf(ThreadTeam& team, const graph::EdgeList& g,
                             const MsfOptions& opts = {});
graph::MsfResult bor_fal_msf(ThreadTeam& team, const graph::EdgeList& g,
                             const MsfOptions& opts = {});
graph::MsfResult mst_bc_msf(ThreadTeam& team, const graph::EdgeList& g,
                            const MsfOptions& opts = {});

}  // namespace smp::core
