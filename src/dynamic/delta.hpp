#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace smp::dynamic {

/// How a batch that cut forest edges found the non-tree edges crossing the
/// pieces of the cut forest (see DynamicMsf).
enum class ReplacementPath : std::uint8_t {
  kNone,    ///< no forest edge was cut, or the batch was solved from scratch
  kSearch,  ///< a search of the cut trees' smaller pieces
  kSweep,   ///< piece labels for every vertex and a sweep of every slot
};

/// What one DynamicMsf::apply_batch changed about the maintained forest.
///
/// Edge ids are *store ids*: stable indices into the owning EdgeStore,
/// assigned at insertion and never reused.  A forest edge deleted by the
/// batch shows up in `forest_removed`; a replacement edge promoted from the
/// non-tree reservoir (or a fresh insertion that entered the forest) shows
/// up in `forest_added`.
struct MsfDelta {
  /// Store ids that entered the forest this batch, ascending.
  std::vector<graph::EdgeId> forest_added;
  /// Store ids that left the forest this batch (deleted or displaced),
  /// ascending.
  std::vector<graph::EdgeId> forest_removed;
  /// Forest weight after the batch: sum over forest edges in ascending
  /// store-id order, so it is bit-identical to the same sum over a
  /// from-scratch solve (which returns the identical edge set).
  graph::Weight total_weight = 0;
  /// Trees in the forest after the batch (isolated vertices count).
  std::size_t num_trees = 0;
  /// Edges in the candidate set a solve would take — the retained forest,
  /// the crossing non-tree edges and the insertions, or the whole live graph
  /// on a scratch solve (diagnostics: how much the sparsification shrank the
  /// problem versus `live_edges`).  The Kruskal pass sorts far fewer
  /// records: see `path_records`.
  std::size_t candidate_edges = 0;
  /// Records the replacement solve read after a cut: the lightest crossing
  /// edge of each pair of pieces that any crossing edge joins (0 when
  /// nothing was cut).
  std::size_t crossing_pairs = 0;
  /// Forest edges the Kruskal pass's root-path walks gathered (0 on every
  /// other path).
  std::size_t gathered_edges = 0;
  /// Records the Kruskal pass sorted in place of the gathered edges: one
  /// per chain of the compressed path tree, at most one per key vertex
  /// (see DynamicMsf).
  std::size_t path_records = 0;
  /// Live edges in the store after the batch.
  std::size_t live_edges = 0;
  /// True when the crossover heuristic gave up on filtering and solved the
  /// whole live graph from scratch.
  bool recomputed_from_scratch = false;
  /// How a cut batch found its crossing edges.
  ReplacementPath replacement_path = ReplacementPath::kNone;
  /// Incidence arcs the piece search read, also when it passed its limit
  /// and the batch fell back to the sweep (0 when no search ran).
  std::size_t search_arcs = 0;
  /// Pieces the search named: one per cut edge, plus, when its first rounds
  /// left a child piece unexhausted, one per cut tree for the piece that
  /// holds its root (0 when no search ran).
  std::size_t search_pieces = 0;
  /// Rounds the search read in (see DynamicMsf).
  std::size_t search_rounds = 0;
  /// Arcs of the largest piece the search exhausted (0 when it exhausted
  /// none): the longest a search that read each piece on one thread would
  /// take.
  std::size_t largest_piece_arcs = 0;

  [[nodiscard]] bool changed_forest() const {
    return !forest_added.empty() || !forest_removed.empty();
  }
};

}  // namespace smp::dynamic
