#pragma once

#include <memory>
#include <vector>

#include "core/msf.hpp"
#include "graph/types.hpp"
#include "pprim/thread_team.hpp"

namespace smp::core {

/// Prebuilt input for the packed Bor-FAL iteration engine: everything the
/// Borůvka loop touches, with no reference to how the graph was stored.
/// bor_fal_msf fills it from an EdgeList; the compressed streaming path
/// (core/compressed_solve.cpp) fills it by decoding varint rows straight
/// into the key array — the engine cannot tell the difference, which is the
/// point: identical inputs, identical forests.
struct PackedSolveInput {
  graph::VertexId n = 0;
  /// n + 1 arc offsets (both directions of every edge).
  std::vector<graph::EdgeId> offsets;
  /// One ⟨weight-rank, target⟩ key per arc slot (see core/find_min.hpp).
  std::unique_ptr<std::uint64_t[]> keys;
  /// rank -> input edge id permutation from build_weight_ranks.
  std::vector<std::uint32_t> rank_to_edge;
};

/// The packed-key Bor-FAL Borůvka loop (see bor_fal.cpp for the algorithm
/// commentary) over prebuilt structures: consumes `in`, returns the
/// selected input-edge ids (unsorted — callers assemble the result).
/// Accumulates phase timings into `st`; honors the budget, instrumentation
/// and find-min knobs of `opts` exactly like bor_fal_msf's packed path —
/// it IS bor_fal_msf's packed path.  If `labels` is non-null it receives
/// the final vertex → supervertex map: one dense label in
/// [0, n − |forest|) per connected component of the input.
std::vector<graph::EdgeId> bor_fal_packed_engine(
    ThreadTeam& team, PackedSolveInput in, const MsfOptions& opts,
    StepTimes& st, std::vector<graph::VertexId>* labels = nullptr);

}  // namespace smp::core
