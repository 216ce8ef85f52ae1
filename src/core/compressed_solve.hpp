#pragma once

#include "core/msf.hpp"
#include "graph/compressed_csr.hpp"
#include "pprim/thread_team.hpp"

namespace smp::core {

/// MSF over a compressed CSR (the billion-edge path, see
/// graph/compressed_csr.hpp).
///
/// Edge ids in the result are *compressed* edge ids — positions in the
/// canonical row walk — which index g.weights() and g.decode_edge_list()
/// alike.  Since CompressedCsr::build keeps the canonically-minimal parallel
/// edge, the forest equals minimum_spanning_forest(g.decode_edge_list())
/// edge-for-edge and bit-for-bit.
///
/// Dispatch: when the algorithm contracts via Bor-FAL (kBorFAL, or
/// kChampion, which runs the Bor-FAL engine), the solve STREAMS: weight
/// ranks come from the flat f64 section, the varint rows are decoded once
/// into one ⟨u, v⟩ word per edge for the packed ⟨rank, target⟩ arc build
/// (build_packed_input over CompressedCsr), and result assembly is one more
/// row walk — no EdgeList or CsrGraph is ever materialized.  Peak memory
/// past the graph itself is ~36 B/edge, during the packed input build.
/// kChampion runs its heavy-edge filter (core/champion.hpp) over the same
/// row walk: only the light edges and the survivors are ever gathered, as
/// flat arrays.
/// Every other algorithm falls back to eager decode_edge_list() + the
/// standard dispatcher, trading memory for generality.  The edge bound is
/// checked first, on g.num_edges() (validate_edge_count): Bor-EL, Bor-FAL
/// and Champion reject m > 2^31 before anything is decoded.
[[nodiscard]] graph::MsfResult minimum_spanning_forest_compressed(
    const graph::CompressedCsr& g, const MsfOptions& opts = {});

/// Team-reusing variant (see the ThreadTeam overload of
/// minimum_spanning_forest for the contract).
[[nodiscard]] graph::MsfResult minimum_spanning_forest_compressed(
    ThreadTeam& team, const graph::CompressedCsr& g,
    const MsfOptions& opts = {});

}  // namespace smp::core
