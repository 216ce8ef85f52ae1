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
/// Dispatch: kChampion STREAMS — its heavy-edge filter (core/champion.hpp)
/// walks the varint rows block by block, only the light edges and the
/// survivors are ever gathered, as flat arrays, and result assembly is one
/// more row walk; no EdgeList or CsrGraph is ever materialized.  Every other
/// algorithm, Bor-FAL included, decodes eagerly (decode_edge_list() + the
/// standard dispatcher), trading memory for generality.  The edge bound is
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
