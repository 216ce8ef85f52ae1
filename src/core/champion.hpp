#pragma once

#include <cstddef>

#include "core/msf.hpp"
#include "graph/edge_list.hpp"
#include "graph/msf_result.hpp"
#include "pprim/thread_team.hpp"

namespace smp::graph {
class CompressedCsr;
}

namespace smp::core {

/// Champion (Algorithm::kChampion, the library default): a Kruskal scan of
/// the lightest edges, then Bor-FAL's packed engine on what survives a
/// heavy-edge filter — the Filter-Borůvka of Sanders and Schimek and the
/// early heavy-edge exclusion §3 of the paper conjectures.
///
///   1. From a fixed strided sample of the edges, pick a pivot in the
///      order ⟨monotone_weight_bits(w), id⟩ so that about
///      min(kChampionLightPerVertex · n, ⌊15m/16⌋) edges are ≤ it ("light").
///      At m ≥ 32n/15 that is the 2n lightest edges; on sparser graphs it is
///      all but a heavy sixteenth of them.  Steps 1–3 are the library's one
///      weight sort (core/weight_sort.hpp) with the pivot as its target:
///      the sorted light part of the sample gives the weight buckets.
///   2. Gather the light edges on the team into their buckets in one walk
///      over the input, each bucket in ascending id order.
///   3. In one region, helpers sort the buckets in weight order, each in
///      cache, while tid 0 runs one union-find scan over every bucket as
///      soon as it is sorted: every edge that joins two sets is a light MSF
///      edge.  The sets, numbered densely, label the light components.
///   4. In one team pass keep every edge whose endpoint labels differ — all
///      of them heavy — relabelled to ⟨label u, label v⟩.  Every dropped
///      heavy edge closes a cycle of lighter edges, so it is in no MSF.
///   5. Run the engine on those survivors over the contracted vertex set,
///      and assemble the result once from both passes' ids.
///
/// Every input takes these five steps, the empty graph included.  Both
/// sub-solves keep ids ascending, so their local ⟨weight, index⟩ order
/// agrees with the input's WeightOrder and the forest is the unique MSF,
/// bit-identical to Bor-FAL's and Kruskal's.  Like Bor-FAL it accepts at
/// most 2^31 edges (validate_edge_count).
inline constexpr double kChampionLightPerVertex = 2.0;

/// Step 1's light target on n vertices and m edges:
/// min(kChampionLightPerVertex · n, ⌊15m/16⌋), below m whenever m > 0.
[[nodiscard]] std::size_t champion_light_target(graph::VertexId n, std::size_t m);

/// Champion over an edge list.
graph::MsfResult champion_msf(ThreadTeam& team, const graph::EdgeList& g,
                              const MsfOptions& opts = {});

/// Champion over a compressed CSR: the same five steps through the row
/// walk, with pivot weights read from the flat weight section — the one
/// solve that streams from a compressed CSR (core/compressed_solve.hpp).
/// Result ids are compressed edge ids.
graph::MsfResult champion_msf(ThreadTeam& team, const graph::CompressedCsr& g,
                              const MsfOptions& opts = {});

}  // namespace smp::core
