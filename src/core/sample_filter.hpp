#pragma once

#include <cstdint>

#include "core/msf.hpp"
#include "graph/edge_list.hpp"
#include "graph/msf_result.hpp"
#include "pprim/thread_team.hpp"

namespace smp::core {

/// MSF by random sampling + cycle-property filtering, after Cole, Klein &
/// Tarjan [8] (cited in §3 of the paper as the linear-work approach that
/// "first uses random sampling to find a spanning forest F, then identifies
/// the heavy edges to F and excludes them from the final MST").
///
/// Recursion: flip a coin per edge; compute the MSF F of the sampled half;
/// drop every unsampled edge that is F-heavy (checked with ForestPathMax in
/// a parallel pass); solve the survivors — in expectation only O(n) of them
/// — with Kruskal.  Randomness affects only the running time, never the
/// result: the returned forest is the unique MSF under WeightOrder.  The
/// coin flips are seeded from `opts.seed`; `opts.budget` is checked once per
/// recursion level and before each level's final Kruskal.
graph::MsfResult sample_filter_msf(ThreadTeam& team, const graph::EdgeList& g,
                                   const MsfOptions& opts = {});

/// Convenience overload owning a temporary team.
graph::MsfResult sample_filter_msf(const graph::EdgeList& g, int threads = 1,
                                   std::uint64_t seed = 1);

}  // namespace smp::core
