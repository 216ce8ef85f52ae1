#pragma once

#include "core/msf.hpp"
#include "graph/edge_list.hpp"
#include "graph/msf_result.hpp"
#include "pprim/thread_team.hpp"

namespace smp::core {

/// MSF by cycle-property filtering (Filter-Kruskal).
///
/// §3 of the paper observes that for m/n ≥ 2 more than half the edges are
/// not in the MSF, and that excluding heavy edges early (the "cycle"
/// property, as in Cole et al. [8] and Katriel et al. [17, 18]) could beat
/// growing a spanning tree of the denser graph.  This is that idea as an
/// implementable algorithm: quicksort-style pivoting on the edge weights,
/// solving the light half first, then *filtering* the heavy half — dropping
/// every heavy edge whose endpoints the light forest already connects —
/// before recursing on what is left.
///
/// The filter pass (the dominant cost on dense inputs) runs on the team's
/// threads; union-find updates stay sequential.  `opts.budget` is checked
/// once per recursion level.
graph::MsfResult filter_kruskal_msf(ThreadTeam& team, const graph::EdgeList& g,
                                    const MsfOptions& opts = {});

/// Convenience overload owning a temporary team.
graph::MsfResult filter_kruskal_msf(const graph::EdgeList& g, int threads = 1);

}  // namespace smp::core
