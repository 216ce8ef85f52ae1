#pragma once

#include "core/msf.hpp"
#include "graph/edge_list.hpp"
#include "graph/msf_result.hpp"
#include "pprim/thread_team.hpp"

namespace smp::core {

/// Bor-UF: Borůvka over a shared lock-free union-find — the design that the
/// systems following this paper (Galois, PBBS/GBBS) converged on.
///
/// Where the paper's four variants pay a compact-graph step to materialize
/// the contracted graph, Bor-UF never rebuilds anything: components live in
/// an AtomicUnionFind, find-min races atomic write-mins keyed by *current
/// root*, and each iteration merely filters the live edge array in parallel.
/// Included as an extension so the benches can situate the 2004 designs
/// against their modern successor on identical inputs.  `opts.budget` is
/// checked once per round.
graph::MsfResult bor_uf_msf(ThreadTeam& team, const graph::EdgeList& g,
                            const MsfOptions& opts = {});

/// Convenience overload owning a temporary team.
graph::MsfResult bor_uf_msf(const graph::EdgeList& g, int threads = 1);

}  // namespace smp::core
