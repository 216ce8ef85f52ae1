#include "core/compressed_solve.hpp"

#include <new>

#include "core/champion.hpp"
#include "core/detail.hpp"
#include "graph/edge_list.hpp"

namespace smp::core {

using graph::CompressedCsr;
using graph::EdgeList;
using graph::MsfResult;

namespace {

MsfResult solve_with(ThreadTeam* external_team, const CompressedCsr& g,
                     const MsfOptions& opts) {
  // Option validation only: the graph itself was validated at build/open
  // time (no self-loops, in-range monotone targets, finite weights), so the
  // per-edge scan of validate_request has nothing left to check.
  validate_request(EdgeList{}, opts);
  validate_edge_count(opts.algorithm, g.num_edges());
  iteration_checkpoint(opts, "request start");

  try {
    // Champion streams its five steps over the row walk.
    if (opts.algorithm == Algorithm::kChampion) {
      if (external_team != nullptr) return champion_msf(*external_team, g, opts);
      ThreadTeam team(opts.threads);
      return champion_msf(team, g, opts);
    }
    // Eager fallback: materialize the canonical edge list and hand it to the
    // standard dispatcher.  Compressed ids ARE positions in this list, so
    // edge_ids need no remapping.
    const EdgeList el = g.decode_edge_list();
    if (external_team != nullptr) {
      return minimum_spanning_forest(*external_team, el, opts);
    }
    return minimum_spanning_forest(el, opts);
  } catch (const std::bad_alloc&) {
    return detail::sequential_fallback(opts,
                                       [&] { return g.decode_edge_list(); });
  }
}

}  // namespace

MsfResult minimum_spanning_forest_compressed(const CompressedCsr& g,
                                             const MsfOptions& opts) {
  return solve_with(nullptr, g, opts);
}

MsfResult minimum_spanning_forest_compressed(ThreadTeam& team,
                                             const CompressedCsr& g,
                                             const MsfOptions& opts) {
  return solve_with(&team, g, opts);
}

}  // namespace smp::core
