#include "core/compressed_solve.hpp"

#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/bor_fal_packed.hpp"
#include "core/champion.hpp"
#include "core/detail.hpp"
#include "core/find_min.hpp"
#include "graph/edge_list.hpp"
#include "pprim/timer.hpp"
#include "seq/seq_msf.hpp"

namespace smp::core {

using graph::CompressedCsr;
using graph::EdgeId;
using graph::EdgeList;
using graph::MsfResult;
using graph::VertexId;
using graph::Weight;

namespace {

/// Whether the request streams from the compressed rows: Bor-FAL and
/// Champion, whose survivor pass is the Bor-FAL engine, do; every other
/// algorithm keeps its own arc layout and goes eager.
[[nodiscard]] bool streamable(Algorithm alg) {
  return alg == Algorithm::kBorFAL || alg == Algorithm::kChampion;
}

/// Streaming solve.  Champion runs its five steps over the row walk.
/// Bor-FAL takes its ranks from the flat weight section and its packed arcs
/// straight from the varint rows, and a parallel row walk materializes just
/// the forest edges (detail::assemble_result over the implicit edge-id
/// order).
MsfResult solve_streaming(ThreadTeam& team, const CompressedCsr& g,
                          const MsfOptions& opts) {
  if (opts.algorithm == Algorithm::kChampion) return champion_msf(team, g, opts);
  StepTimes st;
  WallTimer phase;
  const std::size_t m = g.num_edges();

  PackedSolveInput in = build_packed_input(team, g, st);
  st.other += phase.elapsed_s();

  std::vector<EdgeId> ids = bor_fal_packed_engine(team, std::move(in), opts, st);

  phase.reset();
  MsfResult res = detail::assemble_result(
      team, g.num_vertices(), m, std::move(ids),
      [&](EdgeId begin, EdgeId end, auto&& fn) {
        g.for_each_edge(begin, end, [&](EdgeId e, VertexId u, VertexId v, Weight w) {
          fn(e, graph::WEdge{u, v, w});
        });
      });
  st.assembly += phase.elapsed_s();
  st.other += st.assembly;
  if (opts.step_times) *opts.step_times += st;
  return res;
}

MsfResult solve_with(ThreadTeam* external_team, const CompressedCsr& g,
                     const MsfOptions& opts) {
  // Option validation only: the graph itself was validated at build/open
  // time (no self-loops, in-range monotone targets, finite weights), so the
  // per-edge scan of validate_request has nothing left to check.
  validate_request(EdgeList{}, opts);
  validate_edge_count(opts.algorithm, g.num_edges());
  iteration_checkpoint(opts, "request start");

  try {
    if (streamable(opts.algorithm)) {
      if (external_team != nullptr) return solve_streaming(*external_team, g, opts);
      ThreadTeam team(opts.threads);
      return solve_streaming(team, g, opts);
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
    if (!opts.allow_sequential_fallback) {
      throw Error(ErrorCode::kOutOfMemory,
                  std::string(to_string(opts.algorithm)) +
                      " exhausted its memory budget (fallback disabled)");
    }
    iteration_checkpoint(opts, "sequential fallback");
    try {
      MsfResult r = seq::kruskal_msf(g.decode_edge_list());
      r.degraded_to_sequential = true;
      return r;
    } catch (const std::bad_alloc&) {
      throw Error(ErrorCode::kOutOfMemory,
                  "sequential fallback also exhausted memory");
    }
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
