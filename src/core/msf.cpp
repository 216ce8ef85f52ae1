#include "core/msf.hpp"

#include <algorithm>
#include <atomic>
#include <new>
#include <string>

#include "core/champion.hpp"
#include "core/detail.hpp"
#include "core/find_min.hpp"
#include "pprim/partition.hpp"
#include "pprim/thread_team.hpp"
#include "seq/seq_msf.hpp"

namespace smp::core {

std::string_view to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kBorEL:
      return "Bor-EL";
    case Algorithm::kBorAL:
      return "Bor-AL";
    case Algorithm::kBorALM:
      return "Bor-ALM";
    case Algorithm::kBorFAL:
      return "Bor-FAL";
    case Algorithm::kMstBC:
      return "MST-BC";
    case Algorithm::kSeqPrim:
      return "Prim";
    case Algorithm::kSeqKruskal:
      return "Kruskal";
    case Algorithm::kSeqBoruvka:
      return "Boruvka";
    case Algorithm::kChampion:
      return "Champion";
  }
  return "?";
}

Algorithm parse_algorithm(std::string_view name) {
  std::string valid;
  for (const AlgorithmName& row : kAlgorithmNames) {
    if (name == row.name) return row.alg;
    if (!valid.empty()) valid += ' ';
    valid += row.name;
  }
  throw Error(ErrorCode::kInvalidInput, "unknown algorithm '" +
                                            std::string(name) + "' (valid: " +
                                            valid + ")");
}

namespace {

[[nodiscard]] bool known_algorithm(Algorithm a) {
  switch (a) {
    case Algorithm::kBorEL:
    case Algorithm::kBorAL:
    case Algorithm::kBorALM:
    case Algorithm::kBorFAL:
    case Algorithm::kMstBC:
    case Algorithm::kSeqPrim:
    case Algorithm::kSeqKruskal:
    case Algorithm::kSeqBoruvka:
    case Algorithm::kChampion:
      return true;
  }
  return false;
}

// Below this many edges the endpoint check stays on the calling thread: a
// team region costs more than the scan.
constexpr std::size_t kParallelValidateCutoff = std::size_t{1} << 16;

void validate_options(const MsfOptions& opts) {
  if (!known_algorithm(opts.algorithm)) {
    throw Error(ErrorCode::kInvalidInput,
                "unknown algorithm id " +
                    std::to_string(static_cast<int>(opts.algorithm)));
  }
  if (opts.threads < 1) {
    throw Error(ErrorCode::kInvalidInput,
                "threads must be >= 1, got " + std::to_string(opts.threads));
  }
  if (opts.bc_base_size == 0) {
    throw Error(ErrorCode::kInvalidInput,
                "bc_base_size must be >= 1 (0 would be an empty base case)");
  }
}

/// Endpoint check: no self-loops, every endpoint below num_vertices.  Runs
/// on `team` when one is given and the list is large, one block per thread.
void validate_edges(ThreadTeam* team, const graph::EdgeList& g) {
  const auto bad = [&](const graph::WEdge& e) {
    return e.u == e.v || e.u >= g.num_vertices || e.v >= g.num_vertices;
  };
  const std::size_t m = g.edges.size();
  bool any_bad = false;
  if (team != nullptr && team->size() > 1 && m >= kParallelValidateCutoff) {
    std::atomic<bool> found{false};
    team->run([&](TeamCtx& ctx) {
      const IndexRange r = block_range(m, ctx.tid(), ctx.nthreads());
      for (std::size_t i = r.begin; i < r.end; ++i) {
        if (bad(g.edges[i])) {
          found.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
    any_bad = found.load(std::memory_order_relaxed);
  } else {
    any_bad = std::any_of(g.edges.begin(), g.edges.end(), bad);
  }
  if (any_bad) {
    throw Error(ErrorCode::kInvalidInput,
                "self-loop or out-of-range endpoint in edge list");
  }
}

}  // namespace

void validate_request(const graph::EdgeList& g, const MsfOptions& opts) {
  validate_options(opts);
  validate_edge_count(opts.algorithm, g.edges.size());
  validate_edges(nullptr, g);
}

void validate_edge_count(Algorithm alg, std::size_t num_edges) {
  const bool packed = alg == Algorithm::kBorEL || alg == Algorithm::kBorFAL ||
                      alg == Algorithm::kChampion;
  if (!packed || find_min_packable(num_edges)) return;
  throw Error(ErrorCode::kInvalidInput,
              std::string(to_string(alg)) + " handles at most 2^31 edges, got " +
                  std::to_string(num_edges) +
                  " (Bor-AL, Bor-ALM, MST-BC and the sequential baselines "
                  "have no edge limit)");
}

namespace {

/// The parallel-algorithm switch, shared by the per-call-team and
/// caller-team entry points.
graph::MsfResult dispatch_parallel(ThreadTeam& team, const graph::EdgeList& g,
                                   const MsfOptions& opts) {
  switch (opts.algorithm) {
    case Algorithm::kBorEL:
      return bor_el_msf(team, g, opts);
    case Algorithm::kBorAL:
      return bor_al_msf(team, g, opts);
    case Algorithm::kBorALM:
      return bor_alm_msf(team, g, opts);
    case Algorithm::kBorFAL:
      return bor_fal_msf(team, g, opts);
    case Algorithm::kMstBC:
      return mst_bc_msf(team, g, opts);
    case Algorithm::kChampion:
      return champion_msf(team, g, opts);
    default:
      throw Error(ErrorCode::kInvalidInput, "unreachable algorithm dispatch");
  }
}

/// Common body: `external_team` null means "create a team of opts.threads
/// for this call", non-null means "run on the caller's persistent team".
graph::MsfResult solve_with(ThreadTeam* external_team, const graph::EdgeList& g,
                            const MsfOptions& opts) {
  validate_options(opts);
  validate_edge_count(opts.algorithm, g.edges.size());
  validate_edges(external_team, g);
  iteration_checkpoint(opts, "request start");
  try {
    switch (opts.algorithm) {
      case Algorithm::kSeqPrim:
        return seq::prim_msf(g);
      case Algorithm::kSeqKruskal:
        return seq::kruskal_msf(g);
      case Algorithm::kSeqBoruvka:
        return seq::boruvka_msf(g);
      default:
        break;
    }
  } catch (const std::bad_alloc&) {
    // Sequential baselines have nothing to degrade to.
    throw Error(ErrorCode::kOutOfMemory,
                std::string(to_string(opts.algorithm)) + " exhausted memory");
  }
  try {
    if (external_team != nullptr) {
      return dispatch_parallel(*external_team, g, opts);
    }
    ThreadTeam team(opts.threads);
    return dispatch_parallel(team, g, opts);
    // ~ThreadTeam joins the (now idle) workers even on the throw path: run()
    // never rethrows before every worker has left the region.
  } catch (const std::bad_alloc&) {
    return detail::sequential_fallback(
        opts, [&]() -> const graph::EdgeList& { return g; });
  }
}

void validate_candidate_ids(const graph::EdgeList& candidates,
                            std::span<const graph::EdgeId> candidate_ids) {
  if (candidate_ids.size() != candidates.edges.size()) {
    throw Error(ErrorCode::kInvalidInput,
                "candidate id count (" + std::to_string(candidate_ids.size()) +
                    ") does not match candidate edge count (" +
                    std::to_string(candidates.edges.size()) + ")");
  }
  for (std::size_t i = 1; i < candidate_ids.size(); ++i) {
    if (candidate_ids[i] <= candidate_ids[i - 1]) {
      throw Error(ErrorCode::kInvalidInput,
                  "candidate ids must be strictly increasing (position " +
                      std::to_string(i) + ")");
    }
  }
}

}  // namespace

graph::MsfResult minimum_spanning_forest(const graph::EdgeList& g,
                                         const MsfOptions& opts) {
  return solve_with(nullptr, g, opts);
}

graph::MsfResult minimum_spanning_forest(ThreadTeam& team,
                                         const graph::EdgeList& g,
                                         const MsfOptions& opts) {
  return solve_with(&team, g, opts);
}

graph::MsfResult minimum_spanning_forest_of_candidates(
    const graph::EdgeList& candidates,
    std::span<const graph::EdgeId> candidate_ids, const MsfOptions& opts) {
  validate_candidate_ids(candidates, candidate_ids);
  graph::MsfResult r = minimum_spanning_forest(candidates, opts);
  for (auto& id : r.edge_ids) id = candidate_ids[id];
  return r;
}

graph::MsfResult minimum_spanning_forest_of_candidates(
    ThreadTeam& team, const graph::EdgeList& candidates,
    std::span<const graph::EdgeId> candidate_ids, const MsfOptions& opts) {
  validate_candidate_ids(candidates, candidate_ids);
  graph::MsfResult r = minimum_spanning_forest(team, candidates, opts);
  for (auto& id : r.edge_ids) id = candidate_ids[id];
  return r;
}

}  // namespace smp::core
