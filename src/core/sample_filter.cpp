#include "core/sample_filter.hpp"

#include <algorithm>
#include <vector>

#include "core/verify_msf.hpp"
#include "graph/types.hpp"
#include "pprim/cacheline.hpp"
#include "pprim/partition.hpp"
#include "pprim/rng.hpp"
#include "pprim/seq_sort.hpp"
#include "seq/union_find.hpp"

namespace smp::core {

using graph::EdgeId;
using graph::EdgeList;
using graph::MsfResult;
using graph::VertexId;
using graph::WEdge;
using graph::WeightOrder;

namespace {

/// Kruskal restricted to a subset of edge ids; returns the MSF's ids.
std::vector<EdgeId> kruskal_subset(const EdgeList& g, std::vector<EdgeId> ids) {
  std::vector<EdgeId> scratch(ids.size());
  seq_sort(std::span<EdgeId>(ids), std::span<EdgeId>(scratch),
           [&](EdgeId a, EdgeId b) {
             return WeightOrder{g.edges[a].w, a} < WeightOrder{g.edges[b].w, b};
           });
  seq::UnionFind uf(g.num_vertices);
  std::vector<EdgeId> out;
  for (const EdgeId i : ids) {
    const auto& e = g.edges[i];
    if (uf.unite(e.u, e.v)) out.push_back(i);
  }
  return out;
}

std::vector<EdgeId> solve(ThreadTeam& team, const EdgeList& g,
                          const MsfOptions& opts, std::vector<EdgeId> ids,
                          Rng& rng, int depth) {
  iteration_checkpoint(opts, "Sample-Filter level");
  // Base: once the edge count is within a small factor of n, sampling stops
  // paying — Kruskal directly.
  if (depth == 0 ||
      ids.size() <= std::max<std::size_t>(4096, 2 * g.num_vertices)) {
    return kruskal_subset(g, std::move(ids));
  }

  // Coin-flip sample (expected half the edges).
  std::vector<EdgeId> sampled, unsampled;
  sampled.reserve(ids.size() / 2 + 16);
  unsampled.reserve(ids.size() / 2 + 16);
  for (const EdgeId i : ids) {
    (rng.next() & 1u ? sampled : unsampled).push_back(i);
  }
  ids.clear();
  ids.shrink_to_fit();
  if (sampled.empty() || unsampled.empty()) {
    std::vector<EdgeId> all = std::move(sampled);
    all.insert(all.end(), unsampled.begin(), unsampled.end());
    return kruskal_subset(g, std::move(all));
  }

  // MSF of the sample.
  std::vector<EdgeId> forest_ids =
      solve(team, g, opts, std::move(sampled), rng, depth - 1);

  // Filter the unsampled edges against the sample forest: keep an edge iff
  // it bridges two sample trees or beats the heaviest path edge (i.e. it is
  // F-light).  Parallel pass with per-thread buffers.
  std::vector<WEdge> forest_edges;
  forest_edges.reserve(forest_ids.size());
  for (const EdgeId i : forest_ids) forest_edges.push_back(g.edges[i]);
  const ForestPathMax fpm(g.num_vertices, forest_edges, forest_ids);

  std::vector<EdgeId> keep = std::move(forest_ids);
  const std::size_t nu = unsampled.size();
  if (team.size() == 1 || nu < 8192) {
    for (const EdgeId i : unsampled) {
      const auto& e = g.edges[i];
      const auto pm = fpm.path_max(e.u, e.v);
      if (!pm || WeightOrder{e.w, i} < *pm) keep.push_back(i);
    }
  } else {
    std::vector<Padded<std::vector<EdgeId>>> local(
        static_cast<std::size_t>(team.size()));
    team.run([&](TeamCtx& ctx) {
      auto& mine = local[static_cast<std::size_t>(ctx.tid())].value;
      const IndexRange r = block_range(nu, ctx.tid(), ctx.nthreads());
      for (std::size_t j = r.begin; j < r.end; ++j) {
        const EdgeId i = unsampled[j];
        const auto& e = g.edges[i];
        const auto pm = fpm.path_max(e.u, e.v);
        if (!pm || WeightOrder{e.w, i} < *pm) mine.push_back(i);
      }
    });
    for (auto& l : local) {
      keep.insert(keep.end(), l.value.begin(), l.value.end());
      l.value.clear();
    }
  }

  // In expectation |keep| = O(n): finish with Kruskal.
  iteration_checkpoint(opts, "Sample-Filter level");
  return kruskal_subset(g, std::move(keep));
}

}  // namespace

MsfResult sample_filter_msf(ThreadTeam& team, const EdgeList& g,
                            const MsfOptions& opts) {
  std::vector<EdgeId> ids(g.edges.size());
  for (EdgeId i = 0; i < g.edges.size(); ++i) ids[i] = i;
  Rng rng(opts.seed);
  std::vector<EdgeId> msf_ids =
      solve(team, g, opts, std::move(ids), rng, /*depth=*/8);

  MsfResult res;
  res.edge_ids = std::move(msf_ids);
  std::sort(res.edge_ids.begin(), res.edge_ids.end());
  res.edges.reserve(res.edge_ids.size());
  for (const EdgeId id : res.edge_ids) {
    res.edges.push_back(g.edges[id]);
    res.total_weight += g.edges[id].w;
  }
  res.num_trees = g.num_vertices - res.edges.size();
  return res;
}

MsfResult sample_filter_msf(const EdgeList& g, int threads, std::uint64_t seed) {
  ThreadTeam team(threads);
  MsfOptions opts;
  opts.seed = seed;
  return sample_filter_msf(team, g, opts);
}

}  // namespace smp::core
