#include "core/filter_kruskal.hpp"

#include <algorithm>
#include <vector>

#include "graph/types.hpp"
#include "pprim/cacheline.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/partition.hpp"
#include "pprim/seq_sort.hpp"
#include "seq/union_find.hpp"

namespace smp::core {

using graph::EdgeId;
using graph::EdgeList;
using graph::MsfResult;
using graph::WeightOrder;

namespace {

/// Below this many edges we stop pivoting and run plain Kruskal.
constexpr std::size_t kBaseSize = 1024;

struct Ctx {
  ThreadTeam& team;
  const EdgeList& g;
  const MsfOptions& opts;
  seq::UnionFind uf;
  std::vector<EdgeId> out_ids;

  Ctx(ThreadTeam& t, const EdgeList& graph, const MsfOptions& o)
      : team(t), g(graph), opts(o), uf(graph.num_vertices) {}

  [[nodiscard]] WeightOrder key(EdgeId i) const { return {g.edges[i].w, i}; }

  /// Plain Kruskal on a small id range (sorted in place).
  void base_case(std::vector<EdgeId>& ids) {
    std::vector<EdgeId> scratch(ids.size());
    seq_sort(std::span<EdgeId>(ids), std::span<EdgeId>(scratch),
             [&](EdgeId a, EdgeId b) { return key(a) < key(b); });
    for (const EdgeId i : ids) {
      const auto& e = g.edges[i];
      if (uf.unite(e.u, e.v)) out_ids.push_back(i);
    }
  }

  /// Drop edges whose endpoints are already connected.  Parallel scan with
  /// per-thread buffers; reads of the union-find are safe here because no
  /// unites happen during the pass (find() uses path halving, which *writes*
  /// parents — so threads each use a read-only find instead).
  void filter(std::vector<EdgeId>& ids) {
    const std::size_t n = ids.size();
    const int p = team.size();
    if (p == 1 || n < 4096) {
      std::size_t w = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const auto& e = g.edges[ids[i]];
        if (uf.find(e.u) != uf.find(e.v)) ids[w++] = ids[i];
      }
      ids.resize(w);
      return;
    }
    std::vector<Padded<std::vector<EdgeId>>> kept(static_cast<std::size_t>(p));
    team.run([&](TeamCtx& ctx) {
      auto& local = kept[static_cast<std::size_t>(ctx.tid())].value;
      const IndexRange r = block_range(n, ctx.tid(), ctx.nthreads());
      for (std::size_t i = r.begin; i < r.end; ++i) {
        const auto& e = g.edges[ids[i]];
        if (find_ro(e.u) != find_ro(e.v)) local.push_back(ids[i]);
      }
    });
    ids.clear();
    for (auto& k : kept) {
      ids.insert(ids.end(), k.value.begin(), k.value.end());
      k.value.clear();
    }
  }

  /// Read-only find (no path compression) for the concurrent filter pass.
  [[nodiscard]] graph::VertexId find_ro(graph::VertexId x) const {
    while (true) {
      const graph::VertexId p = uf.parent_of(x);
      if (p == x) return x;
      x = p;
    }
  }

  void solve(std::vector<EdgeId>& ids) {
    iteration_checkpoint(opts, "Filter-Kruskal level");
    if (ids.size() <= kBaseSize) {
      base_case(ids);
      return;
    }
    // Pivot = median-of-three on weights.
    const WeightOrder a = key(ids.front());
    const WeightOrder b = key(ids[ids.size() / 2]);
    const WeightOrder c = key(ids.back());
    const WeightOrder pivot = std::max(std::min(a, b), std::min(std::max(a, b), c));

    const auto mid = std::partition(ids.begin(), ids.end(),
                                    [&](EdgeId i) { return key(i) < pivot; });
    std::vector<EdgeId> light(ids.begin(), mid);
    std::vector<EdgeId> heavy(mid, ids.end());
    ids.clear();
    ids.shrink_to_fit();

    if (light.empty()) {
      // All keys >= pivot (degenerate split, distinct keys make this rare):
      // fall back to the base case to guarantee progress.
      base_case(heavy);
      return;
    }
    solve(light);
    filter(heavy);
    solve(heavy);
  }
};

}  // namespace

MsfResult filter_kruskal_msf(ThreadTeam& team, const EdgeList& g,
                             const MsfOptions& opts) {
  Ctx ctx(team, g, opts);
  std::vector<EdgeId> ids(g.edges.size());
  for (EdgeId i = 0; i < g.edges.size(); ++i) ids[i] = i;
  ctx.solve(ids);

  MsfResult res;
  res.edge_ids = std::move(ctx.out_ids);
  std::sort(res.edge_ids.begin(), res.edge_ids.end());
  res.edges.reserve(res.edge_ids.size());
  for (const EdgeId id : res.edge_ids) {
    res.edges.push_back(g.edges[id]);
    res.total_weight += g.edges[id].w;
  }
  res.num_trees = g.num_vertices - res.edges.size();
  return res;
}

MsfResult filter_kruskal_msf(const EdgeList& g, int threads) {
  ThreadTeam team(threads);
  return filter_kruskal_msf(team, g);
}

}  // namespace smp::core
