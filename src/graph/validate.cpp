#include "graph/validate.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "graph/exact_sum.hpp"
#include "graph/stats.hpp"
#include "seq/union_find.hpp"

namespace smp::graph {

ForestCheck validate_spanning_forest(const EdgeList& g, std::span<const WEdge> forest) {
  ForestCheck res;

  // 1. Membership (multiset-aware): every forest edge must match a distinct
  //    graph edge with identical endpoints and weight.
  //    Every record gets index 0, so the canonical order sorts by weight last.
  std::vector<CanonicalEdge> have;
  have.reserve(g.edges.size());
  for (const auto& e : g.edges) have.push_back(CanonicalEdge::of(e, 0));
  std::sort(have.begin(), have.end());
  std::vector<CanonicalEdge> want;
  want.reserve(forest.size());
  for (const auto& e : forest) want.push_back(CanonicalEdge::of(e, 0));
  std::sort(want.begin(), want.end());
  {
    std::size_t hi = 0;
    for (const auto& e : want) {
      while (hi < have.size() && have[hi] < e) ++hi;
      if (hi == have.size() || !(have[hi] == e)) {
        res.error = "forest edge not present in graph";
        return res;
      }
      ++hi;  // consume the matched graph edge
    }
  }

  // 2. Acyclicity.
  smp::seq::UnionFind uf(g.num_vertices);
  for (const auto& e : forest) {
    if (e.u >= g.num_vertices || e.v >= g.num_vertices) {
      res.error = "forest edge endpoint out of range";
      return res;
    }
    if (!uf.unite(e.u, e.v)) {
      res.error = "forest contains a cycle";
      return res;
    }
  }
  res.total_weight = exact_sum(forest, [](const WEdge& e) { return e.w; });

  // 3. Maximality: exactly n - #components(g) edges.
  const std::size_t comps = num_components(g);
  const std::size_t expect =
      static_cast<std::size_t>(g.num_vertices) - comps;
  if (forest.size() != expect) {
    res.error = "forest does not span every component (got " +
                std::to_string(forest.size()) + " edges, want " +
                std::to_string(expect) + ")";
    return res;
  }

  res.num_trees = comps;
  res.ok = true;
  return res;
}

std::vector<CanonicalEdge> canonical_winners(const EdgeList& g) {
  std::vector<CanonicalEdge> recs;
  recs.reserve(g.edges.size());
  for (EdgeId i = 0; i < g.edges.size(); ++i) {
    recs.push_back(CanonicalEdge::of(g.edges[i], i));
  }
  std::sort(recs.begin(), recs.end());
  recs.erase(std::unique(recs.begin(), recs.end(),
                         [](const CanonicalEdge& a, const CanonicalEdge& b) {
                           return a.same_pair(b);
                         }),
             recs.end());
  return recs;
}

EdgeList canonicalize_parallel_edges(const EdgeList& g,
                                     std::vector<EdgeId>* kept_ids) {
  std::vector<char> kept(g.edges.size(), 0);
  std::size_t winners = 0;
  {
    const std::vector<CanonicalEdge> recs = canonical_winners(g);
    for (const CanonicalEdge& r : recs) kept[r.idx] = 1;
    winners = recs.size();
  }
  EdgeList out(g.num_vertices);
  out.edges.reserve(winners);
  if (kept_ids != nullptr) {
    kept_ids->clear();
    kept_ids->reserve(winners);
  }
  for (EdgeId i = 0; i < g.edges.size(); ++i) {
    if (!kept[i]) continue;
    out.edges.push_back(g.edges[i]);
    if (kept_ids != nullptr) kept_ids->push_back(i);
  }
  return out;
}

bool verify_cut_property(const EdgeList& g, std::span<const WEdge> forest,
                         std::string* error) {
  // Forest adjacency.
  std::vector<std::vector<VertexId>> adj(g.num_vertices);
  for (const auto& e : forest) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::vector<char> side(g.num_vertices, 0);
  std::vector<VertexId> frontier;
  for (std::size_t fe = 0; fe < forest.size(); ++fe) {
    const WEdge& cut_edge = forest[fe];
    // Flood the u-side of the tree with edge (u,v) removed.
    std::fill(side.begin(), side.end(), 0);
    frontier.clear();
    frontier.push_back(cut_edge.u);
    side[cut_edge.u] = 1;
    while (!frontier.empty()) {
      const VertexId x = frontier.back();
      frontier.pop_back();
      for (const VertexId y : adj[x]) {
        if ((x == cut_edge.u && y == cut_edge.v) ||
            (x == cut_edge.v && y == cut_edge.u)) {
          continue;  // skip the removed edge itself
        }
        if (!side[y]) {
          side[y] = 1;
          frontier.push_back(y);
        }
      }
    }
    // No graph edge crossing the cut may be strictly lighter.
    for (const auto& e : g.edges) {
      if (side[e.u] != side[e.v] && e.w < cut_edge.w) {
        if (error) {
          *error = "cut property violated: forest edge (" +
                   std::to_string(cut_edge.u) + "," + std::to_string(cut_edge.v) +
                   ") w=" + std::to_string(cut_edge.w) + " vs graph edge (" +
                   std::to_string(e.u) + "," + std::to_string(e.v) +
                   ") w=" + std::to_string(e.w);
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace smp::graph
