#include <numeric>
#include <vector>

#include "graph/exact_sum.hpp"
#include "graph/types.hpp"
#include "seq/seq_msf.hpp"

namespace smp::seq {

using graph::EdgeId;
using graph::EdgeList;
using graph::kInvalidEdge;
using graph::MsfResult;
using graph::VertexId;
using graph::WeightOrder;

namespace {

/// Working edge carrying the original id through contractions.
struct CEdge {
  VertexId u, v;
  graph::Weight w;
  EdgeId orig;
};

}  // namespace

MsfResult boruvka_compact_msf(const EdgeList& g) {
  MsfResult res;
  VertexId n = g.num_vertices;
  if (n == 0) return res;

  std::vector<CEdge> edges;
  edges.reserve(g.edges.size());
  for (EdgeId i = 0; i < g.edges.size(); ++i) {
    const auto& e = g.edges[i];
    edges.push_back({e.u, e.v, e.w, i});
  }

  std::vector<EdgeId> best(n);
  std::vector<VertexId> label(n);
  while (!edges.empty()) {
    // find-min per (super)vertex.
    best.assign(n, kInvalidEdge);
    for (EdgeId i = 0; i < edges.size(); ++i) {
      const CEdge& e = edges[i];
      const WeightOrder key{e.w, e.orig};
      for (const VertexId x : {e.u, e.v}) {
        if (best[x] == kInvalidEdge ||
            key < WeightOrder{edges[best[x]].w, edges[best[x]].orig}) {
          best[x] = i;
        }
      }
    }

    // connect-components over the chosen pseudo-forest (sequential pointer
    // chasing; mutual-minimum pairs are the only cycles).
    std::vector<VertexId> parent(n);
    for (VertexId v = 0; v < n; ++v) {
      if (best[v] == kInvalidEdge) {
        parent[v] = v;
        continue;
      }
      const CEdge& e = edges[best[v]];
      parent[v] = e.u == v ? e.v : e.u;
    }
    for (VertexId v = 0; v < n; ++v) {
      if (parent[parent[v]] == v && v < parent[v]) parent[v] = v;
    }
    for (VertexId v = 0; v < n; ++v) {
      VertexId r = v;
      while (parent[r] != r) r = parent[r];
      // Path-compress for the relabel scan below.
      VertexId x = v;
      while (parent[x] != r) {
        const VertexId nx = parent[x];
        parent[x] = r;
        x = nx;
      }
    }

    // Record chosen edges once (smaller endpoint of a mutual pair wins).
    for (VertexId v = 0; v < n; ++v) {
      const EdgeId b = best[v];
      if (b == kInvalidEdge) continue;
      const CEdge& e = edges[b];
      const VertexId other = e.u == v ? e.v : e.u;
      if (best[other] != kInvalidEdge && edges[best[other]].orig == e.orig &&
          other < v) {
        continue;
      }
      res.edges.push_back({e.u, e.v, e.w});
      res.edge_ids.push_back(e.orig);
    }

    // compact-graph: dense relabel + full edge-list rebuild (the costly
    // materialization this baseline exists to exhibit).
    label.assign(n, 0);
    VertexId next_n = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (parent[v] == v) label[v] = next_n++;
    }
    std::vector<CEdge> next;
    next.reserve(edges.size());
    for (const CEdge& e : edges) {
      const VertexId su = label[parent[e.u]];
      const VertexId sv = label[parent[e.v]];
      if (su != sv) next.push_back({su, sv, e.w, e.orig});
    }
    edges.swap(next);
    n = next_n;
  }

  res.total_weight = graph::exact_sum(res.edges, [](const graph::WEdge& e) { return e.w; });
  res.num_trees = g.num_vertices - res.edges.size();
  return res;
}

}  // namespace smp::seq
