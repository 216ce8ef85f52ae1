#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/msf.hpp"
#include "graph/edge_list.hpp"
#include "graph/msf_result.hpp"
#include "pprim/rng.hpp"

namespace smp::test {

/// Sorted input-edge indices of a forest — the canonical identity of an MSF
/// under our total edge order; equal across all correct algorithms.
inline std::vector<graph::EdgeId> sorted_ids(const graph::MsfResult& r) {
  std::vector<graph::EdgeId> ids = r.edge_ids;
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Run one algorithm with given thread count (MST-BC base size kept small so
/// tests exercise the parallel phase, not just the sequential fallback).
inline graph::MsfResult run_alg(const graph::EdgeList& g, core::Algorithm alg,
                                int threads, graph::VertexId bc_base = 32) {
  core::MsfOptions opts;
  opts.algorithm = alg;
  opts.threads = threads;
  opts.bc_base_size = bc_base;
  return core::minimum_spanning_forest(g, opts);
}

/// A multigraph in which each of `pairs` random endpoint pairs appears 1-8
/// times, in both orientations, with weights drawn from four values so ties
/// are common, the copies shuffled through the input: what every
/// parallel-edge dedupe path is checked on.
inline graph::EdgeList duplicate_heavy_graph(graph::VertexId n,
                                             std::size_t pairs,
                                             std::uint64_t seed) {
  Rng rng(seed);
  graph::EdgeList g(n);
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto u = static_cast<graph::VertexId>(rng.next_below(n));
    const auto v = static_cast<graph::VertexId>((u + 1 + rng.next_below(n - 1)) % n);
    const auto copies = 1 + rng.next_below(8);
    for (std::uint64_t c = 0; c < copies; ++c) {
      const graph::Weight w = 0.25 * static_cast<double>(1 + rng.next_below(4));
      g.edges.push_back(rng.next_below(2) == 0 ? graph::WEdge{u, v, w}
                                               : graph::WEdge{v, u, w});
    }
  }
  for (std::size_t i = g.edges.size(); i > 1; --i) {
    std::swap(g.edges[i - 1], g.edges[rng.next_below(i)]);
  }
  return g;
}

/// Weight equality up to floating-point summation-order noise: different
/// algorithms add the same edge weights in different orders.
#define EXPECT_WEIGHT_EQ(a, b) \
  EXPECT_NEAR((a), (b), 1e-9 * std::max(1.0, std::abs(b)))

}  // namespace smp::test
