#include "graph/generators.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "pprim/rng.hpp"

namespace smp::graph {

namespace {

/// Canonical 64-bit key of an undirected vertex pair (u < v after swap).
std::uint64_t pair_key(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

}  // namespace

EdgeList random_graph(VertexId n, EdgeId m, std::uint64_t seed) {
  if (n < 2 && m > 0) throw std::invalid_argument("random_graph: n < 2 with m > 0");
  const auto max_edges =
      static_cast<EdgeId>(n) * (static_cast<EdgeId>(n) - 1) / 2;
  if (m > max_edges) throw std::invalid_argument("random_graph: m exceeds n*(n-1)/2");

  smp::Rng rng(seed);
  // Draw unique unordered pairs by oversample + sort + unique, topping up
  // until exactly m distinct pairs exist.  For sparse graphs (m << n^2) this
  // terminates in one or two rounds.
  // Drawing exactly the missing count each round (never more) keeps the
  // final set uniform over m-subsets: it is the LEDA "add random edges,
  // skip duplicates" process in batches.  A top-up round sorts only its new
  // keys and merges them into the already sorted, already unique prefix.
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(m));
  while (keys.size() < m) {
    const auto sorted = static_cast<std::ptrdiff_t>(keys.size());
    const EdgeId need = m - static_cast<EdgeId>(keys.size());
    for (EdgeId i = 0; i < need; ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      auto v = static_cast<VertexId>(rng.next_below(n - 1));
      if (v >= u) ++v;  // uniform over v != u
      keys.push_back(pair_key(u, v));
    }
    std::sort(keys.begin() + sorted, keys.end());
    std::inplace_merge(keys.begin(), keys.begin() + sorted, keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }

  EdgeList g(n);
  g.edges.reserve(m);
  for (const std::uint64_t k : keys) {
    const auto u = static_cast<VertexId>(k >> 32);
    const auto v = static_cast<VertexId>(k & 0xFFFFFFFFu);
    g.add_edge(u, v, rng.next_double());
  }
  return g;
}

EdgeList mesh2d(VertexId rows, VertexId cols, std::uint64_t seed) {
  return mesh2d_p(rows, cols, 1.0, seed);
}

EdgeList mesh2d_p(VertexId rows, VertexId cols, double p, std::uint64_t seed) {
  smp::Rng rng(seed);
  const auto n = static_cast<EdgeId>(rows) * cols;
  if (n > kInvalidVertex) throw std::invalid_argument("mesh2d_p: too many vertices");
  EdgeList g(static_cast<VertexId>(n));
  g.edges.reserve(static_cast<std::size_t>(2.0 * static_cast<double>(n) * p));
  const auto id = [cols](VertexId r, VertexId c) {
    return r * cols + c;
  };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (c + 1 < cols && rng.next_double() < p) {
        g.add_edge(id(r, c), id(r, c + 1), rng.next_double());
      }
      if (r + 1 < rows && rng.next_double() < p) {
        g.add_edge(id(r, c), id(r + 1, c), rng.next_double());
      }
    }
  }
  return g;
}

EdgeList mesh3d_p(VertexId nx, VertexId ny, VertexId nz, double p, std::uint64_t seed) {
  smp::Rng rng(seed);
  const auto n = static_cast<EdgeId>(nx) * ny * nz;
  if (n > kInvalidVertex) throw std::invalid_argument("mesh3d_p: too many vertices");
  EdgeList g(static_cast<VertexId>(n));
  g.edges.reserve(static_cast<std::size_t>(3.0 * static_cast<double>(n) * p));
  const auto id = [ny, nz](VertexId x, VertexId y, VertexId z) {
    return (x * ny + y) * nz + z;
  };
  for (VertexId x = 0; x < nx; ++x) {
    for (VertexId y = 0; y < ny; ++y) {
      for (VertexId z = 0; z < nz; ++z) {
        if (x + 1 < nx && rng.next_double() < p) {
          g.add_edge(id(x, y, z), id(x + 1, y, z), rng.next_double());
        }
        if (y + 1 < ny && rng.next_double() < p) {
          g.add_edge(id(x, y, z), id(x, y + 1, z), rng.next_double());
        }
        if (z + 1 < nz && rng.next_double() < p) {
          g.add_edge(id(x, y, z), id(x, y, z + 1), rng.next_double());
        }
      }
    }
  }
  return g;
}

}  // namespace smp::graph
