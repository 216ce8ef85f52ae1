#include "query/forest_index.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <utility>

#include "core/connected_components.hpp"
#include "core/find_min.hpp"
#include "graph/edge_list.hpp"
#include "graph/msf_result.hpp"
#include "pprim/counting_sort.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/simd.hpp"

namespace smp::query {

namespace {

/// One directed forest arc for the CSR build: counting-sorted by src, so
/// adjacency runs are contiguous and (being a stable sort over arcs emitted
/// in ascending forest-position order) deterministically ordered.
struct Arc {
  graph::VertexId src;
  graph::VertexId dst;
  std::uint32_t eidx;  ///< forest position (index into Body::fedges)
};

/// top_k candidate under the full edge order: monotone weight bits, ties by
/// store id.
struct Cand {
  std::uint64_t bits;
  graph::EdgeId id;
  friend bool operator<(const Cand& a, const Cand& b) {
    return a.bits != b.bits ? a.bits < b.bits : a.id < b.id;
  }
};

}  // namespace

std::uint64_t labels_digest(std::span<const graph::VertexId> labels) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const graph::VertexId l : labels) {
    std::uint32_t x = l;
    for (int b = 0; b < 4; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

ForestIndex::ForestIndex(ThreadTeam& team, const dynamic::EdgeStore& store,
                         std::span<const graph::EdgeId> forest_ids,
                         std::uint64_t version) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t mf = forest_ids.size();
  stats_.version = version;

  // 1. Gather the forest, ascending store id.  Position in fedges is the
  // input index build_weight_ranks breaks ties by, so rank order ==
  // ⟨weight, store-id⟩ — the repo-wide WeightOrder.
  auto b = std::make_shared<Body>();
  b->fedges.resize(mf);
  b->fids.assign(forest_ids.begin(), forest_ids.end());
  parallel_for(team, mf, [&](std::size_t i) {
    b->fedges[i] = store.edge(forest_ids[i]);
  });
  build(team, *b, store.num_vertices(), t0);
  b_ = std::move(b);
}

ForestIndex::ForestIndex(ThreadTeam& team, graph::VertexId num_vertices,
                         std::vector<graph::WEdge> fedges,
                         std::vector<graph::EdgeId> fids,
                         std::uint64_t version) {
  const auto t0 = std::chrono::steady_clock::now();
  stats_.version = version;
  auto b = std::make_shared<Body>();
  b->fedges = std::move(fedges);
  b->fids = std::move(fids);
  build(team, *b, num_vertices, t0);
  b_ = std::move(b);
}

std::shared_ptr<const ForestIndex> ForestIndex::restamped(
    std::uint64_t version) const {
  Stats st = stats_;
  st.version = version;
  return std::shared_ptr<const ForestIndex>(new ForestIndex(b_, st, built_at_));
}

void ForestIndex::build(ThreadTeam& team, Body& b, graph::VertexId n,
                        std::chrono::steady_clock::time_point t0) {
  const std::size_t mf = b.fedges.size();
  stats_.num_vertices = n;
  stats_.num_forest_edges = mf;

  graph::EdgeList fel(n);
  fel.edges = b.fedges;
  std::vector<std::uint32_t> rank = core::build_weight_ranks(team, fel);

  // 2. CSR adjacency over the 2·mf arcs (stable counting sort by source).
  std::vector<Arc> arcs(2 * mf);
  parallel_for(team, mf, [&](std::size_t i) {
    const graph::WEdge& e = b.fedges[i];
    const auto ei = static_cast<std::uint32_t>(i);
    arcs[2 * i] = Arc{e.u, e.v, ei};
    arcs[2 * i + 1] = Arc{e.v, e.u, ei};
  });
  std::vector<Arc> adj(arcs.size());
  std::vector<std::uint64_t> off;
  {
    std::vector<std::uint64_t> counts;
    team.run([&](TeamCtx& ctx) {
      counting_sort_in_region(
          ctx, std::span<const Arc>(arcs), std::span<Arc>(adj), n,
          [](const Arc& a) { return static_cast<std::size_t>(a.src); }, off,
          counts);
    });
  }
  arcs.clear();
  arcs.shrink_to_fit();

  // 3. Deterministic component labels; the root of each component is its
  // minimum vertex id.
  core::CcResult cc = core::connected_components(team, fel);
  b.comp = std::move(cc.label);
  stats_.num_components = cc.num_components;
  const std::size_t C = cc.num_components;

  std::vector<graph::VertexId> root(C, graph::kInvalidVertex);
  std::vector<std::uint32_t> comp_size(C, 0);
  parallel_for(team, n, [&](std::size_t v) {
    const graph::VertexId c = b.comp[v];
    std::atomic_ref<std::uint32_t>(comp_size[c])
        .fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref<graph::VertexId> r(root[c]);
    graph::VertexId cur = r.load(std::memory_order_relaxed);
    const auto vv = static_cast<graph::VertexId>(v);
    while (vv < cur &&
           !r.compare_exchange_weak(cur, vv, std::memory_order_relaxed)) {
    }
  });
  std::vector<std::uint32_t> comp_base(C + 1, 0);
  for (std::size_t c = 0; c < C; ++c) {
    comp_base[c + 1] = comp_base[c] + comp_size[c];
  }

  // 4. Per-component DFS (components dispatched dynamically across the
  // team — each walk is sequential, so deep path-like trees cost O(size)
  // with a tiny constant instead of a level-synchronous BFS's O(depth)
  // rounds).  Fills parent/depth/parent-key and the Euler tour: preorder
  // positions, each component contiguous at comp_base[c].
  b.parent.resize(n);
  b.depth.resize(n);
  b.pkey.assign(n, 0);
  b.tour.resize(n);
  b.tin.resize(n);
  b.tout.resize(n);
  std::atomic<std::size_t> cursor{0};
  team.run([&](TeamCtx& ctx) {
    std::vector<std::pair<graph::VertexId, std::uint64_t>> stack;
    for_range_dynamic(ctx, cursor, C, 16, [&](std::size_t c) {
      const graph::VertexId r = root[c];
      std::uint32_t pos = comp_base[c];
      b.parent[r] = r;
      b.depth[r] = 0;
      b.tin[r] = pos;
      b.tour[pos++] = r;
      stack.clear();
      stack.emplace_back(r, off[r]);
      while (!stack.empty()) {
        auto& [x, cur] = stack.back();
        if (cur == off[x + 1]) {
          b.tout[x] = pos;
          stack.pop_back();
          continue;
        }
        const Arc& a = adj[cur++];
        if (a.dst == b.parent[x]) continue;
        const graph::VertexId w = a.dst;
        b.parent[w] = x;
        b.depth[w] = b.depth[x] + 1;
        b.pkey[w] = core::pack_key(rank[a.eidx], a.eidx);
        b.tin[w] = pos;
        b.tour[pos++] = w;
        stack.emplace_back(w, off[w]);
      }
    });
  });

  std::uint32_t max_depth = 0;
  {
    // Parallel max-reduce over depths (deterministic: max is commutative).
    std::atomic<std::uint32_t> md{0};
    team.run([&](TeamCtx& ctx) {
      std::uint32_t local = 0;
      for_range(ctx, n, [&](std::size_t v) {
        local = std::max(local, b.depth[v]);
      });
      std::uint32_t cur = md.load(std::memory_order_relaxed);
      while (local > cur &&
             !md.compare_exchange_weak(cur, local, std::memory_order_relaxed)) {
      }
    });
    max_depth = md.load(std::memory_order_relaxed);
  }
  stats_.max_depth = max_depth;

  // 5. Skip-level tables: level k jumps 2^k ancestors carrying the max
  // packed key of the jumped edges (roots self-loop with key 0 — a real
  // path always contributes at least one genuine parent key, so the
  // neutral 0 never decides a bottleneck).
  b.levels = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::bit_width(max_depth)));
  stats_.levels = b.levels;
  b.up.resize(static_cast<std::size_t>(b.levels) * n);
  b.upkey.resize(static_cast<std::size_t>(b.levels) * n);
  parallel_for(team, n, [&](std::size_t v) {
    b.up[v] = b.parent[v];
    b.upkey[v] = b.pkey[v];
  });
  for (std::uint32_t k = 1; k < b.levels; ++k) {
    const graph::VertexId* up_prev = b.up.data() + (k - 1) * std::size_t{n};
    const std::uint64_t* key_prev = b.upkey.data() + (k - 1) * std::size_t{n};
    graph::VertexId* up_k = b.up.data() + k * std::size_t{n};
    std::uint64_t* key_k = b.upkey.data() + k * std::size_t{n};
    parallel_for(team, n, [&](std::size_t v) {
      const graph::VertexId mid = up_prev[v];
      up_k[v] = up_prev[mid];
      key_k[v] = std::max(key_prev[v], key_prev[mid]);
    });
  }

  built_at_ = std::chrono::steady_clock::now();
  stats_.build_seconds =
      std::chrono::duration<double>(built_at_ - t0).count();
}

std::uint64_t ForestIndex::path_max_key(graph::VertexId u,
                                        graph::VertexId v) const {
  const Body& b = *b_;
  const std::size_t n = stats_.num_vertices;
  std::uint64_t best = 0;
  if (b.depth[u] < b.depth[v]) std::swap(u, v);
  std::uint32_t diff = b.depth[u] - b.depth[v];
  for (std::uint32_t k = 0; diff != 0; ++k, diff >>= 1) {
    if (diff & 1) {
      best = std::max(best, b.upkey[k * n + u]);
      u = b.up[k * n + u];
    }
  }
  if (u != v) {
    for (std::uint32_t k = b.levels; k-- > 0;) {
      if (b.up[k * n + u] != b.up[k * n + v]) {
        best = std::max(best, b.upkey[k * n + u]);
        best = std::max(best, b.upkey[k * n + v]);
        u = b.up[k * n + u];
        v = b.up[k * n + v];
      }
    }
    best = std::max(best, b.pkey[u]);
    best = std::max(best, b.pkey[v]);
  }
  return best;
}

ForestIndex::PathMax ForestIndex::path_max(graph::VertexId u,
                                           graph::VertexId v) const {
  PathMax r;
  if (b_->comp[u] != b_->comp[v]) return r;
  r.connected = true;
  if (u == v) return r;
  const auto pos =
      static_cast<std::size_t>(core::key_index(path_max_key(u, v)));
  r.edge_id = b_->fids[pos];
  r.u = b_->fedges[pos].u;
  r.v = b_->fedges[pos].v;
  r.weight = b_->fedges[pos].w;
  return r;
}

graph::EdgeId ForestIndex::bottleneck(graph::VertexId u,
                                      graph::VertexId v) const {
  return b_->fids[static_cast<std::size_t>(
      core::key_index(path_max_key(u, v)))];
}

graph::VertexId ForestIndex::lca(graph::VertexId u, graph::VertexId v) const {
  const Body& b = *b_;
  const std::size_t n = stats_.num_vertices;
  if (b.depth[u] < b.depth[v]) std::swap(u, v);
  std::uint32_t diff = b.depth[u] - b.depth[v];
  for (std::uint32_t k = 0; diff != 0; ++k, diff >>= 1) {
    if (diff & 1) u = b.up[k * n + u];
  }
  if (u == v) return u;
  for (std::uint32_t k = b.levels; k-- > 0;) {
    if (b.up[k * n + u] != b.up[k * n + v]) {
      u = b.up[k * n + u];
      v = b.up[k * n + v];
    }
  }
  return b.parent[u];
}

const core::Dendrogram& ForestIndex::dendrogram() const {
  std::lock_guard<std::mutex> lk(b_->dend_mu);
  if (!b_->dend) {
    // A forest-shaped MsfResult: edge "ids" are the store ids, so the
    // dendrogram's Kruskal pass breaks weight ties exactly like every
    // solver in the repo.
    graph::MsfResult msf;
    msf.edges = b_->fedges;
    msf.edge_ids = b_->fids;
    b_->dend = std::make_unique<core::Dendrogram>(stats_.num_vertices, msf);
  }
  return *b_->dend;
}

ForestIndex::Cut ForestIndex::cut(graph::Weight threshold,
                                  std::vector<graph::VertexId>* labels) const {
  const core::Dendrogram& d = dendrogram();
  Cut c;
  std::vector<graph::VertexId> l = d.cut_at(threshold, &c.num_clusters);
  c.labels_digest = labels_digest(l);
  if (labels != nullptr) *labels = std::move(l);
  return c;
}

std::vector<ForestIndex::TopkEdge> ForestIndex::top_k(
    ThreadTeam& team, const dynamic::StoreView& view, std::size_t k,
    std::optional<graph::Weight> lambda) const {
  if (k == 0) return {};
  std::vector<graph::VertexId> labels;
  if (lambda.has_value()) (void)cut(*lambda, &labels);
  const graph::VertexId* cl = labels.empty() ? nullptr : labels.data();
  // Weight bits for live cluster-crossing edges, all-ones (loses every min)
  // for the rest.
  const auto key_of = [&](graph::EdgeId id) {
    if (!view.is_live(id)) return core::kEmptyKey;
    const graph::WEdge& e = view.edge(id);
    if (cl != nullptr && cl[e.u] == cl[e.v]) return core::kEmptyKey;
    return core::monotone_weight_bits(e.w);
  };

  const auto slots = static_cast<std::size_t>(view.size());
  const std::size_t block = 1024;
  const std::size_t num_blocks = (slots + block - 1) / block;
  const int p = team.size();
  // Per-thread bounded worst-first heaps (heap top == current k-th bound).
  std::vector<std::vector<Cand>> heaps(static_cast<std::size_t>(p));
  std::atomic<std::size_t> cursor{0};
  team.run([&](TeamCtx& ctx) {
    auto& heap = heaps[static_cast<std::size_t>(ctx.tid())];
    heap.reserve(k);
    std::vector<std::uint64_t> keys(block);
    const auto consider = [&](Cand c) {
      if (heap.size() < k) {
        heap.push_back(c);
        std::push_heap(heap.begin(), heap.end());
      } else if (c < heap.front()) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = c;
        std::push_heap(heap.begin(), heap.end());
      }
    };
    for_range_dynamic(ctx, cursor, num_blocks, 4, [&](std::size_t b) {
      const std::size_t lo = b * block;
      const std::size_t hi = std::min(lo + block, slots);
      const std::size_t bn = hi - lo;
      for (std::size_t i = 0; i < bn; ++i) keys[i] = key_of(lo + i);
      // SIMD skim: repeatedly pull the block's argmin; once it cannot beat
      // the heap's bound the whole remainder of the block is out.
      for (;;) {
        const std::size_t a = u64_argmin(keys.data(), bn);
        const std::uint64_t bits = keys[a];
        if (bits == core::kEmptyKey) break;
        const graph::EdgeId id = lo + a;
        if (heap.size() == k) {
          const Cand& worst = heap.front();
          if (bits > worst.bits) break;
          if (bits == worst.bits && id > worst.id) {
            keys[a] = core::kEmptyKey;
            continue;
          }
        }
        consider(Cand{bits, id});
        keys[a] = core::kEmptyKey;
      }
    });
  });

  std::vector<Cand> all;
  for (const auto& h : heaps) all.insert(all.end(), h.begin(), h.end());
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  std::vector<TopkEdge> out;
  out.reserve(all.size());
  for (const Cand& c : all) {
    const graph::WEdge& e = view.edge(c.id);
    out.push_back(TopkEdge{c.id, e.u, e.v, e.w});
  }
  return out;
}

}  // namespace smp::query
