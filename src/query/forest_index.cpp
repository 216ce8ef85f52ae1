#include "query/forest_index.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "core/find_min.hpp"
#include "pprim/parallel_for.hpp"

namespace smp::query {

namespace {

/// top_k candidate under the full edge order: monotone weight bits, ties by
/// store id.
struct Cand {
  std::uint64_t bits;
  graph::EdgeId id;
  friend bool operator<(const Cand& a, const Cand& b) {
    return a.bits != b.bits ? a.bits < b.bits : a.id < b.id;
  }
};

std::vector<graph::WEdge> gather_edges(ThreadTeam& team,
                                       const dynamic::EdgeStore& store,
                                       std::span<const graph::EdgeId> ids) {
  std::vector<graph::WEdge> fedges(ids.size());
  parallel_for(team, ids.size(),
               [&](std::size_t i) { fedges[i] = store.edge(ids[i]); });
  return fedges;
}

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
                         std::uint64_t version)
    : ForestIndex(team, store.num_vertices(),
                  gather_edges(team, store, forest_ids),
                  {forest_ids.begin(), forest_ids.end()}, version) {}

ForestIndex::ForestIndex(ThreadTeam& team, graph::VertexId num_vertices,
                         std::vector<graph::WEdge> fedges,
                         std::vector<graph::EdgeId> fids,
                         std::uint64_t version) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t mf = fedges.size();
  b_ = std::make_shared<const Body>(team, num_vertices, std::move(fedges),
                                    std::move(fids));
  built_at_ = std::chrono::steady_clock::now();
  stats_.version = version;
  stats_.num_vertices = num_vertices;
  stats_.num_forest_edges = mf;
  stats_.num_components = num_vertices - mf;
  stats_.build_seconds =
      std::chrono::duration<double>(built_at_ - t0).count();
}

std::shared_ptr<const ForestIndex> ForestIndex::restamped(
    std::uint64_t version) const {
  Stats st = stats_;
  st.version = version;
  return std::shared_ptr<const ForestIndex>(new ForestIndex(b_, st, built_at_));
}

ForestIndex::PathMax ForestIndex::path_max(graph::VertexId u,
                                           graph::VertexId v) const {
  const core::Dendrogram& d = b_->dend;
  PathMax r;
  if (!d.connected(u, v)) return r;
  r.connected = true;
  if (u == v) return r;
  const std::size_t i = d.merge_edge(d.path_max(u, v));
  r.edge_id = b_->fids[i];
  r.u = b_->fedges[i].u;
  r.v = b_->fedges[i].v;
  r.weight = b_->fedges[i].w;
  return r;
}

ForestIndex::Cut ForestIndex::cut(graph::Weight threshold,
                                  std::vector<graph::VertexId>* labels) const {
  Cut c;
  std::vector<graph::VertexId> l = b_->dend.cut_at(threshold, &c.num_clusters);
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
  // Only live cluster-crossing edges qualify.  Checked after the bound,
  // which rejects almost every slot from its weight alone (a tombstoned
  // slot keeps its edge, so reading it is safe).
  const auto qualifies = [&](graph::EdgeId id, const graph::WEdge& e) {
    return view.is_live(id) && (cl == nullptr || cl[e.u] != cl[e.v]);
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
    // The heap top once the heap holds k candidates; until then it admits
    // every finite weight (none maps to all-ones).
    Cand bound{core::kEmptyKey, 0};
    for_range_dynamic(ctx, cursor, num_blocks, 4, [&](std::size_t b) {
      const std::size_t hi = std::min((b + 1) * block, slots);
      for (std::size_t id = b * block; id < hi; ++id) {
        const graph::WEdge& e = view.edge(id);
        const Cand c{core::monotone_weight_bits(e.w), id};
        if (!(c < bound) || !qualifies(id, e)) continue;
        if (heap.size() == k) {
          std::pop_heap(heap.begin(), heap.end());
          heap.back() = c;
        } else {
          heap.push_back(c);
        }
        std::push_heap(heap.begin(), heap.end());
        if (heap.size() == k) bound = heap.front();
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
