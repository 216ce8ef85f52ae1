#include "core/dendrogram.hpp"

#include <limits>
#include <numeric>

#include "core/weight_sort.hpp"
#include "pprim/huge_pages.hpp"
#include "pprim/parallel_for.hpp"
#include "seq/union_find.hpp"

namespace smp::core {

using graph::EdgeId;
using graph::kInvalidVertex;
using graph::MsfResult;
using graph::VertexId;
using graph::Weight;
using graph::WEdge;

namespace {
constexpr std::uint32_t kNoJunction = std::numeric_limits<std::uint32_t>::max();
}  // namespace

Dendrogram::Dendrogram(VertexId num_vertices, const MsfResult& msf)
    : n_(num_vertices) {
  const std::size_t k = msf.edges.size();
  std::vector<std::size_t> by_id(k);
  std::iota(by_id.begin(), by_id.end(), std::size_t{0});
  std::sort(by_id.begin(), by_id.end(), [&](std::size_t a, std::size_t b) {
    return msf.edge_ids[a] < msf.edge_ids[b];
  });
  std::vector<WEdge> edges(k);
  std::vector<EdgeId> ids(k);
  for (std::size_t i = 0; i < k; ++i) {
    edges[i] = msf.edges[by_id[i]];
    ids[i] = msf.edge_ids[by_id[i]];
  }
  ThreadTeam team(1);
  build(team, edges, ids);
}

Dendrogram::Dendrogram(ThreadTeam& team, VertexId num_vertices,
                       std::span<const WEdge> edges,
                       std::span<const EdgeId> ids)
    : n_(num_vertices) {
  build(team, edges, ids);
}

void Dendrogram::build(ThreadTeam& team, std::span<const WEdge> edges,
                       std::span<const EdgeId> ids) {
  const std::size_t k = edges.size();
  // Kruskal over the forest (its edges never close a cycle), behind the
  // weight sort: tid 0 merges each bucket as soon as it is sorted.  Sort
  // ids are input positions, so weight ties break like the store id.  The
  // merged list is u's followed by v's, and the junction after u's tail
  // records the merge.
  std::vector<VertexId> head(n_);
  std::vector<VertexId> tail(n_);
  std::vector<VertexId> next(n_, kInvalidVertex);
  std::vector<std::uint32_t> after(n_, kNoJunction);
  std::iota(head.begin(), head.end(), VertexId{0});
  std::iota(tail.begin(), tail.end(), VertexId{0});
  seq::UnionFind uf(n_);
  merge_edge_.resize(k);
  auto ends = make_huge_for_overwrite<std::uint64_t>(k);
  sort_by_weight(
      team, k, [&](EdgeId i) { return edges[i].w; },
      [&](EdgeId begin, EdgeId end, auto&& fn) {
        for (EdgeId i = begin; i < end; ++i) fn(i, edges[i]);
      },
      {ends.get(), merge_edge_.data()},
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const VertexId a = uf.find(static_cast<VertexId>(ends[i] >> 32));
          const VertexId b = uf.find(static_cast<VertexId>(ends[i]));
          next[tail[a]] = head[b];
          after[tail[a]] = static_cast<std::uint32_t>(i);
          uf.unite(a, b);
          const VertexId r = uf.find(a);
          head[r] = head[a];
          tail[r] = tail[b];
        }
      });
  merge_height_.resize(k);
  merge_id_.resize(k);
  parallel_for(team, k, [&](std::size_t i) {
    merge_height_[i] = edges[merge_edge_[i]].w;
    merge_id_[i] = ids[merge_edge_[i]];
  });

  // Lay the runs out by ascending root id.
  pos_.resize(n_);
  run_.resize(n_);
  std::vector<std::uint32_t> junction(n_);
  std::uint32_t p = 0;
  for (VertexId r = 0; r < n_; ++r) {
    if (uf.parent_of(r) != r) continue;
    const std::uint32_t start = p;
    for (VertexId x = head[r]; x != kInvalidVertex; x = next[x]) {
      pos_[x] = p;
      run_[x] = start;
      junction[p++] = after[x];
    }
  }

  table_.push_back(std::move(junction));
  for (std::size_t len = 2; len < n_; len *= 2) {
    const std::vector<std::uint32_t>& prev = table_.back();
    std::vector<std::uint32_t> cur(prev.size() - len / 2);
    parallel_for(team, cur.size(), [&](std::size_t i) {
      cur[i] = std::max(prev[i], prev[i + len / 2]);
    });
    table_.push_back(std::move(cur));
  }
}

std::vector<VertexId> Dendrogram::labels_keeping(std::size_t merges_kept,
                                                 std::size_t* num_clusters) const {
  // One segment per cluster: a new one starts after every junction whose
  // merge is undone (and after every run).
  std::vector<VertexId> seg(n_);
  VertexId s = 0;
  for (std::size_t p = 0; p < n_; ++p) {
    seg[p] = s;
    if (table_[0][p] >= merges_kept) ++s;
  }
  std::vector<VertexId> dense(s, kInvalidVertex);
  std::vector<VertexId> label(n_);
  VertexId next = 0;
  for (VertexId v = 0; v < n_; ++v) {
    VertexId& d = dense[seg[pos_[v]]];
    if (d == kInvalidVertex) d = next++;
    label[v] = d;
  }
  if (num_clusters != nullptr) *num_clusters = next;
  return label;
}

std::vector<VertexId> Dendrogram::cut_at(Weight threshold,
                                         std::size_t* num_clusters) const {
  const auto it =
      std::upper_bound(merge_height_.begin(), merge_height_.end(), threshold);
  return labels_keeping(static_cast<std::size_t>(it - merge_height_.begin()),
                        num_clusters);
}

std::vector<VertexId> Dendrogram::cut_into(std::size_t k,
                                           std::size_t* num_clusters) const {
  // Every merge reduces the cluster count by one from n.
  const std::size_t clusters_all_kept = static_cast<std::size_t>(n_) - num_merges();
  const std::size_t want = std::max(k, clusters_all_kept);
  const std::size_t kept =
      want >= static_cast<std::size_t>(n_) ? 0 : static_cast<std::size_t>(n_) - want;
  return labels_keeping(std::min(kept, num_merges()), num_clusters);
}

}  // namespace smp::core
