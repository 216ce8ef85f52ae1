// ForestIndex: randomized property tests against brute force.  Path-max is
// checked against a BFS walk over the forest adjacency (independent of the
// dendrogram), connectivity against a union-find over the live edges, cut
// against a union-find restricted to edges with weight <= lambda, and topk
// against a full sort of the live store — across thread counts, after
// apply_batch refreshes, and on path, star, tie-heavy and disconnected
// inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>
#include <random>
#include <span>
#include <vector>

#include "core/dendrogram.hpp"
#include "dynamic/dynamic_msf.hpp"
#include "graph/generators.hpp"
#include "graph/types.hpp"
#include "pprim/thread_team.hpp"
#include "query/forest_index.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

struct UnionFind {
  std::vector<VertexId> p;
  explicit UnionFind(VertexId n) : p(n) {
    for (VertexId i = 0; i < n; ++i) p[i] = i;
  }
  VertexId find(VertexId x) {
    while (p[x] != x) x = p[x] = p[p[x]];
    return x;
  }
  void unite(VertexId a, VertexId b) { p[find(a)] = find(b); }
};

/// Brute-force bottleneck: BFS over the forest adjacency from u, then walk
/// v's parent chain collecting the ⟨weight, store-id⟩ maximum.
struct NaivePathMax {
  bool connected = false;
  EdgeId edge_id = kInvalidEdge;
  Weight weight = 0;
};

NaivePathMax naive_path_max(const query::ForestIndex& idx, VertexId n,
                            VertexId u, VertexId v) {
  // Forest adjacency rebuilt from the public edge list accessors.
  std::vector<std::vector<std::pair<VertexId, std::size_t>>> adj(n);
  for (std::size_t i = 0; i < idx.num_forest_edges(); ++i) {
    const WEdge& e = idx.forest_edge(i);
    adj[e.u].push_back({e.v, i});
    adj[e.v].push_back({e.u, i});
  }
  std::vector<std::int64_t> via(n, -1);  // forest position of the entry edge
  std::vector<VertexId> from(n, kInvalidVertex);
  std::queue<VertexId> q;
  q.push(u);
  from[u] = u;
  while (!q.empty()) {
    const VertexId x = q.front();
    q.pop();
    if (x == v) break;
    for (const auto& [y, i] : adj[x]) {
      if (from[y] != kInvalidVertex) continue;
      from[y] = x;
      via[y] = static_cast<std::int64_t>(i);
      q.push(y);
    }
  }
  NaivePathMax r;
  if (from[v] == kInvalidVertex) return r;
  r.connected = true;
  if (u == v) return r;
  bool has = false;
  for (VertexId x = v; x != u; x = from[x]) {
    const auto i = static_cast<std::size_t>(via[x]);
    const WEdge& e = idx.forest_edge(i);
    const EdgeId id = idx.forest_id(i);
    if (!has || e.w > r.weight || (e.w == r.weight && id > r.edge_id)) {
      r.weight = e.w;
      r.edge_id = id;
      has = true;
    }
  }
  return r;
}

/// Forest shapes beyond random graphs: a path (one tree of depth n - 1), a
/// star, four distinct weights only (heavy ties, two of them exactly on cut
/// thresholds), and many small trees beside isolated vertices.
std::vector<EdgeList> shaped_graphs() {
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> wgt(0.0, 1.0);
  std::vector<EdgeList> out;
  EdgeList path(300);
  EdgeList star(300);
  for (VertexId x = 1; x < 300; ++x) {
    path.add_edge(x - 1, x, wgt(rng));
    star.add_edge(0, x, wgt(rng));
  }
  out.push_back(std::move(path));
  out.push_back(std::move(star));
  EdgeList ties = random_graph(300, 900, 5);
  for (WEdge& e : ties.edges) e.w = std::floor(e.w * 4) / 4;
  out.push_back(std::move(ties));
  // Clusters of five vertices; every third cluster stays edgeless.
  EdgeList comps(400);
  std::uniform_int_distribution<VertexId> member(0, 4);
  for (VertexId c = 0; c < 80; ++c) {
    if (c % 3 == 0) continue;
    for (int i = 0; i < 6; ++i) {
      const VertexId u = 5 * c + member(rng), v = 5 * c + member(rng);
      if (u != v) comps.add_edge(u, v, wgt(rng));
    }
  }
  out.push_back(std::move(comps));
  return out;
}

dynamic::DynamicMsfOptions dyn_opts(ThreadTeam& team, std::uint64_t seed) {
  dynamic::DynamicMsfOptions o;
  o.team = &team;
  o.msf.seed = seed;
  return o;
}

class ForestIndexP : public ::testing::TestWithParam<int> {};

TEST_P(ForestIndexP, PathMaxAndConnMatchBruteForce) {
  const int p = GetParam();
  ThreadTeam team(p);
  // The random ones sparse enough that the forest has several components.
  std::vector<EdgeList> inputs = shaped_graphs();
  for (const auto& [n, m] : {std::pair<VertexId, EdgeId>{60, 40},
                             {200, 600}, {400, 300}}) {
    inputs.push_back(random_graph(n, m, 42 + n));
  }
  for (const EdgeList& g : inputs) {
    const VertexId n = g.num_vertices;
    dynamic::DynamicMsf d(g, dyn_opts(team, 1));
    const query::ForestIndex idx(
        team, d.store(), std::span<const EdgeId>(d.forest_edge_ids()), 1);
    EXPECT_EQ(idx.num_forest_edges(), d.forest_edge_ids().size());

    UnionFind uf(n);
    for (const WEdge& e : g.edges) uf.unite(e.u, e.v);

    std::mt19937_64 rng(7 * n);
    std::uniform_int_distribution<VertexId> vtx(0, n - 1);
    for (int t = 0; t < 300; ++t) {
      const VertexId u = vtx(rng), v = vtx(rng);
      EXPECT_EQ(idx.connected(u, v), uf.find(u) == uf.find(v));
      const auto pm = idx.path_max(u, v);
      const auto ref = naive_path_max(idx, n, u, v);
      ASSERT_EQ(pm.connected, ref.connected) << "u=" << u << " v=" << v;
      if (!ref.connected || u == v) continue;
      EXPECT_EQ(pm.edge_id, ref.edge_id) << "u=" << u << " v=" << v;
      EXPECT_EQ(pm.weight, ref.weight);
      // The reported endpoints are the bottleneck edge's endpoints.
      const WEdge& be = d.store().edge(pm.edge_id);
      EXPECT_TRUE((pm.u == be.u && pm.v == be.v) ||
                  (pm.u == be.v && pm.v == be.u));
    }
  }
}

TEST_P(ForestIndexP, BuildIsDeterministicAcrossThreadCounts) {
  const int p = GetParam();
  // The large input takes the team paths of the weight sort and the
  // range-max table; the small one is checked on every pair and every cut.
  for (const auto& [n, m] : {std::pair<VertexId, EdgeId>{500, 1500},
                             {40000, 120000}}) {
    const EdgeList g = random_graph(n, m, 99);
    ThreadTeam ref_team(1);
    dynamic::DynamicMsf ref_d(g, dyn_opts(ref_team, 3));
    const query::ForestIndex ref(
        ref_team, ref_d.store(),
        std::span<const EdgeId>(ref_d.forest_edge_ids()), 5);

    ThreadTeam team(p);
    dynamic::DynamicMsf d(g, dyn_opts(team, 3));
    const query::ForestIndex idx(
        team, d.store(), std::span<const EdgeId>(d.forest_edge_ids()), 5);

    ASSERT_EQ(idx.num_vertices(), ref.num_vertices());
    ASSERT_EQ(idx.num_forest_edges(), ref.num_forest_edges());
    const core::Dendrogram& a = idx.dendrogram();
    const core::Dendrogram& b = ref.dendrogram();
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(a.pos(v), b.pos(v)) << "v=" << v;
      ASSERT_EQ(a.run(v), b.run(v)) << "v=" << v;
    }
    const auto same_path_max = [&](VertexId u, VertexId v) {
      const auto x = idx.path_max(u, v);
      const auto y = ref.path_max(u, v);
      return x.connected == y.connected && x.edge_id == y.edge_id &&
             x.weight == y.weight;
    };
    const bool all_pairs = n <= 500;
    if (all_pairs) {
      for (VertexId u = 0; u < n; ++u) {
        for (VertexId v = 0; v < n; ++v) {
          ASSERT_TRUE(same_path_max(u, v)) << "u=" << u << " v=" << v;
        }
      }
    } else {
      std::mt19937_64 rng(11);
      std::uniform_int_distribution<VertexId> vtx(0, n - 1);
      for (int t = 0; t < 200000; ++t) {
        const VertexId u = vtx(rng), v = vtx(rng);
        ASSERT_TRUE(same_path_max(u, v)) << "u=" << u << " v=" << v;
      }
    }
    const std::size_t stride = all_pairs ? 1 : 997;
    for (std::size_t i = 0; i < a.num_merges(); i += stride) {
      std::vector<VertexId> la, lb;
      const auto ca = idx.cut(a.merge_height(i), &la);
      const auto cb = ref.cut(a.merge_height(i), &lb);
      ASSERT_EQ(ca.num_clusters, cb.num_clusters) << "merge " << i;
      ASSERT_EQ(ca.labels_digest, cb.labels_digest) << "merge " << i;
      ASSERT_EQ(la, lb) << "merge " << i;
    }
  }
}

TEST_P(ForestIndexP, RefreshAfterApplyBatch) {
  const int p = GetParam();
  ThreadTeam team(p);
  const VertexId n = 300;
  const EdgeList g = random_graph(n, 500, 17);
  dynamic::DynamicMsf d(g, dyn_opts(team, 2));
  std::mt19937_64 rng(23);
  std::uniform_int_distribution<VertexId> vtx(0, n - 1);
  std::uniform_real_distribution<double> wgt(0.0, 1.0);
  std::uint64_t version = 1;
  for (int round = 0; round < 4; ++round) {
    std::vector<WEdge> ins;
    for (int i = 0; i < 20; ++i) {
      VertexId u = vtx(rng), v = vtx(rng);
      while (v == u) v = vtx(rng);
      ins.push_back({u, v, wgt(rng)});
    }
    std::vector<EdgeId> del;
    if (!d.forest_edge_ids().empty()) {
      del.push_back(d.forest_edge_ids()[round % d.forest_edge_ids().size()]);
    }
    d.apply_batch(ins, del);
    const query::ForestIndex idx(
        team, d.store(), std::span<const EdgeId>(d.forest_edge_ids()),
        ++version);
    EXPECT_EQ(idx.version(), version);
    EXPECT_EQ(idx.num_forest_edges(), d.forest_edge_ids().size());
    for (int t = 0; t < 60; ++t) {
      const VertexId u = vtx(rng), v = vtx(rng);
      const auto pm = idx.path_max(u, v);
      const auto ref = naive_path_max(idx, n, u, v);
      ASSERT_EQ(pm.connected, ref.connected);
      if (ref.connected && u != v) {
        EXPECT_EQ(pm.edge_id, ref.edge_id);
        EXPECT_EQ(pm.weight, ref.weight);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ForestIndexP, ::testing::Values(1, 2, 4, 8));

TEST(QueryIndex, DisconnectedAndDegeneratePairs) {
  ThreadTeam team(2);
  // Two components by construction: vertices {0..4} and {5..9}.
  EdgeList g(10);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 0.5);
  g.add_edge(3, 4, 4.0);
  g.add_edge(5, 6, 1.0);
  g.add_edge(6, 7, 3.0);
  dynamic::DynamicMsf d(g, dyn_opts(team, 1));
  const query::ForestIndex idx(
      team, d.store(), std::span<const EdgeId>(d.forest_edge_ids()), 1);

  EXPECT_FALSE(idx.connected(0, 5));
  EXPECT_FALSE(idx.path_max(0, 5).connected);
  EXPECT_FALSE(idx.connected(4, 9));
  EXPECT_FALSE(idx.path_max(4, 9).connected);
  // Isolated vertices are their own component.
  EXPECT_TRUE(idx.connected(8, 8));
  EXPECT_FALSE(idx.connected(8, 9));
  // u == v: connected, but an empty path has no bottleneck edge.
  const auto self = idx.path_max(3, 3);
  EXPECT_TRUE(self.connected);
  EXPECT_EQ(self.edge_id, kInvalidEdge);
  // A straightforward in-tree pair.
  const auto pm = idx.path_max(0, 4);
  EXPECT_TRUE(pm.connected);
  EXPECT_EQ(pm.weight, 4.0);
}

TEST(QueryIndex, EmptyForest) {
  ThreadTeam team(2);
  dynamic::DynamicMsf d(VertexId{6}, dyn_opts(team, 1));
  const query::ForestIndex idx(
      team, d.store(), std::span<const EdgeId>(d.forest_edge_ids()), 1);
  EXPECT_EQ(idx.num_forest_edges(), 0u);
  EXPECT_FALSE(idx.connected(0, 5));
  EXPECT_FALSE(idx.path_max(0, 5).connected);
  const auto cut = idx.cut(1.0);
  EXPECT_EQ(cut.num_clusters, 6u);
}

TEST(QueryIndex, CutMatchesThresholdUnionFind) {
  ThreadTeam team(4);
  std::vector<EdgeList> inputs = shaped_graphs();
  inputs.push_back(random_graph(250, 700, 31));
  for (const EdgeList& g : inputs) {
    const VertexId n = g.num_vertices;
    dynamic::DynamicMsf d(g, dyn_opts(team, 1));
    const query::ForestIndex idx(
        team, d.store(), std::span<const EdgeId>(d.forest_edge_ids()), 1);

    for (const double lambda : {0.0, 0.05, 0.2, 0.5, 0.9, 1.0}) {
      // Single linkage at lambda == components of the graph restricted to
      // edges with weight <= lambda.
      UnionFind uf(n);
      for (const WEdge& e : g.edges) {
        if (e.w <= lambda) uf.unite(e.u, e.v);
      }
      std::vector<VertexId> roots;
      for (VertexId v = 0; v < n; ++v) roots.push_back(uf.find(v));
      std::vector<VertexId> uniq = roots;
      std::sort(uniq.begin(), uniq.end());
      uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());

      std::vector<VertexId> labels;
      const auto cut = idx.cut(lambda, &labels);
      EXPECT_EQ(cut.num_clusters, uniq.size()) << "lambda=" << lambda;
      ASSERT_EQ(labels.size(), static_cast<std::size_t>(n));
      EXPECT_EQ(cut.labels_digest,
                query::labels_digest(std::span<const VertexId>(labels)));
      // Partition equivalence: same label <=> same union-find root.
      std::vector<VertexId> label_of_root(n, kInvalidVertex);
      std::vector<VertexId> root_of_label(n, kInvalidVertex);
      for (VertexId v = 0; v < n; ++v) {
        VertexId& lr = label_of_root[roots[v]];
        if (lr == kInvalidVertex) lr = labels[v];
        EXPECT_EQ(lr, labels[v]) << "lambda=" << lambda << " v=" << v;
        VertexId& rl = root_of_label[labels[v]];
        if (rl == kInvalidVertex) rl = roots[v];
        EXPECT_EQ(rl, roots[v]) << "lambda=" << lambda << " v=" << v;
      }
    }
  }
}

TEST(QueryIndex, TopkMatchesNaiveSort) {
  ThreadTeam team(4);
  const VertexId n = 120;
  const EdgeList g = random_graph(n, 500, 77);
  dynamic::DynamicMsf d(g, dyn_opts(team, 1));
  // Tombstone some slots so the scan has holes to skip.
  std::vector<EdgeId> dels;
  for (EdgeId id = 3; id < 500; id += 7) dels.push_back(id);
  d.apply_batch({}, dels);
  const query::ForestIndex idx(
      team, d.store(), std::span<const EdgeId>(d.forest_edge_ids()), 2);

  // Naive: all live edges ascending by <weight, store id>.
  std::vector<EdgeId> live;
  for (EdgeId id = 0; id < d.store().size(); ++id) {
    if (d.store().is_live(id)) live.push_back(id);
  }
  std::sort(live.begin(), live.end(), [&](EdgeId a, EdgeId b) {
    const Weight wa = d.store().edge(a).w, wb = d.store().edge(b).w;
    return wa != wb ? wa < wb : a < b;
  });

  for (const std::size_t k : {std::size_t{1}, std::size_t{10},
                              std::size_t{64}, live.size() + 50}) {
    const auto top = idx.top_k(team, d.store(), k, std::nullopt);
    ASSERT_EQ(top.size(), std::min(k, live.size())) << "k=" << k;
    for (std::size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].id, live[i]) << "k=" << k << " i=" << i;
      EXPECT_EQ(top[i].w, d.store().edge(live[i]).w);
    }
  }

  // With a cluster threshold only cross-cluster edges qualify.
  const double lambda = 0.3;
  std::vector<VertexId> labels;
  (void)idx.cut(lambda, &labels);
  std::vector<EdgeId> crossing;
  for (const EdgeId id : live) {
    const WEdge& e = d.store().edge(id);
    if (labels[e.u] != labels[e.v]) crossing.push_back(id);
  }
  const auto top = idx.top_k(team, d.store(), 15, lambda);
  ASSERT_EQ(top.size(), std::min<std::size_t>(15, crossing.size()));
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].id, crossing[i]) << "i=" << i;
  }

  // A second store spanning many 1024-slot scan blocks.  Weights come in
  // runs of 300 consecutive store ids over 11 values, so equal-weight runs
  // straddle block boundaries and the <weight, store id> tie-break decides
  // which of them make the cut.
  EdgeList big = random_graph(1500, 6000, 78);
  for (EdgeId id = 0; id < big.edges.size(); ++id) {
    big.edges[id].w = static_cast<double>((id / 300 * 7) % 11) / 10;
  }
  dynamic::DynamicMsf bd(big, dyn_opts(team, 1));
  std::vector<EdgeId> big_dels;
  for (EdgeId id = 5; id < big.edges.size(); id += 7) big_dels.push_back(id);
  bd.apply_batch({}, big_dels);
  ASSERT_GE(bd.store().size(), 5u * 1024);
  const query::ForestIndex big_idx(
      team, bd.store(), std::span<const EdgeId>(bd.forest_edge_ids()), 2);
  std::vector<EdgeId> big_live;
  for (EdgeId id = 0; id < bd.store().size(); ++id) {
    if (bd.store().is_live(id)) big_live.push_back(id);
  }
  std::stable_sort(big_live.begin(), big_live.end(), [&](EdgeId a, EdgeId b) {
    return bd.store().edge(a).w < bd.store().edge(b).w;
  });
  const double big_lambda = 0.35;
  std::vector<VertexId> big_labels;
  (void)big_idx.cut(big_lambda, &big_labels);
  std::vector<EdgeId> big_crossing;
  for (const EdgeId id : big_live) {
    const WEdge& e = bd.store().edge(id);
    if (big_labels[e.u] != big_labels[e.v]) big_crossing.push_back(id);
  }
  ASSERT_GT(big_crossing.size(), 1025u);
  for (const int p : {1, 4}) {
    ThreadTeam scan_team(p);
    for (const std::size_t k : {std::size_t{1}, std::size_t{1023},
                                std::size_t{1025}, big_live.size() + 50}) {
      for (const bool cut : {false, true}) {
        const std::vector<EdgeId>& want = cut ? big_crossing : big_live;
        const auto got = big_idx.top_k(
            scan_team, bd.store(), k,
            cut ? std::optional<Weight>(big_lambda) : std::nullopt);
        ASSERT_EQ(got.size(), std::min(k, want.size()))
            << "p=" << p << " k=" << k << " cut=" << cut;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].id, want[i])
              << "p=" << p << " k=" << k << " cut=" << cut << " i=" << i;
        }
      }
    }
  }
}

TEST(QueryIndex, LabelsDigestIsOrderSensitive) {
  const std::vector<VertexId> a{0, 0, 1, 1};
  const std::vector<VertexId> b{0, 1, 0, 1};
  const std::vector<VertexId> c{0, 0, 1, 1};
  EXPECT_EQ(query::labels_digest(std::span<const VertexId>(a)),
            query::labels_digest(std::span<const VertexId>(c)));
  EXPECT_NE(query::labels_digest(std::span<const VertexId>(a)),
            query::labels_digest(std::span<const VertexId>(b)));
}

}  // namespace
