// Query-engine bench (BENCH_08): ForestIndex rebuild cost versus the
// apply_batch solve that triggers it, and per-op latency percentiles for
// the four query ops (pathmax / conn / cut / topk) on the final state.
//
//   * rebuild rows: for each batch size B, one insertion batch is applied
//     through DynamicMsf and the index is rebuilt from the committed
//     forest; the acceptance gate is rebuild_s <= 1.0 x apply_s (the index
//     rides along with the solve it follows instead of dominating it).
//   * op rows: p50/p95/p99 over per-op wall times — pathmax/conn answered
//     from the immutable index, cut split into the first call (cold
//     caches) and warm calls, topk scanning the live store in one pass
//     against a per-thread k-th bound.
//   * identity row: every sampled pathmax answer is checked against a
//     parent-pointer climb over a BFS of the forest edge list (independent
//     of the index's dendrogram) and conn against root comparison; any
//     mismatch fails the bench.
//
// --json writes BENCH_08.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <queue>
#include <random>
#include <vector>

#include "common.hpp"
#include "dynamic/dynamic_msf.hpp"
#include "graph/generators.hpp"
#include "pprim/thread_team.hpp"
#include "query/forest_index.hpp"

using namespace smp;
using namespace smp::graph;

namespace {

double quantile_us(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

/// Emits one "query_op" row: table line + JSON record.
void report_op(bench::JsonSink& sink, const char* op, VertexId n,
               std::vector<double> lat_us) {
  const std::size_t ops = lat_us.size();
  const double p50 = quantile_us(lat_us, 0.50);
  const double p95 = quantile_us(lat_us, 0.95);
  const double p99 = quantile_us(lat_us, 0.99);
  std::printf("  %-10s %10zu %10.2f %10.2f %10.2f\n", op, ops, p50, p95, p99);
  char rec[256];
  std::snprintf(rec, sizeof rec,
                "{\"tag\": \"query_op\", \"op\": \"%s\", \"n\": %llu, "
                "\"ops\": %zu, \"p50_us\": %.3f, \"p95_us\": %.3f, "
                "\"p99_us\": %.3f}",
                op, static_cast<unsigned long long>(n), ops, p50, p95, p99);
  sink.add(rec);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const auto n = static_cast<VertexId>(args.size(200000, 1000000));
  const auto m = static_cast<EdgeId>(4 * static_cast<EdgeId>(n));
  const EdgeList base = random_graph(n, m, args.seed);
  bench::banner("query engine / random", base);

  ThreadTeam team(args.max_threads);
  dynamic::DynamicMsfOptions dopts;
  dopts.team = &team;
  dopts.msf.seed = args.seed;
  dynamic::DynamicMsf d(base, dopts);

  bench::JsonSink sink;
  std::mt19937_64 rng(args.seed ^ 0x9e3779b97f4a7c15ull);
  std::uniform_int_distribution<VertexId> vtx(0, n - 1);
  std::uniform_real_distribution<double> wgt(0.0, 1.0);

  // --- rebuild vs. the apply_batch that triggers it ---
  std::printf("  %-10s %12s %12s %8s\n", "batch", "apply_s", "rebuild_s",
              "ratio");
  std::uint64_t version = 0;
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{100}, std::size_t{10000}}) {
    std::vector<WEdge> ins;
    ins.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      VertexId u = vtx(rng), v = vtx(rng);
      while (v == u) v = vtx(rng);
      ins.push_back({u, v, wgt(rng)});
    }
    WallTimer t;
    d.apply_batch(ins, {});
    const double apply_s = t.elapsed_s();
    ++version;
    const double rebuild_s = bench::time_best_of(args.reps, [&] {
      query::ForestIndex idx(team, d.store(),
                             std::span<const EdgeId>(d.forest_edge_ids()),
                             version);
    });
    const double ratio = apply_s > 0 ? rebuild_s / apply_s : 0.0;
    std::printf("  %-10zu %12.4f %12.4f %8.2f\n", batch, apply_s, rebuild_s,
                ratio);
    char rec[256];
    std::snprintf(rec, sizeof rec,
                  "{\"tag\": \"query_rebuild\", \"batch\": %zu, \"n\": %llu, "
                  "\"apply_s\": %.5f, \"rebuild_s\": %.5f, \"ratio\": %.3f}",
                  batch, static_cast<unsigned long long>(n), apply_s,
                  rebuild_s, ratio);
    sink.add(rec);
  }

  // --- per-op latency on the final committed state ---
  const query::ForestIndex idx(
      team, d.store(), std::span<const EdgeId>(d.forest_edge_ids()), version);
  const auto& st = idx.stats();
  std::printf("  index: %zu forest edges, %zu components, built in %.4f s\n",
              st.num_forest_edges, st.num_components, st.build_seconds);
  {
    char rec[320];
    std::snprintf(
        rec, sizeof rec,
        "{\"tag\": \"query_index\", \"n\": %llu, \"forest_edges\": %zu, "
        "\"components\": %zu, \"build_s\": %.5f}",
        static_cast<unsigned long long>(n), st.num_forest_edges,
        st.num_components, st.build_seconds);
    sink.add(rec);
  }

  using Clock = std::chrono::steady_clock;
  const std::size_t q_ops = args.size(20000, 20000);
  std::vector<VertexId> us(q_ops), vs(q_ops);
  for (std::size_t i = 0; i < q_ops; ++i) {
    us[i] = vtx(rng);
    vs[i] = vtx(rng);
    while (vs[i] == us[i]) vs[i] = vtx(rng);
  }

  std::printf("  %-10s %10s %10s %10s %10s\n", "op", "ops", "p50us", "p95us",
              "p99us");
  {
    std::vector<double> lat(q_ops);
    std::size_t found = 0;
    for (std::size_t i = 0; i < q_ops; ++i) {
      const auto t0 = Clock::now();
      const auto pm = idx.path_max(us[i], vs[i]);
      lat[i] =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      found += pm.connected ? 1 : 0;
    }
    report_op(sink, "pathmax", n, std::move(lat));
    if (found == 0) {
      std::fprintf(stderr, "bench_query: no connected pair sampled?\n");
      return 1;
    }
  }
  {
    std::vector<double> lat(q_ops);
    volatile bool sink_b = false;
    for (std::size_t i = 0; i < q_ops; ++i) {
      const auto t0 = Clock::now();
      sink_b = idx.connected(us[i], vs[i]);
      lat[i] =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    }
    (void)sink_b;
    report_op(sink, "conn", n, std::move(lat));
  }
  {
    // Cold = the first cut, then warm cuts across sweeping thresholds.
    std::vector<double> cold(1);
    const auto t0 = Clock::now();
    volatile std::size_t k0 = idx.cut(0.5).num_clusters;
    cold[0] =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    (void)k0;
    report_op(sink, "cut_cold", n, std::move(cold));
    const std::size_t cut_ops = 200;
    std::vector<double> lat(cut_ops);
    for (std::size_t i = 0; i < cut_ops; ++i) {
      const double thr = static_cast<double>(i) / static_cast<double>(cut_ops);
      const auto t1 = Clock::now();
      volatile std::size_t k = idx.cut(thr).num_clusters;
      (void)k;
      lat[i] =
          std::chrono::duration<double, std::micro>(Clock::now() - t1).count();
    }
    report_op(sink, "cut_warm", n, std::move(lat));
  }
  {
    const std::size_t topk_ops = 20;
    std::vector<double> lat(topk_ops);
    for (std::size_t i = 0; i < topk_ops; ++i) {
      const auto t0 = Clock::now();
      const auto top = idx.top_k(team, d.store(), 10, std::nullopt);
      lat[i] =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      if (top.size() != 10) {
        std::fprintf(stderr, "bench_query: topk returned %zu edges\n",
                     top.size());
        return 1;
      }
    }
    report_op(sink, "topk10", n, std::move(lat));
  }

  // --- identity: index answers vs. a naive parent-pointer climb ---
  // Parent pointers, depths and parent-edge weight/id per vertex from a BFS
  // of each tree over the forest edge list, rooted at its least vertex.
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t i = 0; i < idx.num_forest_edges(); ++i) {
    const WEdge& e = idx.forest_edge(i);
    adj[e.u].push_back(i);
    adj[e.v].push_back(i);
  }
  std::vector<VertexId> parent(n, kInvalidVertex);
  std::vector<std::uint32_t> depth(n, 0);
  std::vector<Weight> pw(n, 0);
  std::vector<EdgeId> pid(n, kInvalidEdge);
  std::queue<VertexId> bfs;
  for (VertexId r = 0; r < n; ++r) {
    if (parent[r] != kInvalidVertex) continue;
    parent[r] = r;
    bfs.push(r);
    while (!bfs.empty()) {
      const VertexId x = bfs.front();
      bfs.pop();
      for (const std::size_t i : adj[x]) {
        const WEdge& e = idx.forest_edge(i);
        const VertexId y = e.u == x ? e.v : e.u;
        if (parent[y] != kInvalidVertex) continue;
        parent[y] = x;
        depth[y] = depth[x] + 1;
        pw[y] = e.w;
        pid[y] = idx.forest_id(i);
        bfs.push(y);
      }
    }
  }
  const std::size_t pairs = std::min<std::size_t>(q_ops, 2000);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    VertexId a = us[i], b = vs[i];
    // Naive root check.
    VertexId ra = a, rb = b;
    while (parent[ra] != ra) ra = parent[ra];
    while (parent[rb] != rb) rb = parent[rb];
    const bool conn_naive = ra == rb;
    if (conn_naive != idx.connected(a, b)) {
      ++mismatches;
      continue;
    }
    const auto pm = idx.path_max(a, b);
    if (pm.connected != conn_naive) {
      ++mismatches;
      continue;
    }
    if (!conn_naive) continue;
    Weight bw = 0;
    EdgeId bi = kInvalidEdge;
    bool has = false;
    const auto consider = [&](VertexId x) {
      if (!has || pw[x] > bw || (pw[x] == bw && pid[x] > bi)) {
        bw = pw[x];
        bi = pid[x];
        has = true;
      }
    };
    while (depth[a] > depth[b]) {
      consider(a);
      a = parent[a];
    }
    while (depth[b] > depth[a]) {
      consider(b);
      b = parent[b];
    }
    while (a != b) {
      consider(a);
      consider(b);
      a = parent[a];
      b = parent[b];
    }
    if (pm.edge_id != bi || pm.weight != bw) ++mismatches;
  }
  std::printf("  identity: %zu pairs, %zu mismatches\n", pairs, mismatches);
  {
    char rec[192];
    std::snprintf(rec, sizeof rec,
                  "{\"tag\": \"identity\", \"check\": \"query_pathmax\", "
                  "\"pairs\": %zu, \"mismatches\": %zu}",
                  pairs, mismatches);
    sink.add(rec);
  }

  sink.write("bench_query", args);
  return mismatches == 0 ? 0 : 1;
}
