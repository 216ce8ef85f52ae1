// BENCH_10: the billion-edge storage path.  For random degree-10 graphs at
// two sizes (defaults m = 1M and 10M; --paper m = 10M and 100M) this
// measures
//
//   scale_storage  bytes/edge of the compressed CSR (structure and total),
//                  encode time, and bulk varint decode throughput in GB/s
//   scale_solve    Champion solve time streaming from the compressed graph
//                  versus the identical canonicalized uncompressed edge
//                  list, per thread count, plus a forest bit-identity check
//
// bench_compare.py gates both families: structure bytes/edge <= 5.0 at
// degree 10, compressed solve <= 1.25x uncompressed, forests identical.
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/compressed_solve.hpp"
#include "core/msf.hpp"
#include "graph/compressed_csr.hpp"
#include "graph/generators.hpp"
#include "pprim/machine.hpp"
#include "pprim/timer.hpp"

using namespace smp;
using namespace smp::graph;

namespace {

bool same_forest(const MsfResult& a, const MsfResult& b) {
  return a.edge_ids == b.edge_ids && a.total_weight == b.total_weight &&
         a.num_trees == b.num_trees;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  bench::JsonSink sink;

  std::printf("machine: %s\n\n", machine_profile_json().c_str());

  std::vector<int> thread_counts;
  for (int p = 1; p <= args.max_threads; p *= 2) thread_counts.push_back(p);

  for (const std::size_t mult : {std::size_t{1}, std::size_t{10}}) {
    const auto n = static_cast<VertexId>(args.size(100000, 1000000) * mult);
    const auto m = EdgeId{10} * n;
    const EdgeList raw =
        random_graph(n, m, args.seed + static_cast<std::uint64_t>(mult));
    bench::banner("BENCH_10 / scale", raw);

    // --- scale_storage: encode, footprint, decode throughput. ------------
    WallTimer enc_t;
    const CompressedCsr cz = CompressedCsr::build(raw);
    const double enc_s = enc_t.elapsed_s();
    const auto cm = cz.num_edges();
    const double structure_bpe =
        static_cast<double>(cz.structure_bytes()) / static_cast<double>(cm);
    const double total_bpe =
        static_cast<double>(cz.total_bytes()) / static_cast<double>(cm);
    std::vector<VertexId> targets(cm);
    const double dec_s =
        bench::time_best_of(args.reps, [&] { cz.decode_targets(targets.data()); });
    const double dec_gbps =
        static_cast<double>(cz.adjacency_bytes()) / 1e9 / dec_s;
    std::printf("  storage: %.2f B/edge structure (%.2f total), encode %.3fs, "
                "decode %.2f GB/s\n",
                structure_bpe, total_bpe, enc_s, dec_gbps);
    {
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "{\"tag\": \"scale_storage\", \"n\": %u, \"m\": %llu, "
                    "\"density\": 10, \"structure_bytes_per_edge\": %.4f, "
                    "\"total_bytes_per_edge\": %.4f, \"encode_s\": %.6f, "
                    "\"decode_gbps\": %.4f}",
                    cz.num_vertices(), static_cast<unsigned long long>(cm),
                    structure_bpe, total_bpe, enc_s, dec_gbps);
      sink.add(buf);
    }

    // --- scale_solve: compressed stream vs identical uncompressed list. ---
    const EdgeList decoded = cz.decode_edge_list();
    for (const int p : thread_counts) {
      core::MsfOptions opts;
      opts.algorithm = core::Algorithm::kChampion;
      opts.threads = p;
      opts.seed = args.seed;
      MsfResult rc, ru;
      const double sc = bench::time_best_of(
          args.reps, [&] { rc = core::minimum_spanning_forest_compressed(cz, opts); });
      const double su = bench::time_best_of(
          args.reps, [&] { ru = core::minimum_spanning_forest(decoded, opts); });
      const bool ident = same_forest(rc, ru);
      std::printf("  solve p=%d: compressed %.3fs vs uncompressed %.3fs "
                  "(%.2fx)%s\n",
                  p, sc, su, sc / su, ident ? "" : "  FOREST MISMATCH");
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "{\"tag\": \"scale_solve\", \"n\": %u, \"m\": %llu, "
                    "\"threads\": %d, \"compressed_s\": %.6f, "
                    "\"uncompressed_s\": %.6f, \"ratio\": %.4f, "
                    "\"identical\": %s}",
                    cz.num_vertices(), static_cast<unsigned long long>(cm), p,
                    sc, su, sc / su, ident ? "true" : "false");
      sink.add(buf);
      if (p == thread_counts.back()) {
        std::snprintf(buf, sizeof buf,
                      "{\"check\": \"compressed_identity\", \"m\": %llu, "
                      "\"identical\": %s}",
                      static_cast<unsigned long long>(cm),
                      ident ? "true" : "false");
        sink.add(buf);
      }
    }
  }

  sink.write("bench_scale", args);
  return 0;
}
