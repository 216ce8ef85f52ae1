#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "core/msf.hpp"
#include "pprim/machine.hpp"
#include "seq/seq_msf.hpp"

namespace bench {

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--scale") == 0) {
      a.scale = std::strtod(next(), nullptr);
    } else if (std::strcmp(arg, "--paper") == 0) {
      a.paper = true;
    } else if (std::strcmp(arg, "--threads") == 0) {
      a.max_threads = std::atoi(next());
    } else if (std::strcmp(arg, "--seed") == 0) {
      a.seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(arg, "--reps") == 0) {
      a.reps = std::atoi(next());
    } else if (std::strcmp(arg, "--json") == 0) {
      a.json_path = next();
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "options: --scale F  --paper  --threads N  --seed S  --reps R  "
          "--json PATH\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option %s (try --help)\n", arg);
      std::exit(2);
    }
  }
  // Benches sweep p up to --threads even on smaller machines (the paper's
  // oversubscription runs); flag it so a result file is never mistaken for a
  // true scaling measurement.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0 && a.max_threads > static_cast<int>(hw)) {
    std::fprintf(stderr,
                 "warning: --threads %d exceeds the %u available hardware "
                 "thread(s); timings reflect oversubscription\n",
                 a.max_threads, hw);
  }
  return a;
}

double time_best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < (reps > 0 ? reps : 1); ++r) {
    smp::WallTimer t;
    fn();
    best = std::min(best, t.elapsed_s());
  }
  return best;
}

void banner(const std::string& title, const smp::graph::EdgeList& g) {
  std::printf("== %s: n=%u m=%llu ==\n", title.c_str(), g.num_vertices,
              static_cast<unsigned long long>(g.num_edges()));
}

SeqBest run_sequential_baselines(const smp::graph::EdgeList& g, int reps) {
  using smp::core::Algorithm;
  SeqBest best;
  best.seconds = 1e300;
  struct Row {
    Algorithm alg;
    smp::graph::MsfResult (*fn)(const smp::graph::EdgeList&);
  };
  const Row rows[] = {{Algorithm::kSeqPrim, smp::seq::prim_msf},
                      {Algorithm::kSeqKruskal, smp::seq::kruskal_msf},
                      {Algorithm::kSeqBoruvka, smp::seq::boruvka_msf}};
  for (const auto& row : rows) {
    double weight = 0;
    const double s = time_best_of(reps, [&] { weight = row.fn(g).total_weight; });
    std::printf("  seq %-8s %8.3fs   (weight %.4f)\n",
                std::string(smp::core::to_string(row.alg)).c_str(), s, weight);
    if (s < best.seconds) {
      best.seconds = s;
      best.name = smp::core::to_string(row.alg);
    }
  }
  std::printf("  best sequential: %s (%.3fs)\n", best.name.c_str(), best.seconds);
  return best;
}

void run_parallel_comparison(const smp::graph::EdgeList& g, const Args& args,
                             JsonSink* sink, const std::string& tag) {
  const SeqBest best = run_sequential_baselines(g, args.reps);

  std::vector<int> thread_counts;
  for (int p = 1; p <= args.max_threads; p *= 2) thread_counts.push_back(p);
  if (thread_counts.back() != args.max_threads) thread_counts.push_back(args.max_threads);

  std::printf("  %-8s", "p");
  for (const auto alg : smp::core::kParallelAlgorithms) {
    std::printf(" %14s", std::string(smp::core::to_string(alg)).c_str());
  }
  std::printf("\n");
  for (const int p : thread_counts) {
    std::printf("  %-8d", p);
    for (const auto alg : smp::core::kParallelAlgorithms) {
      smp::core::MsfOptions opts;
      opts.algorithm = alg;
      opts.threads = p;
      opts.seed = args.seed;
      const double s = time_best_of(
          args.reps, [&] { (void)smp::core::minimum_spanning_forest(g, opts); });
      std::printf(" %7.3fs %5.2fx", s, best.seconds / s);
      if (sink != nullptr) {
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "{\"tag\": \"%s\", \"n\": %u, \"m\": %llu, "
                      "\"alg\": \"%s\", \"threads\": %d, \"seconds\": %.6f, "
                      "\"speedup_vs_best_seq\": %.4f, \"best_seq\": \"%s\"}",
                      tag.c_str(), g.num_vertices,
                      static_cast<unsigned long long>(g.num_edges()),
                      std::string(smp::core::to_string(alg)).c_str(), p, s,
                      best.seconds / s, best.name.c_str());
        sink->add(buf);
      }
    }
    std::printf("\n");
  }
  std::printf("  (speedup is versus best sequential: %s)\n\n", best.name.c_str());
}

void JsonSink::write(const std::string& bench_name, const Args& args) const {
  if (args.json_path.empty()) return;
  std::FILE* f = std::fopen(args.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", args.json_path.c_str());
    std::exit(2);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"%s\",\n"
               "  \"meta\": {\"scale\": %g, \"paper\": %s, \"max_threads\": %d, "
               "\"seed\": %llu, \"reps\": %d, \"hardware_concurrency\": %u, "
               "\"threads_requested\": %d, \"threads_available\": %u, "
               "\"oversubscribed\": %s, \"machine\": %s",
               bench_name.c_str(), args.scale, args.paper ? "true" : "false",
               args.max_threads, static_cast<unsigned long long>(args.seed),
               args.reps, hw, args.max_threads, hw,
               (hw != 0 && args.max_threads > static_cast<int>(hw)) ? "true"
                                                                    : "false",
               smp::machine_profile_json().c_str());
  std::fprintf(f, "},\n  \"records\": [\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    std::fprintf(f, "    %s%s\n", records_[i].c_str(),
                 i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu records)\n", args.json_path.c_str(), records_.size());
}

}  // namespace bench
