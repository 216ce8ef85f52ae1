#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graph/edge_list.hpp"
#include "pprim/timer.hpp"

namespace bench {

/// Shared command line of all paper-reproduction benches.
///
///   --scale F     multiply default problem sizes by F (default 1.0)
///   --paper       use the paper's full sizes (n = 1M etc.)
///   --threads N   max thread count for sweeps (default 8)
///   --seed S      generator seed
///   --reps R      timing repetitions, best-of (default 1)
///   --json PATH   also write machine-readable results to PATH
struct Args {
  double scale = 1.0;
  bool paper = false;
  int max_threads = 8;
  std::uint64_t seed = 12345;
  int reps = 1;
  std::string json_path;

  /// Scaled size: `paper_value` when --paper, else `default_value * scale`.
  [[nodiscard]] std::size_t size(std::size_t default_value, std::size_t paper_value) const {
    if (paper) return paper_value;
    return static_cast<std::size_t>(static_cast<double>(default_value) * scale);
  }
};

Args parse_args(int argc, char** argv);

/// Best-of-`reps` wall time of `fn`, in seconds.
double time_best_of(int reps, const std::function<void()>& fn);

/// Prints "name  n=<n> m=<m>" style banner.
void banner(const std::string& title, const smp::graph::EdgeList& g);

/// Times the three sequential baselines; prints one row per algorithm and
/// returns the best (name, seconds) — the paper's speedup reference.
struct SeqBest {
  std::string name;
  double seconds = 0;
};
SeqBest run_sequential_baselines(const smp::graph::EdgeList& g, int reps);

/// Collects machine-readable result rows and writes them as one JSON
/// document.  Each row is a complete JSON object literal the bench formats
/// itself (flat string/number fields); write() wraps them with a meta block
/// (sizes, thread cap, seed, reps, hardware concurrency, and always a
/// "machine" MachineProfile object — committed baselines must carry the host
/// they were recorded on) so a result file is self-describing.  No-op when
/// --json was not given.
class JsonSink {
 public:
  void add(std::string record) { records_.push_back(std::move(record)); }
  void write(const std::string& bench_name, const Args& args) const;

 private:
  std::vector<std::string> records_;
};

/// The Fig. 4/5/6 harness: per parallel algorithm × thread count, wall time
/// and speedup versus the best sequential algorithm on this input.  When
/// `sink` is non-null every timed row is also appended to it, tagged `tag`.
void run_parallel_comparison(const smp::graph::EdgeList& g, const Args& args,
                             JsonSink* sink = nullptr,
                             const std::string& tag = {});

}  // namespace bench
