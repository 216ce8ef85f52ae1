// smpmsf — command-line front end for the library.
//
//   smpmsf gen --type T --n N [--m M] [--k K] [--seed S] -o FILE
//   smpmsf info FILE
//   smpmsf convert [--run-edges N] [--tmp-dir DIR] IN OUT
//   smpmsf solve [--alg A] [--threads P] [--seed S] [--timeout SECS]
//                [--mem-cap BYTES] [--no-fallback] [--validate] [--steps]
//                [--stats-json FILE] [--mode static|dynamic]
//                [--batch-size N] [--update-trace FILE] FILE
//   smpmsf cc FILE
//
// Graph files are picked by extension: .smpg binary edge list, .smpz
// compressed CSR, .slab edge slab, anything else DIMACS text.  `convert`
// streams its input into a .smpz (external run sort and merge, runs of
// --run-edges edges spilled to --tmp-dir) or a .slab (verbatim multigraph),
// and loads it, parallel edges canonicalized, for a .smpg or DIMACS output.
// `gen` writes through the same writers.
//
// Graph types: random (needs --m), mesh2d, mesh2d60, mesh3d40,
// geometric (--k), str0..str3, rmat (needs --m).
// Algorithms: champion (default) bor-el bor-al bor-alm bor-fal mst-bc prim
//             kruskal boruvka (core::kAlgorithmNames).
//
// --mode dynamic maintains the forest through a batch-dynamic update trace
// (--update-trace, applied in batches of --batch-size ops):
//
//   c <comment>
//   i <u> <v> <weight>    insert an edge (vertices 1-based, like DIMACS)
//   d <u> <v>             delete the canonical (lightest, then oldest) live
//                         edge with these endpoints
//
// Flags accept both "--key value" and "--key=value".  A flag the subcommand
// does not read, or a malformed number, is a usage error (exit 2).  Unknown
// --alg / --mode / trace operations are invalid input (exit 3),
// with the accepted values listed.
//
// Exit codes: 0 success, 1 runtime/validation failure, 2 usage, then one per
// smp::ErrorCode class — 3 invalid input, 4 cancelled, 5 deadline exceeded,
// 6 out of memory.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>

#include "core/connected_components.hpp"
#include "core/error.hpp"
#include "core/verify_msf.hpp"
#include "core/msf.hpp"
#include "dynamic/dynamic_msf.hpp"
#include "dynamic/edge_slab.hpp"
#include "dynamic/write_group.hpp"
#include "core/compressed_solve.hpp"
#include "graph/compressed_csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "graph/validate.hpp"
#include "pprim/build_info.hpp"
#include "pprim/machine.hpp"
#include "pprim/timer.hpp"

#include "parse_number.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage:\n"
               "  smpmsf gen --type T --n N [--m M] [--k K] [--seed S] -o FILE\n"
               "  smpmsf info FILE\n"
               "  smpmsf convert [--run-edges N] [--tmp-dir DIR] IN OUT\n"
               "  smpmsf solve [--alg A] [--threads P] [--seed S]"
               " [--timeout SECS] [--mem-cap BYTES] [--no-fallback]"
               " [--validate] [--steps] [--stats-json FILE]\n"
               "               [--mode static|dynamic] [--batch-size N]"
               " [--update-trace FILE] FILE\n"
               "  smpmsf cc FILE\n"
               "formats by extension: .smpg binary, .smpz compressed csr,"
               " .slab edge slab, else DIMACS text\n"
               "types: random mesh2d mesh2d60 mesh3d40 geometric str0-str3 rmat\n"
               "algs: ");
  for (const core::AlgorithmName& row : core::kAlgorithmNames) {
    std::fprintf(stderr, " %.*s", static_cast<int>(row.name.size()),
                 row.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

enum class SolveMode { kStatic, kDynamic };

SolveMode parse_mode(const std::string& s) {
  if (s == "static") return SolveMode::kStatic;
  if (s == "dynamic") return SolveMode::kDynamic;
  throw smp::Error(smp::ErrorCode::kInvalidInput,
                   "unknown mode '" + s + "' (valid: static dynamic)");
}

using dynamic::GraphFormat;
using dynamic::format_of;
using dynamic::load_graph;

/// Streams the file's edges in file order: `begin(n)` once, then `add(chunk)`
/// per chunk.  DIMACS and .smpg stream verbatim through the parser; a .smpz
/// or .slab is loaded.
template <class Begin, class Add>
void stream_edges(const std::string& path, Begin&& begin, Add&& add) {
  const GraphFormat format = format_of(path);
  if (format == GraphFormat::kSmpz || format == GraphFormat::kSlab) {
    const EdgeList g = load_graph(path);
    begin(g.num_vertices);
    add(std::span<const WEdge>(g.edges));
    return;
  }
  std::ifstream is(path, std::ios::binary);
  if (!is) throw smp::Error(smp::ErrorCode::kInvalidInput, "cannot open " + path);
  EdgeReader r(is,
               format == GraphFormat::kSmpg ? EdgeReader::Format::kSmpg
                                            : EdgeReader::Format::kDimacs,
               path);
  begin(r.num_vertices());
  std::vector<WEdge> chunk;
  while (r.read_chunk(chunk)) {
    add(std::span<const WEdge>(chunk));
    chunk.clear();
  }
}

/// Writes the edges `source(begin, add)` streams (see stream_edges) to a
/// .smpz or .slab `path` through that format's one writer; returns the
/// edge count written.
template <class Source>
EdgeId write_streamed(const std::string& path, std::size_t run_edges,
                      const std::string& tmp_dir, Source&& source) {
  std::optional<CompressedCsrWriter> smpz;
  std::optional<dynamic::EdgeSlabWriter> slab;
  source(
      [&](VertexId n) {
        if (format_of(path) == GraphFormat::kSmpz) {
          smpz.emplace(path, n, run_edges, tmp_dir);
        } else {
          slab.emplace(path, n);
        }
      },
      [&](std::span<const WEdge> chunk) {
        smpz ? smpz->add_edges(chunk) : slab->add_edges(chunk);
      });
  return smpz ? smpz->finish() : slab->finish();
}

void store(const std::string& path, const EdgeList& g) {
  const GraphFormat format = format_of(path);
  if (format == GraphFormat::kSmpz || format == GraphFormat::kSlab) {
    write_streamed(path, CompressedCsrWriter::kDefaultRunEdges, "",
                   [&](auto&& begin, auto&& add) {
                     begin(g.num_vertices);
                     add(std::span<const WEdge>(g.edges));
                   });
  } else if (format == GraphFormat::kSmpg) {
    write_binary_file(path, g);
  } else {
    write_dimacs_file(path, g);
  }
}

/// Tiny flag parser: collects --key value pairs and positionals.
struct Flags {
  std::vector<std::pair<std::string, std::string>> kv;
  std::vector<std::string> positional;
  std::vector<std::string> switches;

  [[nodiscard]] std::optional<std::string> get(const char* key) const {
    for (const auto& [k, v] : kv) {
      if (k == key) return v;
    }
    return std::nullopt;
  }
  [[nodiscard]] bool has(const char* name) const {
    for (const auto& s : switches) {
      if (s == name) return true;
    }
    return false;
  }
  /// The whole value of `key` parsed as a decimal T (tools::parse_number),
  /// or a usage error naming `key`.
  template <class T>
  [[nodiscard]] std::optional<T> parsed(const char* key) const {
    const auto v = get(key);
    if (!v) return std::nullopt;
    const std::optional<T> x = tools::parse_number<T>(*v);
    if (!x) malformed(key);
    return x;
  }
  /// The count `key` as the type it is used as, or `fallback` when absent: a
  /// negative value, or one T cannot hold, is a usage error, never narrowed.
  template <class T = std::uint64_t>
  [[nodiscard]] T num(const char* key, std::type_identity_t<T> fallback) const {
    const std::optional<T> x = parsed<T>(key);
    if constexpr (std::is_signed_v<T>) {
      if (x && *x < 0) malformed(key);
    }
    return x.value_or(fallback);
  }
  [[noreturn]] void malformed(const char* key) const {
    usage(("malformed number for " + std::string(key) + ": '" + *get(key) + "'")
              .c_str());
  }
  [[nodiscard]] std::optional<double> real(const char* key) const {
    return parsed<double>(key);
  }
};

/// Parses argv[from..] against the flags one subcommand reads (`accepted`,
/// switches included); any other flag is a usage error naming it.
Flags parse(int argc, char** argv, int from,
            std::initializer_list<std::string_view> accepted) {
  Flags f;
  static const char* kSwitches[] = {"--validate", "--steps", "--no-fallback"};
  const auto check = [&](const std::string& key) {
    if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
      usage(("unknown flag " + key + " for " + argv[from - 1]).c_str());
    }
  };
  for (int i = from; i < argc; ++i) {
    const std::string a = argv[i];
    if (std::find(std::begin(kSwitches), std::end(kSwitches), a) !=
        std::end(kSwitches)) {
      check(a);
      f.switches.push_back(a);
      continue;
    }
    if (a.rfind("--", 0) == 0 || a == "-o") {
      // "--key=value" and "--key value" are equivalent.
      const std::size_t eq = a.find('=');
      if (eq != std::string::npos) {
        check(a.substr(0, eq));
        f.kv.emplace_back(a.substr(0, eq), a.substr(eq + 1));
        continue;
      }
      const std::string key = a == "-o" ? "--out" : a;
      check(key);
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      f.kv.emplace_back(key, argv[++i]);
    } else {
      f.positional.push_back(a);
    }
  }
  return f;
}

int cmd_gen(const Flags& f) {
  const auto type = f.get("--type");
  const auto out = f.get("--out");
  if (!type || !out) usage("gen needs --type and -o");
  const auto n = f.num<VertexId>("--n", 0);
  const auto m = f.num<EdgeId>("--m", 0);
  const auto k = f.num<int>("--k", 6);
  const std::uint64_t seed = f.num("--seed", 1);
  if (n == 0) usage("gen needs --n > 0");

  EdgeList g;
  const auto side = static_cast<VertexId>(std::lround(std::sqrt(double(n))));
  const auto side3 = static_cast<VertexId>(std::lround(std::cbrt(double(n))));
  if (*type == "random") {
    if (m == 0) usage("random needs --m");
    g = random_graph(n, m, seed);
  } else if (*type == "mesh2d") {
    g = mesh2d(side, side, seed);
  } else if (*type == "mesh2d60") {
    g = mesh2d_p(side, side, 0.6, seed);
  } else if (*type == "mesh3d40") {
    g = mesh3d_p(side3, side3, side3, 0.4, seed);
  } else if (*type == "geometric") {
    g = geometric_knn(n, k, seed);
  } else if (type->rfind("str", 0) == 0 && type->size() == 4) {
    g = structured_graph((*type)[3] - '0', n, seed);
  } else if (*type == "rmat") {
    if (m == 0) usage("rmat needs --m");
    int scale = 0;
    while ((VertexId{1} << scale) < n) ++scale;
    g = rmat_graph(scale, m, seed);
  } else {
    usage(("unknown graph type " + *type).c_str());
  }
  store(*out, g);
  std::printf("wrote %s: vertices: %u edges: %llu\n", out->c_str(), g.num_vertices,
              static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

int cmd_info(const Flags& f) {
  if (f.positional.size() != 1) usage("info needs exactly one FILE");
  if (format_of(f.positional[0]) == GraphFormat::kSmpz) {
    const CompressedCsr c = CompressedCsr::open_file(f.positional[0]);
    std::printf("format: compressed csr (.smpz)\n");
    std::printf("structure: %zu bytes (%.2f B/edge), adjacency %zu bytes\n",
                c.structure_bytes(),
                c.num_edges() > 0 ? static_cast<double>(c.structure_bytes()) /
                                        static_cast<double>(c.num_edges())
                                  : 0.0,
                c.adjacency_bytes());
  }
  const EdgeList g = load_graph(f.positional[0]);
  const auto ds = degree_stats(g);
  std::printf("vertices: %u\nedges: %llu\ncomponents: %zu\n", g.num_vertices,
              static_cast<unsigned long long>(g.num_edges()), num_components(g));
  std::printf("degree min/mean/max: %zu / %.2f / %zu\n", ds.min_degree,
              ds.mean_degree, ds.max_degree);
  std::printf("simple: %s\n", is_simple(g) ? "yes" : "no");
  return 0;
}

/// `convert IN OUT`: a .smpz or .slab OUT is written streaming (see
/// write_streamed); any other OUT from the loaded, canonicalized graph.
int cmd_convert(const Flags& f) {
  if (f.positional.size() != 2) usage("convert needs IN and OUT");
  const std::string& in = f.positional[0];
  const std::string& out = f.positional[1];
  const auto run_edges = f.num<std::size_t>(
      "--run-edges", CompressedCsrWriter::kDefaultRunEdges);
  if (run_edges == 0) usage("--run-edges must be >= 1");
  const GraphFormat to = format_of(out);
  EdgeId m = 0;
  if (to == GraphFormat::kSmpz || to == GraphFormat::kSlab) {
    m = write_streamed(out, run_edges, f.get("--tmp-dir").value_or(""),
                       [&](auto&& begin, auto&& add) { stream_edges(in, begin, add); });
  } else {
    const EdgeList g = load_graph(in);
    store(out, g);
    m = g.num_edges();
  }
  std::printf("converted %s -> %s: %llu edges\n", in.c_str(), out.c_str(),
              static_cast<unsigned long long>(m));
  return 0;
}

/// `solve --mode dynamic`: build a DynamicMsf on the loaded graph, then
/// replay the update trace in batches of --batch-size operations.
int solve_dynamic(const Flags& f, const EdgeList& g,
                  const core::MsfOptions& opts, const std::string& alg) {
  const auto trace_path = f.get("--update-trace");
  if (!trace_path) usage("--mode dynamic needs --update-trace FILE");
  const auto batch_size = static_cast<std::size_t>(f.num("--batch-size", 1024));
  if (batch_size == 0) usage("--batch-size must be >= 1");

  std::ifstream is(*trace_path);
  if (!is) {
    throw smp::Error(smp::ErrorCode::kInvalidInput,
                     "cannot open update trace " + *trace_path);
  }

  smp::dynamic::DynamicMsfOptions dopts;
  dopts.msf = opts;
  smp::dynamic::DynamicMsf d(g, dopts);

  std::size_t ops = 0, batches = 0, scratch = 0, added = 0, removed = 0;
  // The pending batch.  A trace op that depends on it (see WriteGroup)
  // flushes it first, so replay stays order-exact while the common case
  // still batches.
  smp::dynamic::WriteGroup group(d.store());

  WallTimer t;
  const auto flush = [&] {
    if (group.empty()) return;
    const auto delta = d.apply_batch(group.insertions(), group.deletions());
    ++batches;
    ops += group.size();
    scratch += delta.recomputed_from_scratch ? 1 : 0;
    added += delta.forest_added.size();
    removed += delta.forest_removed.size();
    group.clear();
  };

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    VertexId u = 0, v = 0;
    if (tag == 'i') {
      Weight w = 0;
      ls >> u >> v >> w;
      if (!ls || u == 0 || v == 0 || u > g.num_vertices ||
          v > g.num_vertices || u == v || !std::isfinite(w)) {
        throw smp::Error(smp::ErrorCode::kInvalidInput,
                         "bad trace insert at line " + std::to_string(lineno));
      }
      group.insert(WEdge{u - 1, v - 1, w});
    } else if (tag == 'd') {
      ls >> u >> v;
      if (!ls || u == 0 || v == 0 || u > g.num_vertices || v > g.num_vertices) {
        throw smp::Error(smp::ErrorCode::kInvalidInput,
                         "bad trace delete at line " + std::to_string(lineno));
      }
      EdgeId id = 0;
      auto res = group.resolve(u - 1, v - 1, &id);
      if (res == smp::dynamic::WriteGroup::Resolve::kCut) {
        flush();
        res = group.resolve(u - 1, v - 1, &id);
      }
      if (res == smp::dynamic::WriteGroup::Resolve::kNotLive) {
        throw smp::Error(smp::ErrorCode::kInvalidInput,
                         "trace deletes edge (" + std::to_string(u) + "," +
                             std::to_string(v) + ") that is not live, line " +
                             std::to_string(lineno));
      }
      group.erase(id);
    } else {
      throw smp::Error(smp::ErrorCode::kInvalidInput,
                       std::string("unknown trace op '") + tag + "' at line " +
                           std::to_string(lineno) + " (valid: c i d)");
    }
    if (group.size() >= batch_size) flush();
  }
  flush();
  const double secs = t.elapsed_s();

  std::printf(
      "%s (p=%d) dynamic: %zu ops in %zu batch(es) of <= %zu, %.3fs (%.0f ops/s)\n",
      alg.c_str(), opts.threads, ops, batches, batch_size, secs,
      secs > 0 ? static_cast<double>(ops) / secs : 0.0);
  std::printf(
      "forest: %zu edges, weight %.6f, %zu tree(s); edges entered %zu, left "
      "%zu; scratch recomputes %zu\n",
      d.forest_edge_ids().size(), d.total_weight(), d.num_trees(), added,
      removed, scratch);

  if (f.has("--validate")) {
    // The determinism contract: the maintained forest must be bit-identical
    // (edge ids and weight) to a from-scratch solve on the final graph.
    std::vector<EdgeId> ids;
    const EdgeList live = d.store().live_graph(&ids);
    auto ref = core::minimum_spanning_forest_of_candidates(live, ids, opts);
    std::sort(ref.edge_ids.begin(), ref.edge_ids.end());
    Weight ref_weight = 0;
    for (const EdgeId id : ref.edge_ids) ref_weight += d.store().edge(id).w;
    if (ref.edge_ids != d.forest_edge_ids() || ref_weight != d.total_weight()) {
      std::printf("validation: dynamic forest differs from from-scratch recompute\n");
      return 1;
    }
    std::printf("validation: OK (bit-identical to from-scratch recompute)\n");
  }
  return 0;
}

/// `solve --stats-json FILE`: one JSON object with the build info (compiler,
/// build type, hardware threads), the run parameters, the solver's
/// PhaseStats / StepTimes instrumentation and the result facts — the
/// machine-readable sibling of the human solve output.
void write_stats_json(const std::string& path, const std::string& alg,
                      const core::MsfOptions& opts, VertexId num_vertices,
                      EdgeId num_edges, const MsfResult& r, double secs,
                      const core::StepTimes& steps,
                      const core::PhaseStats& pstats) {
  std::ofstream os(path);
  if (!os) {
    throw smp::Error(smp::ErrorCode::kInvalidInput, "cannot write " + path);
  }
  char buf[512];
  os << "{\"build\": " << smp::build_info_json();
  std::snprintf(buf, sizeof buf,
                ", \"algorithm\": \"%s\", \"threads\": %d, \"seed\": %llu",
                alg.c_str(), opts.threads,
                static_cast<unsigned long long>(opts.seed));
  os << buf;
  // Oversubscription visibility: requested vs. hardware threads, so a run on
  // a small CI box is never mistaken for a true scaling measurement.
  const unsigned hw = std::thread::hardware_concurrency();
  std::snprintf(buf, sizeof buf,
                ", \"threads_requested\": %d, \"threads_available\": %u"
                ", \"oversubscribed\": %s",
                opts.threads, hw,
                (hw != 0 && opts.threads > static_cast<int>(hw)) ? "true"
                                                                 : "false");
  os << buf;
  // How many arcs Bor-FAL's find-min cursors retired (0 for algorithms
  // without pruning).
  std::snprintf(buf, sizeof buf, ", \"find_min\": {\"pruned_arcs\": %llu}",
                static_cast<unsigned long long>(steps.pruned_arcs));
  os << buf;
  std::snprintf(buf, sizeof buf,
                ", \"graph\": {\"vertices\": %u, \"edges\": %llu}",
                num_vertices, static_cast<unsigned long long>(num_edges));
  os << buf;
  // Host facts: which machine produced these numbers (see pprim/machine.hpp;
  // bench JSONs carry the same block, and bench_compare.py diffs it).
  os << ", \"machine\": " << smp::machine_profile_json();
  std::snprintf(buf, sizeof buf, ", \"seconds\": %.6f", secs);
  os << buf;
  std::snprintf(buf, sizeof buf,
                ", \"phase_stats\": {\"iterations\": %llu, \"regions\": %llu"
                ", \"regions_per_iteration\": %.3f}",
                static_cast<unsigned long long>(pstats.iterations),
                static_cast<unsigned long long>(pstats.regions),
                pstats.regions_per_iteration());
  os << buf;
  std::snprintf(buf, sizeof buf,
                ", \"step_times\": {\"find_min\": %.6f, \"connect\": %.6f"
                ", \"compact\": %.6f, \"other\": %.6f, \"rank_build\": %.6f"
                ", \"arc_build\": %.6f, \"assembly\": %.6f, \"filter\": %.6f"
                ", \"total\": %.6f}",
                steps.find_min, steps.connect, steps.compact, steps.other,
                steps.rank_build, steps.arc_build, steps.assembly, steps.filter,
                steps.total());
  os << buf;
  std::snprintf(buf, sizeof buf,
                ", \"result\": {\"forest_edges\": %zu, \"weight\": %.17g"
                ", \"trees\": %zu, \"degraded_to_sequential\": %s}}",
                r.edges.size(), r.total_weight, r.num_trees,
                r.degraded_to_sequential ? "true" : "false");
  os << buf << "\n";
}

int cmd_solve(const Flags& f) {
  if (f.positional.size() != 1) usage("solve needs exactly one FILE");
  const std::string& file = f.positional[0];
  const SolveMode mode = parse_mode(f.get("--mode").value_or("static"));
  // A static solve keeps a .smpz compressed: Champion streams from the rows,
  // other algorithms decode once.  Everything else loads as an edge list.
  const bool compressed =
      mode == SolveMode::kStatic && format_of(file) == GraphFormat::kSmpz;
  std::optional<CompressedCsr> cz;
  EdgeList g;
  if (compressed) {
    cz = CompressedCsr::open_file(file);
  } else {
    g = load_graph(file);
  }
  const VertexId num_vertices = compressed ? cz->num_vertices() : g.num_vertices;
  const EdgeId num_edges = compressed ? cz->num_edges() : g.num_edges();
  const std::string alg = f.get("--alg").value_or("champion");
  const int threads = f.num<int>("--threads", 1);
  const std::uint64_t seed = f.num("--seed", 1);

  core::MsfOptions opts;
  opts.threads = threads;
  opts.seed = seed;

  // Asking for more threads than the machine has is legal (the paper's
  // oversubscription runs do exactly that) but silently skews timings, so
  // say it out loud once per solve.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0 && threads > static_cast<int>(hw)) {
    std::fprintf(stderr,
                 "warning: %d threads requested but only %u hardware thread(s)"
                 " available; timings reflect oversubscription\n",
                 threads, hw);
  }

  core::StepTimes steps;
  core::PhaseStats pstats;
  if (f.has("--steps")) opts.step_times = &steps;
  const auto stats_path = f.get("--stats-json");
  if (stats_path) {
    // The dump wants the instrumentation regardless of --steps.
    opts.step_times = &steps;
    opts.phase_stats = &pstats;
  }

  // Execution budget: wall-clock deadline and/or arena memory cap.  The
  // solver fails as an smp::Error (distinct exit code) instead of running
  // away; a tripped memory cap degrades to sequential Kruskal unless
  // --no-fallback asks for a hard failure.
  smp::ExecutionBudget budget;
  bool have_budget = false;
  if (const auto timeout = f.real("--timeout")) {
    budget.set_deadline_after(*timeout);
    have_budget = true;
  }
  if (f.get("--mem-cap")) {
    budget.set_memory_cap(f.num("--mem-cap", 0));
    have_budget = true;
  }
  if (have_budget) opts.budget = &budget;
  opts.allow_sequential_fallback = !f.has("--no-fallback");

  opts.algorithm = core::parse_algorithm(alg);

  if (mode == SolveMode::kDynamic) {
    if (stats_path) usage("--stats-json needs --mode static");
    return solve_dynamic(f, g, opts, alg);
  }
  if (f.get("--update-trace") || f.get("--batch-size")) {
    usage("--update-trace/--batch-size need --mode dynamic");
  }

  if (compressed) {
    std::printf("storage: compressed csr, %.2f structure B/edge"
                " (+%zu B/edge weights)%s\n",
                num_edges > 0 ? static_cast<double>(cz->structure_bytes()) /
                                    static_cast<double>(num_edges)
                              : 0.0,
                sizeof(Weight), cz->mapped() ? ", mmap" : "");
  }
  WallTimer t;
  const MsfResult r = compressed
                          ? core::minimum_spanning_forest_compressed(*cz, opts)
                          : core::minimum_spanning_forest(g, opts);
  const double secs = t.elapsed_s();
  std::printf("%s (p=%d): %zu edges, weight %.6f, %zu tree(s), %.3fs\n",
              alg.c_str(), threads, r.edges.size(), r.total_weight, r.num_trees,
              secs);
  if (r.degraded_to_sequential) {
    std::printf("note: degraded to sequential kruskal (memory budget)\n");
  }
  if (stats_path) {
    write_stats_json(*stats_path, alg, opts, num_vertices, num_edges, r, secs,
                     steps, pstats);
    std::printf("stats: wrote %s\n", stats_path->c_str());
  }
  if (f.has("--steps")) {
    std::printf("steps: find-min %.3fs connect %.3fs compact %.3fs other %.3fs"
                " (rank %.3fs arcs %.3fs assembly %.3fs filter %.3fs)\n",
                steps.find_min, steps.connect, steps.compact, steps.other,
                steps.rank_build, steps.arc_build, steps.assembly, steps.filter);
  }
  if (f.has("--validate")) {
    // Full check: structure (membership/acyclicity/maximality) plus the
    // cycle property for every non-forest edge, in O(m log n).  The
    // compressed path verifies against its canonical decoded list — the
    // same graph the solve saw.
    if (compressed) g = cz->decode_edge_list();
    std::string err;
    const bool ok = core::verify_msf(g, r, &err);
    std::printf("validation: %s\n", ok ? "OK" : err.c_str());
    if (!ok) return 1;
  }
  return 0;
}

int cmd_cc(const Flags& f) {
  if (f.positional.size() != 1) usage("cc needs exactly one FILE");
  const EdgeList g = load_graph(f.positional[0]);
  WallTimer t;
  const auto cc = core::connected_components(g);
  std::printf("components: %zu (%.3fs)\n", cc.num_components, t.elapsed_s());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") {
      return cmd_gen(parse(argc, argv, 2,
                           {"--type", "--n", "--m", "--k", "--seed", "--out"}));
    }
    if (cmd == "info") return cmd_info(parse(argc, argv, 2, {}));
    if (cmd == "convert") {
      return cmd_convert(parse(argc, argv, 2, {"--run-edges", "--tmp-dir"}));
    }
    if (cmd == "solve") {
      return cmd_solve(parse(
          argc, argv, 2,
          {"--alg", "--threads", "--seed", "--timeout", "--mem-cap",
           "--no-fallback", "--validate", "--steps", "--stats-json",
           "--mode", "--batch-size", "--update-trace"}));
    }
    if (cmd == "cc") return cmd_cc(parse(argc, argv, 2, {}));
    usage(("unknown command " + cmd).c_str());
  } catch (const smp::Error& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    switch (ex.code()) {
      case smp::ErrorCode::kInvalidInput:
        return 3;
      case smp::ErrorCode::kCancelled:
        return 4;
      case smp::ErrorCode::kDeadlineExceeded:
        return 5;
      case smp::ErrorCode::kOutOfMemory:
        return 6;
    }
    return 1;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
}
