// perfbench: runs one benchmark workload and prints every metric by name,
// with its unit and sample count, then one JSON result line.
//
//   perfbench --workload static-random|dynamic-batches|serve-rw
//             --seed N --seconds S --trace 0|1 [--out DIR]
//
// With --trace 0 the result line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, and the spans and the full
// per-layer table are written under DIR.  Exit status: 0 ok, 1 a wrong
// forest, 5 a failed or rejected operation (the result line still prints
// for both), 2 bad usage, 3 the run failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::Metric;
using perfbench::Report;

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload static-random|dynamic-batches|serve-rw "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n");
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_rows(const char* kind, const std::vector<Metric>& rows) {
  for (const Metric& m : rows) {
    std::printf("%-6s %-30s %16.6f %-6s n=%-9zu %s\n", kind, m.name.c_str(),
                m.value, m.unit.c_str(), m.samples, m.note.c_str());
  }
}

std::string metrics_json(const std::vector<Metric>& rows) {
  std::string out = "{";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += (i ? ", \"" : "\"") + rows[i].name + "\": {\"value\": " +
           number(rows[i].value) + ", \"unit\": \"" + rows[i].unit + "\"}";
  }
  return out + "}";
}

/// The traced run's full table: per-layer metrics common to all workloads,
/// then this workload's own, each with unit, sample count and note.
bool write_table(const std::string& path, const Report& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"host\": %s, \"layers\": [\n", r.host.c_str());
  bool first = true;
  for (const auto* rows : {&r.layer, &r.layer_extra, &r.detail}) {
    for (const Metric& m : *rows) {
      std::fprintf(f,
                   "%s  {\"name\": \"%s\", \"value\": %s, \"unit\": \"%s\", "
                   "\"samples\": %zu, \"note\": \"%s\"}",
                   first ? "" : ",\n", m.name.c_str(), number(m.value).c_str(),
                   m.unit.c_str(), m.samples, m.note.c_str());
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* val = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      a.workload = val;
    } else if (std::strcmp(flag, "--seed") == 0) {
      a.seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      a.seconds = std::strtod(val, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      a.trace = std::strcmp(val, "0") != 0;
    } else if (std::strcmp(flag, "--out") == 0) {
      a.out_dir = val;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_seed || !(a.seconds > 0)) {
    usage();
    return 2;
  }

  // A traced run records its set-up spans too; each timed section then
  // switches tracing on or off for itself.
  perfbench::Tracer::instance().set_enabled(a.trace);
  Report r;
  try {
    if (a.workload == "static-random") {
      r = perfbench::run_static_random(a);
    } else if (a.workload == "dynamic-batches") {
      r = perfbench::run_dynamic_batches(a);
    } else if (a.workload == "serve-rw") {
      r = perfbench::run_serve_rw(a);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", a.workload.c_str(), e.what());
    return 3;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  std::printf("host %s\n", r.host.c_str());
  print_rows("e2e", r.e2e);
  print_rows("detail", r.detail);
  std::printf("%-6s %-30s %16.6f %-6s n=%-9llu failed=%llu\n", "e2e", "error_rate",
              perfbench::ratio(double(r.failed), double(r.attempted)), "ratio",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const std::string& e : r.errors) std::printf("error  %s\n", e.c_str());

  if (a.trace) {
    perfbench::Tracer& t = perfbench::Tracer::instance();
    const std::size_t spans = t.collect().size();
    r.add(r.layer_extra, "trace.spans", double(spans), "count", 1);
    r.add(r.layer_extra, "trace.spans_dropped", double(t.dropped()), "count", 1);
    print_rows("layer", r.layer);
    print_rows("extra", r.layer_extra);
    if (!a.out_dir.empty()) {
      const std::string stem =
          a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed);
      if (!t.write_jsonl(stem + "-spans.jsonl") || !write_table(stem + "-layers.json", r)) {
        std::fprintf(stderr, "perfbench: cannot write the trace under %s\n",
                     a.out_dir.c_str());
        return 3;
      }
      std::printf("trace %s-spans.jsonl %s-layers.json\n", stem.c_str(), stem.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(a.trace ? r.layer : r.e2e).c_str());
  std::fflush(stdout);
  if (!r.correct) return 1;
  return r.failed > 0 ? 5 : 0;
}
