// smpmsf-convert — out-of-core graph format converter for billion-edge runs.
//
//   smpmsf-convert [--run-edges N] [--tmp-dir DIR] IN OUT
//
// IN:  .smpg (binary edge stream) or DIMACS text (.gr / anything else).
// OUT: .smpz  delta/varint-compressed CSR (see graph/compressed_csr.hpp) —
//             the input is externally sorted into canonical (u, v) order in
//             runs of --run-edges edges (default 16M, ~384 MiB of scratch),
//             then k-way merged; parallel edges are deduplicated during the
//             merge keeping the ⟨weight, input-position⟩-minimal one, the
//             same canonical winner CompressedCsr::build and the readers'
//             kCanonicalize policy pick.  Peak memory is the run buffer plus
//             12(n+1) bytes of offsets — never the edge list.
//      .slab  mmap-backed WEdge records (see dynamic/edge_slab.hpp), a
//             verbatim streaming copy (the store is a multigraph; parallel
//             edges survive).
//
// Exit codes match smpmsf: 0 success, 2 usage, 3 invalid input.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "graph/compressed_csr.hpp"
#include "graph/types.hpp"
#include "parse_number.hpp"
#include "pprim/timer.hpp"

namespace {

using namespace smp;
using graph::EdgeId;
using graph::VertexId;
using graph::Weight;
using graph::WeightOrder;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: smpmsf-convert [--run-edges N] [--tmp-dir DIR] IN OUT\n"
               "  IN:  .smpg binary or DIMACS text\n"
               "  OUT: .smpz compressed CSR | .slab mmap edge slab\n");
  std::exit(2);
}

[[noreturn]] void fail(const std::string& what) {
  throw Error(ErrorCode::kInvalidInput, what);
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// One normalized input edge: u <= v, idx = global input position (the
/// WeightOrder tie-break, which is what makes the merge's keep-first
/// deduplication canonical).
struct Rec {
  std::uint32_t u, v;
  double w;
  std::uint64_t idx;
};
static_assert(sizeof(Rec) == 24);

[[nodiscard]] bool rec_less(const Rec& a, const Rec& b) {
  if (a.u != b.u) return a.u < b.u;
  if (a.v != b.v) return a.v < b.v;
  return WeightOrder{a.w, a.idx} < WeightOrder{b.w, b.idx};
}

/// Streaming edge producers -------------------------------------------------

class EdgeSource {
 public:
  virtual ~EdgeSource() = default;
  [[nodiscard]] virtual VertexId num_vertices() const = 0;
  /// Declared edge count (exact for .smpg; DIMACS headers may lie, in which
  /// case the actual streamed count wins).
  [[nodiscard]] virtual std::uint64_t declared_edges() const = 0;
  /// Next edge, or false at end-of-stream.  Validates endpoints/weight and
  /// throws Error{kInvalidInput} with position context on garbage.
  virtual bool next(VertexId& u, VertexId& v, Weight& w) = 0;
};

class SmpgSource final : public EdgeSource {
 public:
  explicit SmpgSource(const std::string& path) : path_(path) {
    f_ = std::fopen(path.c_str(), "rb");
    if (f_ == nullptr) fail("cannot open " + path);
    char magic[4];
    std::uint32_t version = 0;
    if (std::fread(magic, 1, 4, f_) != 4 ||
        std::memcmp(magic, "SMPG", 4) != 0) {
      fail(path + ": not an SMPG file");
    }
    if (std::fread(&version, 4, 1, f_) != 1 || version != 1) {
      fail(path + ": unsupported SMPG version");
    }
    if (std::fread(&n_, 4, 1, f_) != 1 || std::fread(&m_, 8, 1, f_) != 1) {
      fail(path + ": truncated SMPG header");
    }
  }
  ~SmpgSource() override {
    if (f_ != nullptr) std::fclose(f_);
  }

  [[nodiscard]] VertexId num_vertices() const override { return n_; }
  [[nodiscard]] std::uint64_t declared_edges() const override { return m_; }

  bool next(VertexId& u, VertexId& v, Weight& w) override {
    if (read_ == m_) return false;
    struct {
      std::uint32_t u, v;
      double w;
    } rec;
    if (std::fread(&rec, sizeof rec, 1, f_) != 1) {
      fail(path_ + ": truncated at edge " + std::to_string(read_) + " of " +
           std::to_string(m_));
    }
    ++read_;
    u = rec.u;
    v = rec.v;
    w = rec.w;
    if (u == v || u >= n_ || v >= n_ || !std::isfinite(w)) {
      fail(path_ + ": invalid edge record " + std::to_string(read_ - 1));
    }
    return true;
  }

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
  VertexId n_ = 0;
  std::uint64_t m_ = 0;
  std::uint64_t read_ = 0;
};

class DimacsSource final : public EdgeSource {
 public:
  explicit DimacsSource(const std::string& path) : path_(path) {
    f_ = std::fopen(path.c_str(), "r");
    if (f_ == nullptr) fail("cannot open " + path);
    char line[256];
    while (std::fgets(line, sizeof line, f_) != nullptr) {
      ++lineno_;
      if (line[0] == 'c' || line[0] == '\n') continue;
      unsigned long long n = 0, m = 0;
      if (std::sscanf(line, "p edge %llu %llu", &n, &m) == 2) {
        n_ = static_cast<VertexId>(n);
        m_ = m;
        return;
      }
      fail(path + ": expected 'p edge N M' header, line " +
           std::to_string(lineno_));
    }
    fail(path + ": missing 'p edge' header");
  }
  ~DimacsSource() override {
    if (f_ != nullptr) std::fclose(f_);
  }

  [[nodiscard]] VertexId num_vertices() const override { return n_; }
  [[nodiscard]] std::uint64_t declared_edges() const override { return m_; }

  bool next(VertexId& u, VertexId& v, Weight& w) override {
    char line[256];
    while (std::fgets(line, sizeof line, f_) != nullptr) {
      ++lineno_;
      if (line[0] == 'c' || line[0] == '\n') continue;
      unsigned long long lu = 0, lv = 0;
      double lw = 0;
      if (std::sscanf(line, "e %llu %llu %lf", &lu, &lv, &lw) != 3) {
        fail(path_ + ": bad edge line " + std::to_string(lineno_));
      }
      // 1-based on disk, like the reader in graph/io.cpp.
      if (lu == 0 || lv == 0 || lu > n_ || lv > n_ || lu == lv ||
          !std::isfinite(lw)) {
        fail(path_ + ": invalid edge at line " + std::to_string(lineno_));
      }
      u = static_cast<VertexId>(lu - 1);
      v = static_cast<VertexId>(lv - 1);
      w = lw;
      return true;
    }
    return false;
  }

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
  VertexId n_ = 0;
  std::uint64_t m_ = 0;
  std::size_t lineno_ = 0;
};

/// External sort ------------------------------------------------------------

/// Buffered reader over one sorted run file.
class RunReader {
 public:
  explicit RunReader(const std::string& path) : path_(path) {
    f_ = std::fopen(path.c_str(), "rb");
    if (f_ == nullptr) fail("cannot reopen run file " + path);
    refill();
  }
  ~RunReader() {
    if (f_ != nullptr) std::fclose(f_);
    std::remove(path_.c_str());
  }

  [[nodiscard]] bool empty() const { return pos_ == buf_.size(); }
  [[nodiscard]] const Rec& head() const { return buf_[pos_]; }
  void pop() {
    ++pos_;
    if (pos_ == buf_.size()) refill();
  }

 private:
  void refill() {
    buf_.resize(kBufRecs);
    const std::size_t got = std::fread(buf_.data(), sizeof(Rec), kBufRecs, f_);
    buf_.resize(got);
    pos_ = 0;
  }

  static constexpr std::size_t kBufRecs = std::size_t{1} << 16;  // 1.5 MiB
  std::string path_;
  std::FILE* f_ = nullptr;
  std::vector<Rec> buf_;
  std::size_t pos_ = 0;
};

std::string run_path(const std::string& tmp_dir, const std::string& out,
                     std::size_t i) {
  std::string base = out;
  const std::size_t slash = base.find_last_of('/');
  if (slash != std::string::npos) base = base.substr(slash + 1);
  return (tmp_dir.empty() ? out : tmp_dir + "/" + base) + ".run" +
         std::to_string(i);
}

int convert_smpz(EdgeSource& src, const std::string& out,
                 std::size_t run_edges, const std::string& tmp_dir) {
  // Phase 1: normalized sorted runs of Rec spilled to temp files.
  std::vector<std::string> runs;
  std::vector<Rec> buf;
  buf.reserve(run_edges);
  std::uint64_t total_in = 0;
  const auto spill = [&] {
    if (buf.empty()) return;
    std::sort(buf.begin(), buf.end(), rec_less);
    const std::string path = run_path(tmp_dir, out, runs.size());
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) fail("cannot create run file " + path);
    const bool ok =
        std::fwrite(buf.data(), sizeof(Rec), buf.size(), f) == buf.size();
    std::fclose(f);
    if (!ok) {
      std::remove(path.c_str());
      fail("short write to run file " + path);
    }
    runs.push_back(path);
    buf.clear();
  };

  VertexId u = 0, v = 0;
  Weight w = 0;
  while (src.next(u, v, w)) {
    buf.push_back(Rec{std::min(u, v), std::max(u, v), w, total_in});
    ++total_in;
    if (buf.size() == run_edges) spill();
  }
  spill();

  // Phase 2: k-way heap merge, deduplicating (u, v) keep-first — the global
  // order is (u, v, WeightOrder), so the first record of every group is the
  // canonical winner.  Output streams through CompressedCsrWriter.
  std::vector<std::unique_ptr<RunReader>> readers;
  readers.reserve(runs.size());
  for (const std::string& r : runs) {
    readers.push_back(std::make_unique<RunReader>(r));
  }
  const auto heap_greater = [&](std::size_t a, std::size_t b) {
    return rec_less(readers[b]->head(), readers[a]->head());
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      decltype(heap_greater)>
      heap(heap_greater);
  for (std::size_t i = 0; i < readers.size(); ++i) {
    if (!readers[i]->empty()) heap.push(i);
  }

  graph::CompressedCsrWriter writer(out, src.num_vertices());
  std::uint64_t dropped = 0;
  std::uint32_t last_u = 0, last_v = 0;
  bool have_last = false;
  while (!heap.empty()) {
    const std::size_t i = heap.top();
    heap.pop();
    const Rec r = readers[i]->head();
    readers[i]->pop();
    if (!readers[i]->empty()) heap.push(i);
    if (have_last && r.u == last_u && r.v == last_v) {
      ++dropped;  // parallel edge: an earlier (lighter-or-older) record won
      continue;
    }
    writer.add_edge(r.u, r.v, r.w);
    last_u = r.u;
    last_v = r.v;
    have_last = true;
  }
  const EdgeId m = writer.finish();

  std::printf("wrote %s: vertices %u, edges %llu (%llu read, %llu parallel"
              " dropped, %zu run(s) of <= %zu)\n",
              out.c_str(), src.num_vertices(),
              static_cast<unsigned long long>(m),
              static_cast<unsigned long long>(total_in),
              static_cast<unsigned long long>(dropped), runs.size(),
              run_edges);
  return 0;
}

int convert_slab(EdgeSource& src, const std::string& out) {
  std::FILE* f = std::fopen(out.c_str(), "wb");
  if (f == nullptr) fail("cannot open " + out + " for write");
  // Header now, patch the edge count once the stream is exhausted (DIMACS
  // declared counts are not trusted).
  const char magic[4] = {'S', 'M', 'P', 'B'};
  const std::uint32_t version = 1;
  const std::uint32_t pad = 0;
  const VertexId n = src.num_vertices();
  std::uint64_t m = 0;
  bool ok = std::fwrite(magic, 1, 4, f) == 4 &&
            std::fwrite(&version, 4, 1, f) == 1 &&
            std::fwrite(&n, 4, 1, f) == 1 && std::fwrite(&pad, 4, 1, f) == 1 &&
            std::fwrite(&m, 8, 1, f) == 1;
  std::vector<graph::WEdge> buf;
  buf.reserve(std::size_t{1} << 16);
  VertexId u = 0, v = 0;
  Weight w = 0;
  while (ok && src.next(u, v, w)) {
    buf.push_back(graph::WEdge{u, v, w});
    ++m;
    if (buf.size() == buf.capacity()) {
      ok = std::fwrite(buf.data(), sizeof(graph::WEdge), buf.size(), f) ==
           buf.size();
      buf.clear();
    }
  }
  if (ok && !buf.empty()) {
    ok = std::fwrite(buf.data(), sizeof(graph::WEdge), buf.size(), f) ==
         buf.size();
  }
  ok = ok && std::fseek(f, 16, SEEK_SET) == 0 && std::fwrite(&m, 8, 1, f) == 1;
  ok = std::fclose(f) == 0 && ok;
  f = nullptr;
  if (!ok) {
    std::remove(out.c_str());
    fail("write failed for " + out);
  }
  std::printf("wrote %s: vertices %u, edges %llu (verbatim multigraph copy)\n",
              out.c_str(), n, static_cast<unsigned long long>(m));
  return 0;
}

int run(int argc, char** argv) {
  std::size_t run_edges = std::size_t{1} << 24;  // 16M records, ~384 MiB
  std::string tmp_dir;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      const std::size_t eq = a.find('=');
      if (eq != std::string::npos) return a.substr(eq + 1);
      if (i + 1 >= argc) usage(("missing value for " + std::string(flag)).c_str());
      return argv[++i];
    };
    if (a.rfind("--run-edges", 0) == 0) {
      run_edges = tools::flag_number<std::size_t>(
          "--run-edges", value("--run-edges"), usage);
      if (run_edges == 0) usage("--run-edges must be >= 1");
    } else if (a.rfind("--tmp-dir", 0) == 0) {
      tmp_dir = value("--tmp-dir");
    } else if (a.rfind("--", 0) == 0) {
      usage(("unknown flag " + a).c_str());
    } else {
      pos.push_back(a);
    }
  }
  if (pos.size() != 2) usage("need IN and OUT");
  const std::string& in = pos[0];
  const std::string& out = pos[1];

  std::unique_ptr<EdgeSource> src;
  if (ends_with(in, ".smpg")) {
    src = std::make_unique<SmpgSource>(in);
  } else {
    src = std::make_unique<DimacsSource>(in);
  }

  WallTimer t;
  int rc;
  if (ends_with(out, ".smpz")) {
    rc = convert_smpz(*src, out, run_edges, tmp_dir);
  } else if (ends_with(out, ".slab")) {
    rc = convert_slab(*src, out);
  } else {
    usage("OUT must end in .smpz or .slab");
  }
  std::fprintf(stderr, "elapsed: %.3fs\n", t.elapsed_s());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const smp::Error& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 3;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
}
