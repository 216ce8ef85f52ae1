#include "graph/io.hpp"

#include "core/error.hpp"
#include "graph/compressed_csr.hpp"
#include "graph/validate.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <string_view>

namespace smp::graph {

namespace {

constexpr char kMagic[4] = {'S', 'M', 'P', 'G'};
constexpr std::uint32_t kBinaryVersion = 1;
constexpr std::size_t kBinaryHeaderBytes = 20;
static_assert(sizeof(WEdge) == 16 && offsetof(WEdge, v) == 4 &&
                  offsetof(WEdge, w) == 8,
              "an .smpg edge record is a WEdge");

/// Reserve space for a declared edge count without trusting it: a corrupt
/// header must never force a huge up-front allocation (or an overflowing
/// count*sizeof multiply) before any edge record is parsed and rejected.
/// The cap only bounds the *reservation* — files with more edges than the
/// cap still load, growing geometrically.
void reserve_declared_edges(std::vector<WEdge>& edges, std::uint64_t declared) {
  constexpr std::uint64_t kMaxUpfrontReserve = std::uint64_t{1} << 20;
  edges.reserve(static_cast<std::size_t>(std::min(declared, kMaxUpfrontReserve)));
}

/// Whitespace-separated fields of one DIMACS line; like `>>`, each field
/// skips the whitespace before it.
struct Fields {
  const char* p;
  const char* end;

  static bool space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
  void skip_space() {
    while (p < end && space(*p)) ++p;
  }
  char tag() {
    skip_space();
    return p < end ? *p++ : '\0';
  }
  std::string_view word() {
    skip_space();
    const char* begin = p;
    while (p < end && !space(*p)) ++p;
    return {begin, static_cast<std::size_t>(p - begin)};
  }
  template <class T>
  bool number(T& x) {
    skip_space();
    if (p + 1 < end && p[0] == '+' && p[1] != '-') ++p;
    const auto [ptr, ec] = std::from_chars(p, end, x);
    p = ptr;
    return ec == std::errc{};
  }
};

EdgeList read_all(std::istream& is, EdgeReader::Format format,
                  std::string source) {
  EdgeReader r(is, format, std::move(source));
  EdgeList g(r.num_vertices());
  reserve_declared_edges(g.edges, r.declared_edges());
  while (r.read_chunk(g.edges)) {
  }
  return canonicalize_parallel_edges(g);
}

EdgeList read_file(const std::string& path, EdgeReader::Format format) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error(ErrorCode::kInvalidInput, "cannot open " + path);
  return read_all(is, format, path);
}

template <class T>
void put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

}  // namespace

EdgeReader::EdgeReader(std::istream& is, Format format, std::string source)
    : is_(is), format_(format), source_(std::move(source)) {
  if (format_ == Format::kSmpg) {
    char head[kBinaryHeaderBytes] = {};
    is_.read(head, sizeof head);
    const auto got = static_cast<std::size_t>(is_.gcount());
    if (got < 4 || std::memcmp(head, kMagic, 4) != 0) {
      fail("bad magic (not an SMPG file)");
    }
    if (got < sizeof head) fail("truncated header");
    std::uint32_t version = 0;
    std::memcpy(&version, head + 4, 4);
    if (version != kBinaryVersion) {
      fail("unsupported version " + std::to_string(version));
    }
    std::memcpy(&n_, head + 8, 4);
    std::memcpy(&declared_, head + 12, 8);
    return;
  }
  while (std::getline(is_, line_)) {
    ++lineno_;
    if (line_.empty() || line_[0] == 'c') continue;
    Fields f{line_.data(), line_.data() + line_.size()};
    const char tag = f.tag();
    if (tag == 'e') fail("edge before problem line at line " + std::to_string(lineno_));
    if (tag != 'p') fail("unknown line tag at line " + std::to_string(lineno_));
    std::uint64_t n = 0;
    if (f.word() != "edge" || !f.number(n) || !f.number(declared_) ||
        n > std::numeric_limits<VertexId>::max()) {
      fail("bad problem line at line " + std::to_string(lineno_));
    }
    n_ = static_cast<VertexId>(n);
    return;
  }
  fail("missing problem line");
}

bool EdgeReader::read_chunk(std::vector<WEdge>& out) {
  return format_ == Format::kSmpg ? read_smpg_chunk(out) : read_dimacs_chunk(out);
}

bool EdgeReader::read_dimacs_chunk(std::vector<WEdge>& out) {
  std::size_t got = 0;
  while (got < kChunkEdges && std::getline(is_, line_)) {
    ++lineno_;
    if (line_.empty() || line_[0] == 'c') continue;
    Fields f{line_.data(), line_.data() + line_.size()};
    const char tag = f.tag();
    if (tag == 'p') fail("second problem line at line " + std::to_string(lineno_));
    if (tag != 'e') fail("unknown line tag at line " + std::to_string(lineno_));
    std::uint64_t u = 0, v = 0;
    Weight w = 0;
    if (!f.number(u) || !f.number(v) || !f.number(w)) {
      fail("bad edge at line " + std::to_string(lineno_));
    }
    if (read_ == declared_) {
      fail("more edges than the declared " + std::to_string(declared_) +
           " at line " + std::to_string(lineno_));
    }
    // 1-based on disk; kInvalidVertex is out of range for every n.
    const auto vertex = [&](std::uint64_t x) {
      return x == 0 || x > n_ ? kInvalidVertex : static_cast<VertexId>(x - 1);
    };
    const WEdge e{vertex(u), vertex(v), w};
    check(e, read_);
    out.push_back(e);
    ++read_;
    ++got;
  }
  if (got != 0) return true;
  if (read_ != declared_) {
    fail("edge count mismatch: " + std::to_string(read_) + " edges, " +
         std::to_string(declared_) + " declared");
  }
  return false;
}

bool EdgeReader::read_smpg_chunk(std::vector<WEdge>& out) {
  const auto want =
      static_cast<std::size_t>(std::min<EdgeId>(kChunkEdges, declared_ - read_));
  if (want == 0) {
    if (is_.peek() != std::char_traits<char>::eof()) {
      fail("trailing bytes after " + std::to_string(declared_) + " edge records");
    }
    return false;
  }
  const std::size_t at = out.size();
  out.resize(at + want);
  WEdge* recs = out.data() + at;
  is_.read(reinterpret_cast<char*>(recs),
           static_cast<std::streamsize>(want * sizeof(WEdge)));
  const auto whole = static_cast<std::size_t>(is_.gcount()) / sizeof(WEdge);
  if (whole != want) {
    out.resize(at);
    fail("truncated at edge record " + std::to_string(read_ + whole) + " of " +
         std::to_string(declared_));
  }
  for (std::size_t i = 0; i < want; ++i) check(recs[i], read_ + i);
  read_ += want;
  return true;
}

void EdgeReader::check(const WEdge& e, EdgeId record) const {
  const char* bad = e.u >= n_ || e.v >= n_ ? "endpoint out of range"
                    : e.u == e.v           ? "self-loop"
                    : !std::isfinite(e.w)  ? "non-finite weight"
                                           : nullptr;
  if (bad == nullptr) return;
  fail(std::string(bad) + (format_ == Format::kSmpg
                               ? " at edge record " + std::to_string(record)
                               : " at line " + std::to_string(lineno_)));
}

void EdgeReader::fail(const std::string& what) const {
  throw Error(ErrorCode::kInvalidInput, source_ + ": " + what);
}

OutputFile::OutputFile(std::string path)
    : path_(std::move(path)),
      tmp_(path_ + ".tmp"),
      os_(tmp_, std::ios::binary | std::ios::trunc) {
  if (!os_) {
    throw Error(ErrorCode::kInvalidInput, "cannot open " + tmp_ + " for write");
  }
}

OutputFile::~OutputFile() {
  if (committed_) return;
  os_.close();
  std::remove(tmp_.c_str());
}

void OutputFile::commit() {
  os_.flush();
  const bool written = static_cast<bool>(os_);
  os_.close();
  if (!written || os_.fail()) {
    throw Error(ErrorCode::kInvalidInput, "write failed for " + path_);
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    throw Error(ErrorCode::kInvalidInput,
                "cannot rename " + tmp_ + " to " + path_);
  }
  committed_ = true;
}

void write_dimacs(std::ostream& os, const EdgeList& g) {
  os << "c smpmsf graph\n";
  os << "p edge " << g.num_vertices << ' ' << g.num_edges() << '\n';
  os << std::setprecision(std::numeric_limits<Weight>::max_digits10);
  for (const auto& e : g.edges) {
    os << "e " << (e.u + 1) << ' ' << (e.v + 1) << ' ' << e.w << '\n';
  }
}

void write_dimacs_file(const std::string& path, const EdgeList& g) {
  OutputFile out(path);
  write_dimacs(out.stream(), g);
  out.commit();
}

EdgeList read_dimacs(std::istream& is) {
  return read_all(is, EdgeReader::Format::kDimacs, "read_dimacs");
}

EdgeList read_dimacs_file(const std::string& path) {
  return read_file(path, EdgeReader::Format::kDimacs);
}

void write_binary(std::ostream& os, const EdgeList& g) {
  os.write(kMagic, 4);
  put(os, kBinaryVersion);
  put(os, g.num_vertices);
  put(os, static_cast<std::uint64_t>(g.num_edges()));
  os.write(reinterpret_cast<const char*>(g.edges.data()),
           static_cast<std::streamsize>(g.edges.size() * sizeof(WEdge)));
  if (!os) throw Error(ErrorCode::kInvalidInput, "write_binary: stream failure");
}

void write_binary_file(const std::string& path, const EdgeList& g) {
  OutputFile out(path);
  write_binary(out.stream(), g);
  out.commit();
}

EdgeList read_binary(std::istream& is) {
  return read_all(is, EdgeReader::Format::kSmpg, "read_binary");
}

EdgeList read_binary_file(const std::string& path) {
  return read_file(path, EdgeReader::Format::kSmpg);
}

GraphFormat format_of(const std::string& path) {
  if (path.ends_with(".smpg")) return GraphFormat::kSmpg;
  if (path.ends_with(".smpz")) return GraphFormat::kSmpz;
  return GraphFormat::kDimacs;
}

EdgeList load_graph(const std::string& path) {
  const GraphFormat format = format_of(path);
  if (format == GraphFormat::kSmpz) {
    return CompressedCsr::open_file(path).decode_edge_list();
  }
  return format == GraphFormat::kSmpg ? read_binary_file(path)
                                      : read_dimacs_file(path);
}

}  // namespace smp::graph
