#include "dynamic/edge_slab.hpp"

#include <cmath>
#include <cstring>
#include <ostream>

#include "core/error.hpp"

namespace smp::dynamic {

namespace {

constexpr char kMagic[4] = {'S', 'M', 'P', 'B'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 24;

[[noreturn]] void fail(const std::string& path, const std::string& what,
                       std::uint64_t offset) {
  throw Error(ErrorCode::kInvalidInput, "edge slab " + path + ": " + what +
                                            " at offset " +
                                            std::to_string(offset));
}

void check_record(const std::string& path, const graph::WEdge& e,
                  graph::VertexId n, std::uint64_t offset) {
  if (e.u == e.v) {
    fail(path, "self-loop at vertex " + std::to_string(e.u), offset);
  }
  if (e.u >= n || e.v >= n) {
    fail(path,
         "endpoint out of range (" + std::to_string(e.u) + ", " +
             std::to_string(e.v) + ") with n = " + std::to_string(n),
         offset);
  }
  if (!std::isfinite(e.w)) fail(path, "non-finite weight", offset);
}

}  // namespace

EdgeSlab EdgeSlab::open(const std::string& path) {
  static_assert(sizeof(graph::WEdge) == 16);
  graph::MmapFile map = graph::MmapFile::open(path);
  if (map.size() < kHeaderBytes) {
    fail(path, "short header (" + std::to_string(map.size()) + " bytes)",
         map.size());
  }
  const std::uint8_t* base = map.data();
  if (std::memcmp(base, kMagic, 4) != 0) {
    fail(path, "bad magic (not an SMPB slab)", 0);
  }
  std::uint32_t version, n;
  std::uint64_t m;
  std::memcpy(&version, base + 4, 4);
  std::memcpy(&n, base + 8, 4);
  std::memcpy(&m, base + 16, 8);  // offset 12 is padding: m stays 8-aligned
  if (version != kVersion) fail(path, "unsupported version", 4);
  const std::uint64_t expect =
      kHeaderBytes + m * std::uint64_t{sizeof(graph::WEdge)};
  if (map.size() != expect) {
    fail(path,
         "file size " + std::to_string(map.size()) + " != expected " +
             std::to_string(expect) + " for " + std::to_string(m) +
             " records (truncated or trailing bytes)",
         map.size() < expect ? map.size() : expect);
  }
  EdgeSlab s;
  s.n_ = n;
  s.m_ = m;
  s.edges_ = reinterpret_cast<const graph::WEdge*>(base + kHeaderBytes);
  for (std::uint64_t i = 0; i < m; ++i) {
    check_record(path, s.edges_[i], n,
                 kHeaderBytes + i * sizeof(graph::WEdge));
  }
  s.map_ = std::move(map);
  return s;
}

void EdgeSlab::write_file(const std::string& path, const graph::EdgeList& g) {
  EdgeSlabWriter w(path, g.num_vertices);
  w.add_edges(g.edges);
  w.finish();
}

EdgeSlabWriter::EdgeSlabWriter(std::string path, graph::VertexId n)
    : out_(std::move(path)), n_(n) {
  const std::uint32_t pad = 0;
  const std::uint64_t m = 0;  // patched by finish()
  std::ostream& os = out_.stream();
  os.write(kMagic, 4);
  os.write(reinterpret_cast<const char*>(&kVersion), 4);
  os.write(reinterpret_cast<const char*>(&n_), 4);
  os.write(reinterpret_cast<const char*>(&pad), 4);
  os.write(reinterpret_cast<const char*>(&m), 8);
}

void EdgeSlabWriter::add_edges(std::span<const graph::WEdge> edges) {
  for (std::size_t i = 0; i < edges.size(); ++i) {
    check_record(out_.path(), edges[i], n_,
                 kHeaderBytes + (m_ + i) * sizeof(graph::WEdge));
  }
  out_.stream().write(reinterpret_cast<const char*>(edges.data()),
                      static_cast<std::streamsize>(edges.size_bytes()));
  m_ += edges.size();
}

graph::EdgeId EdgeSlabWriter::finish() {
  std::ostream& os = out_.stream();
  os.seekp(16);
  os.write(reinterpret_cast<const char*>(&m_), 8);
  out_.commit();
  return m_;
}

}  // namespace smp::dynamic
