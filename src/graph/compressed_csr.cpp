#include "graph/compressed_csr.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>

#include "core/error.hpp"

namespace smp::graph {

namespace {

constexpr char kMagic[4] = {'S', 'M', 'P', 'Z'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kFlagByteOff64 = 1u << 0;
constexpr std::size_t kHeaderBytes = 32;

constexpr std::size_t align8(std::size_t x) { return (x + 7) & ~std::size_t{7}; }

[[noreturn]] void fail(const std::string& path, const std::string& what,
                       std::uint64_t offset) {
  throw Error(ErrorCode::kInvalidInput, "compressed csr " + path + ": " +
                                            what + " at offset " +
                                            std::to_string(offset));
}

struct SortItem {
  VertexId u, v;
  Weight w;
  EdgeId orig;
};

}  // namespace

void CompressedCsr::adopt_views(bool off64) {
  off64_ = off64;
  edge_off_ = own_edge_off_.data();
  if (off64) {
    byte_off64_ = own_byte_off64_.data();
    byte_off32_ = nullptr;
  } else {
    byte_off32_ = own_byte_off32_.data();
    byte_off64_ = nullptr;
  }
  adj_ = own_adj_.data();
  weights_ = own_weights_.data();
}

CompressedCsr CompressedCsr::build(const EdgeList& g,
                                   std::vector<EdgeId>* kept_input_ids) {
  if (g.num_edges() > std::numeric_limits<std::uint32_t>::max()) {
    throw Error(ErrorCode::kInvalidInput,
                "CompressedCsr::build: more than 2^32-1 edges");
  }
  std::vector<SortItem> items;
  items.reserve(g.edges.size());
  for (EdgeId i = 0; i < g.num_edges(); ++i) {
    const WEdge& e = g.edges[i];
    const VertexId u = std::min(e.u, e.v);
    const VertexId v = std::max(e.u, e.v);
    items.push_back(SortItem{u, v, e.w, i});
  }
  // Canonical order: by row, then target; parallel edges resolve to the
  // WeightOrder-minimal one, the same winner canonicalize_parallel_edges
  // keeps.
  std::sort(items.begin(), items.end(),
            [](const SortItem& a, const SortItem& b) {
              if (a.u != b.u) return a.u < b.u;
              if (a.v != b.v) return a.v < b.v;
              return WeightOrder{a.w, a.orig} < WeightOrder{b.w, b.orig};
            });

  CompressedCsr c;
  c.n_ = g.num_vertices;
  c.own_edge_off_.assign(std::size_t{c.n_} + 1, 0);
  std::vector<std::uint64_t> byte_off(std::size_t{c.n_} + 1, 0);
  c.own_adj_.reserve(items.size() * 2);
  c.own_weights_.reserve(items.size());
  if (kept_input_ids != nullptr) {
    kept_input_ids->clear();
    kept_input_ids->reserve(items.size());
  }

  VertexId row = 0;
  VertexId prev_v = 0;
  bool have_prev = false;
  EdgeId m = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const SortItem& it = items[i];
    if (i > 0 && it.u == items[i - 1].u && it.v == items[i - 1].v) {
      continue;  // parallel edge: the sort already put the winner first
    }
    while (row < it.u) {
      ++row;
      c.own_edge_off_[row] = static_cast<std::uint32_t>(m);
      byte_off[row] = c.own_adj_.size();
      have_prev = false;
    }
    const VertexId gap = have_prev ? it.v - prev_v : it.v - it.u;
    varint_append_u32(c.own_adj_, gap);
    c.own_weights_.push_back(it.w);
    if (kept_input_ids != nullptr) kept_input_ids->push_back(it.orig);
    prev_v = it.v;
    have_prev = true;
    ++m;
  }
  while (row < c.n_) {
    ++row;
    c.own_edge_off_[row] = static_cast<std::uint32_t>(m);
    byte_off[row] = c.own_adj_.size();
  }
  c.m_ = m;
  c.adj_bytes_ = c.own_adj_.size();

  const bool off64 =
      c.adj_bytes_ > std::numeric_limits<std::uint32_t>::max();
  if (off64) {
    c.own_byte_off64_ = std::move(byte_off);
  } else {
    c.own_byte_off32_.assign(byte_off.begin(), byte_off.end());
  }
  c.adopt_views(off64);
  return c;
}

VertexId CompressedCsr::source_of(EdgeId e) const {
  // First row whose end offset exceeds e.
  const std::uint32_t* it =
      std::upper_bound(edge_off_ + 1, edge_off_ + n_ + 1,
                       static_cast<std::uint32_t>(e));
  return static_cast<VertexId>(it - (edge_off_ + 1));
}

void CompressedCsr::decode_targets(VertexId* out) const {
  decode_targets(0, n_, out);
}

void CompressedCsr::decode_targets(VertexId row_begin, VertexId row_end,
                                   VertexId* out) const {
  static_assert(sizeof(VertexId) == sizeof(std::uint32_t));
  const EdgeId e_begin = edge_off_[row_begin];
  // Pass 1: one bulk varint decode of the rows' region (SIMD fast path) —
  // rows are concatenated, so gaps land in implicit edge-id order.
  varint_decode_bulk(adj_ + byte_off(row_begin), adj_ + byte_off(row_end),
                     edge_off_[row_end] - e_begin, out + e_begin);
  // Pass 2: per-row prefix reconstruction, v_i = u + sum(gaps 0..i).
  for (VertexId u = row_begin; u < row_end; ++u) {
    VertexId acc = u;
    const EdgeId e_end = edge_off_[u + 1];
    for (EdgeId e = edge_off_[u]; e < e_end; ++e) {
      acc += out[e];
      out[e] = acc;
    }
  }
}

void CompressedCsr::decode_row(VertexId u, VertexId* out) const {
  const std::uint8_t* p = adj_ + byte_off(u);
  VertexId acc = u;
  const std::uint32_t deg = out_degree(u);
  for (std::uint32_t k = 0; k < deg; ++k) {
    acc += decode_gap(p);
    out[k] = acc;
  }
}

EdgeList CompressedCsr::decode_edge_list() const {
  EdgeList g(n_);
  g.edges.reserve(m_);
  for_each_edge([&](EdgeId, VertexId u, VertexId v, Weight w) {
    g.edges.push_back(WEdge{u, v, w});
  });
  return g;
}

std::size_t CompressedCsr::structure_bytes() const {
  const std::size_t per_off = off64_ ? 8 : 4;
  return adj_bytes_ + (std::size_t{n_} + 1) * (4 + per_off);
}

void CompressedCsr::write_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw Error(ErrorCode::kInvalidInput,
                "compressed csr " + path + ": cannot open for write");
  }
  std::uint32_t flags = off64_ ? kFlagByteOff64 : 0;
  std::uint64_t m64 = m_, ab = adj_bytes_;
  os.write(kMagic, 4);
  os.write(reinterpret_cast<const char*>(&kVersion), 4);
  os.write(reinterpret_cast<const char*>(&flags), 4);
  os.write(reinterpret_cast<const char*>(&n_), 4);
  os.write(reinterpret_cast<const char*>(&m64), 8);
  os.write(reinterpret_cast<const char*>(&ab), 8);
  const char pad[8] = {};
  auto pad_to8 = [&](std::size_t written) {
    const std::size_t aligned = align8(written);
    if (aligned != written) {
      os.write(pad, static_cast<std::streamsize>(aligned - written));
    }
    return aligned;
  };
  std::size_t sz = (std::size_t{n_} + 1) * 4;
  os.write(reinterpret_cast<const char*>(edge_off_),
           static_cast<std::streamsize>(sz));
  pad_to8(sz);
  sz = (std::size_t{n_} + 1) * (off64_ ? 8 : 4);
  os.write(off64_ ? reinterpret_cast<const char*>(byte_off64_)
                  : reinterpret_cast<const char*>(byte_off32_),
           static_cast<std::streamsize>(sz));
  pad_to8(sz);
  os.write(reinterpret_cast<const char*>(adj_),
           static_cast<std::streamsize>(adj_bytes_));
  pad_to8(adj_bytes_);
  os.write(reinterpret_cast<const char*>(weights_),
           static_cast<std::streamsize>(sizeof(Weight) * m_));
  if (!os) {
    throw Error(ErrorCode::kInvalidInput,
                "compressed csr " + path + ": write failed");
  }
}

CompressedCsr CompressedCsr::open_file(const std::string& path) {
  MmapFile map = MmapFile::open(path);
  const std::uint8_t* base = map.data();
  const std::size_t size = map.size();
  if (size < kHeaderBytes) fail(path, "short header", size);
  if (std::memcmp(base, kMagic, 4) != 0) {
    fail(path, "bad magic (not an SMPZ file)", 0);
  }
  std::uint32_t version, flags, n;
  std::uint64_t m, adj_bytes;
  std::memcpy(&version, base + 4, 4);
  std::memcpy(&flags, base + 8, 4);
  std::memcpy(&n, base + 12, 4);
  std::memcpy(&m, base + 16, 8);
  std::memcpy(&adj_bytes, base + 24, 8);
  if (version != kVersion) fail(path, "unsupported version", 4);
  if ((flags & ~kFlagByteOff64) != 0) fail(path, "unknown flags", 8);
  if (m > std::numeric_limits<std::uint32_t>::max()) {
    fail(path, "edge count exceeds format limit", 16);
  }
  const bool off64 = (flags & kFlagByteOff64) != 0;

  const std::size_t n1 = std::size_t{n} + 1;
  const std::size_t edge_off_at = kHeaderBytes;
  const std::size_t byte_off_at = align8(edge_off_at + n1 * 4);
  const std::size_t adj_at = align8(byte_off_at + n1 * (off64 ? 8 : 4));
  const std::size_t weights_at = align8(adj_at + adj_bytes);
  const std::size_t expect = weights_at + sizeof(Weight) * m;
  if (size != expect) {
    fail(path,
         "file size " + std::to_string(size) + " != expected " +
             std::to_string(expect) + " (truncated or trailing bytes)",
         size < expect ? size : expect);
  }

  CompressedCsr c;
  c.n_ = n;
  c.m_ = m;
  c.adj_bytes_ = adj_bytes;
  c.off64_ = off64;
  c.edge_off_ = reinterpret_cast<const std::uint32_t*>(base + edge_off_at);
  if (off64) {
    c.byte_off64_ = reinterpret_cast<const std::uint64_t*>(base + byte_off_at);
  } else {
    c.byte_off32_ = reinterpret_cast<const std::uint32_t*>(base + byte_off_at);
  }
  c.adj_ = base + adj_at;
  c.weights_ = reinterpret_cast<const Weight*>(base + weights_at);

  // --- one-time validation: everything the trusted decoders assume ---
  if (c.edge_off_[0] != 0) fail(path, "edge_offsets[0] != 0", edge_off_at);
  if (c.edge_off_[n] != m) {
    fail(path, "edge_offsets[n] != m", edge_off_at + n1 * 4 - 4);
  }
  if (c.byte_off(0) != 0) fail(path, "byte_offsets[0] != 0", byte_off_at);
  if (c.byte_off(n) != adj_bytes) {
    fail(path, "byte_offsets[n] != adj_bytes",
         byte_off_at + (n1 - 1) * (off64 ? 8 : 4));
  }
  for (VertexId u = 0; u < n; ++u) {
    if (c.edge_off_[u + 1] < c.edge_off_[u]) {
      fail(path, "edge_offsets not monotone at vertex " + std::to_string(u),
           edge_off_at + (std::size_t{u} + 1) * 4);
    }
    const std::uint64_t b0 = c.byte_off(u), b1 = c.byte_off(u + 1);
    if (b1 < b0 || b1 > adj_bytes) {
      fail(path, "byte_offsets not monotone at vertex " + std::to_string(u),
           byte_off_at + (std::size_t{u} + 1) * (off64 ? 8 : 4));
    }
    // Structural varint check first (bounds the trusted decoder), then the
    // semantic row decode (range + strict monotonicity of targets).
    const std::uint8_t* row = c.adj_ + b0;
    const std::uint8_t* row_end = c.adj_ + b1;
    const std::uint32_t deg = c.edge_off_[u + 1] - c.edge_off_[u];
    if (!varint_validate_region(row, row_end, deg)) {
      fail(path, "malformed varint row at vertex " + std::to_string(u),
           adj_at + b0);
    }
    std::uint64_t v = u;
    for (std::uint32_t k = 0; k < deg; ++k) {
      const std::uint32_t gap = varint_decode_u32(row);
      if (k > 0 && gap == 0) {
        fail(path, "duplicate target at vertex " + std::to_string(u),
             adj_at + b0);
      }
      v += gap;
      if (v >= n) {
        fail(path, "target out of range at vertex " + std::to_string(u),
             adj_at + b0);
      }
    }
  }
  for (EdgeId e = 0; e < m; ++e) {
    if (!std::isfinite(c.weights_[e])) {
      fail(path, "non-finite weight for edge " + std::to_string(e),
           weights_at + e * sizeof(Weight));
    }
  }
  c.map_ = std::move(map);
  // Re-point views: moving the MmapFile does not move the mapping itself
  // (the pointers stay valid), but keep them derived from the member for
  // clarity.
  return c;
}

namespace {

constexpr std::size_t kWriterBufEdges = std::size_t{1} << 16;

void flush_bytes(std::FILE* f, const void* data, std::size_t bytes,
                 const std::string& path) {
  if (bytes != 0 && std::fwrite(data, 1, bytes, f) != bytes) {
    throw Error(ErrorCode::kInvalidInput,
                "compressed csr " + path + ": side-file write failed");
  }
}

}  // namespace

CompressedCsrWriter::CompressedCsrWriter(std::string path, VertexId n)
    : path_(std::move(path)), n_(n) {
  edge_off_.assign(std::size_t{n_} + 1, 0);
  byte_off_.assign(std::size_t{n_} + 1, 0);
  adj_file_ = std::fopen((path_ + ".adj").c_str(), "wb+");
  w_file_ = adj_file_ != nullptr ? std::fopen((path_ + ".w").c_str(), "wb+")
                                 : nullptr;
  if (adj_file_ == nullptr || w_file_ == nullptr) {
    if (adj_file_ != nullptr) std::fclose(adj_file_);
    adj_file_ = nullptr;
    throw Error(ErrorCode::kInvalidInput,
                "compressed csr " + path_ + ": cannot open side files");
  }
}

CompressedCsrWriter::~CompressedCsrWriter() {
  if (adj_file_ != nullptr) std::fclose(adj_file_);
  if (w_file_ != nullptr) std::fclose(w_file_);
  std::remove((path_ + ".adj").c_str());
  std::remove((path_ + ".w").c_str());
}

void CompressedCsrWriter::catch_up_rows(VertexId u) {
  while (row_ < u) {
    ++row_;
    edge_off_[row_] = static_cast<std::uint32_t>(m_);
    byte_off_[row_] = adj_bytes_;
    have_prev_ = false;
  }
}

void CompressedCsrWriter::add_edge(VertexId u, VertexId v, Weight w) {
  if (u >= v || v >= n_ || !std::isfinite(w)) {
    throw Error(ErrorCode::kInvalidInput,
                "compressed csr " + path_ + ": bad edge (" + std::to_string(u) +
                    ", " + std::to_string(v) + ") at edge " +
                    std::to_string(m_) +
                    " (need u < v < n and a finite weight)");
  }
  if (u < row_ || (u == row_ && have_prev_ && v <= prev_v_)) {
    throw Error(ErrorCode::kInvalidInput,
                "compressed csr " + path_ + ": edge (" + std::to_string(u) +
                    ", " + std::to_string(v) + ") out of canonical order at edge " +
                    std::to_string(m_));
  }
  if (m_ == std::numeric_limits<std::uint32_t>::max()) {
    throw Error(ErrorCode::kInvalidInput,
                "compressed csr " + path_ + ": more than 2^32-1 edges");
  }
  catch_up_rows(u);
  const std::size_t before = adj_buf_.size();
  varint_append_u32(adj_buf_, have_prev_ ? v - prev_v_ : v - u);
  adj_bytes_ += adj_buf_.size() - before;
  w_buf_.push_back(w);
  prev_v_ = v;
  have_prev_ = true;
  ++m_;
  if (w_buf_.size() >= kWriterBufEdges) {
    flush_bytes(adj_file_, adj_buf_.data(), adj_buf_.size(), path_);
    flush_bytes(w_file_, w_buf_.data(), w_buf_.size() * sizeof(Weight), path_);
    adj_buf_.clear();
    w_buf_.clear();
  }
}

EdgeId CompressedCsrWriter::finish() {
  if (finished_) {
    throw Error(ErrorCode::kInvalidInput,
                "compressed csr " + path_ + ": finish() called twice");
  }
  finished_ = true;
  flush_bytes(adj_file_, adj_buf_.data(), adj_buf_.size(), path_);
  flush_bytes(w_file_, w_buf_.data(), w_buf_.size() * sizeof(Weight), path_);
  adj_buf_.clear();
  w_buf_.clear();
  catch_up_rows(n_);

  std::ofstream os(path_, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw Error(ErrorCode::kInvalidInput,
                "compressed csr " + path_ + ": cannot open for write");
  }
  const bool off64 = adj_bytes_ > std::numeric_limits<std::uint32_t>::max();
  const std::uint32_t flags = off64 ? kFlagByteOff64 : 0;
  const std::uint64_t m64 = m_;
  os.write(kMagic, 4);
  os.write(reinterpret_cast<const char*>(&kVersion), 4);
  os.write(reinterpret_cast<const char*>(&flags), 4);
  os.write(reinterpret_cast<const char*>(&n_), 4);
  os.write(reinterpret_cast<const char*>(&m64), 8);
  os.write(reinterpret_cast<const char*>(&adj_bytes_), 8);
  const char pad[8] = {};
  auto pad_to8 = [&](std::size_t written) {
    const std::size_t aligned = align8(written);
    if (aligned != written) {
      os.write(pad, static_cast<std::streamsize>(aligned - written));
    }
  };
  std::size_t sz = (std::size_t{n_} + 1) * 4;
  os.write(reinterpret_cast<const char*>(edge_off_.data()),
           static_cast<std::streamsize>(sz));
  pad_to8(sz);
  if (off64) {
    sz = (std::size_t{n_} + 1) * 8;
    os.write(reinterpret_cast<const char*>(byte_off_.data()),
             static_cast<std::streamsize>(sz));
  } else {
    std::vector<std::uint32_t> narrow(byte_off_.begin(), byte_off_.end());
    sz = narrow.size() * 4;
    os.write(reinterpret_cast<const char*>(narrow.data()),
             static_cast<std::streamsize>(sz));
  }
  pad_to8(sz);

  // Splice the side files in (sections already 8-byte aligned except the
  // adjacency tail, padded below).
  const auto splice = [&](std::FILE* f, std::uint64_t expect,
                          const char* what) {
    std::fflush(f);
    std::rewind(f);
    std::vector<char> buf(std::size_t{1} << 20);
    std::uint64_t copied = 0;
    for (;;) {
      const std::size_t got = std::fread(buf.data(), 1, buf.size(), f);
      if (got == 0) break;
      os.write(buf.data(), static_cast<std::streamsize>(got));
      copied += got;
    }
    if (copied != expect) {
      throw Error(ErrorCode::kInvalidInput,
                  "compressed csr " + path_ + ": " + what +
                      " side file short (" + std::to_string(copied) + " of " +
                      std::to_string(expect) + " bytes)");
    }
  };
  splice(adj_file_, adj_bytes_, "adjacency");
  pad_to8(adj_bytes_);
  splice(w_file_, sizeof(Weight) * std::uint64_t{m_}, "weight");
  if (!os) {
    throw Error(ErrorCode::kInvalidInput,
                "compressed csr " + path_ + ": write failed");
  }
  return m_;
}

}  // namespace smp::graph
