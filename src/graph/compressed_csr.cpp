#include "graph/compressed_csr.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <ostream>
#include <queue>

#include "core/error.hpp"
#include "graph/io.hpp"

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

/// The edge check of both writers: what open_file() would reject.
bool valid_edge(VertexId u, VertexId v, Weight w, VertexId n) {
  return u != v && u < n && v < n && std::isfinite(w);
}

[[noreturn]] void reject_edge(const std::string& where, VertexId u, VertexId v,
                              EdgeId index) {
  throw Error(ErrorCode::kInvalidInput,
              where + ": bad edge (" + std::to_string(u) + ", " +
                  std::to_string(v) + ") at input edge " +
                  std::to_string(index) +
                  " (need u != v, both < n, and a finite weight)");
}

/// Encodes canonical-order edges as varint gap rows — the one row encoder of
/// both writers.  Each (u, v) must be strictly greater than the last, u < v.
struct RowEncoder {
  explicit RowEncoder(VertexId num_vertices)
      : n(num_vertices),
        edge_off(std::size_t{n} + 1, 0),
        byte_off(std::size_t{n} + 1, 0) {}

  void add(VertexId u, VertexId v, std::vector<std::uint8_t>& adj) {
    if (m == std::numeric_limits<std::uint32_t>::max()) {
      throw Error(ErrorCode::kInvalidInput, "compressed csr: more than 2^32-1 edges");
    }
    while (row < u) next_row();
    const std::size_t before = adj.size();
    varint_append_u32(adj, have_prev ? v - prev_v : v - u);
    adj_bytes += adj.size() - before;
    prev_v = v;
    have_prev = true;
    ++m;
  }
  /// Closes the rows after the last edge's.
  void finish() {
    while (row < n) next_row();
  }
  void next_row() {
    ++row;
    edge_off[row] = static_cast<std::uint32_t>(m);
    byte_off[row] = adj_bytes;
    have_prev = false;
  }
  [[nodiscard]] bool off64() const {
    return adj_bytes > std::numeric_limits<std::uint32_t>::max();
  }

  VertexId n;
  VertexId row = 0;
  VertexId prev_v = 0;
  bool have_prev = false;
  EdgeId m = 0;
  std::uint64_t adj_bytes = 0;
  std::vector<std::uint32_t> edge_off;
  std::vector<std::uint64_t> byte_off;
};

void pad_to8(std::ostream& os, std::uint64_t written) {
  const char pad[8] = {};
  os.write(pad, static_cast<std::streamsize>(align8(written) - written));
}

/// Writes the header and both offset sections, each padded to 8 bytes — the
/// one serializer of the .smpz prefix.  The adjacency and weights follow.
/// `byte_off` holds u64 offsets when off64, else u32.
void write_prefix(std::ostream& os, VertexId n, EdgeId m, std::uint64_t adj_bytes,
                  bool off64, const std::uint32_t* edge_off, const void* byte_off) {
  const std::uint32_t flags = off64 ? kFlagByteOff64 : 0;
  const std::uint64_t m64 = m;
  os.write(kMagic, 4);
  os.write(reinterpret_cast<const char*>(&kVersion), 4);
  os.write(reinterpret_cast<const char*>(&flags), 4);
  os.write(reinterpret_cast<const char*>(&n), 4);
  os.write(reinterpret_cast<const char*>(&m64), 8);
  os.write(reinterpret_cast<const char*>(&adj_bytes), 8);
  std::size_t sz = (std::size_t{n} + 1) * 4;
  os.write(reinterpret_cast<const char*>(edge_off), static_cast<std::streamsize>(sz));
  pad_to8(os, sz);
  sz = (std::size_t{n} + 1) * (off64 ? 8 : 4);
  os.write(static_cast<const char*>(byte_off), static_cast<std::streamsize>(sz));
  pad_to8(os, sz);
}

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
  const std::vector<CanonicalEdge> winners = canonical_winners(g);
  CompressedCsr c;
  c.n_ = g.num_vertices;
  RowEncoder enc(c.n_);
  c.own_adj_.reserve(winners.size() * 2);
  c.own_weights_.reserve(winners.size());
  if (kept_input_ids != nullptr) {
    kept_input_ids->clear();
    kept_input_ids->reserve(winners.size());
  }
  for (const CanonicalEdge& r : winners) {
    if (!valid_edge(r.u, r.v, r.w, c.n_)) {
      reject_edge("CompressedCsr::build", r.u, r.v, r.idx);
    }
    enc.add(r.u, r.v, c.own_adj_);
    c.own_weights_.push_back(r.w);
    if (kept_input_ids != nullptr) kept_input_ids->push_back(r.idx);
  }
  enc.finish();
  c.m_ = enc.m;
  c.adj_bytes_ = enc.adj_bytes;
  c.own_edge_off_ = std::move(enc.edge_off);
  const bool off64 = enc.off64();
  if (off64) {
    c.own_byte_off64_ = std::move(enc.byte_off);
  } else {
    c.own_byte_off32_.assign(enc.byte_off.begin(), enc.byte_off.end());
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
  OutputFile out(path);
  std::ostream& os = out.stream();
  write_prefix(os, n_, m_, adj_bytes_, off64_, edge_off_,
               off64_ ? static_cast<const void*>(byte_off64_) : byte_off32_);
  os.write(reinterpret_cast<const char*>(adj_),
           static_cast<std::streamsize>(adj_bytes_));
  pad_to8(os, adj_bytes_);
  os.write(reinterpret_cast<const char*>(weights_),
           static_cast<std::streamsize>(sizeof(Weight) * m_));
  out.commit();
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
      if (gap == 0) {
        fail(path,
             std::string(k == 0 ? "self-loop" : "duplicate target") +
                 " at vertex " + std::to_string(u),
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

/// A scratch file of the writer — the spilled runs, or a side file — that
/// is appended to, read back at offsets, and removed on destruction.
class detail::ScratchFile {
 public:
  explicit ScratchFile(std::string path)
      : path_(std::move(path)),
        fd_(::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644)) {
    if (fd_ < 0) fail("cannot create");
  }
  ~ScratchFile() {
    ::close(fd_);
    std::remove(path_.c_str());
  }
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  void append(const void* data, std::size_t bytes) {
    for (std::size_t done = 0; done < bytes;) {
      const ssize_t got = ::write(fd_, static_cast<const char*>(data) + done,
                                  bytes - done);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) fail("short write to");
      done += static_cast<std::size_t>(got);
    }
    size_ += bytes;
  }
  void read_at(void* data, std::size_t bytes, std::uint64_t offset) const {
    for (std::size_t done = 0; done < bytes;) {
      const ssize_t got = ::pread(fd_, static_cast<char*>(data) + done,
                                  bytes - done, static_cast<off_t>(offset + done));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) fail("short read from");
      done += static_cast<std::size_t>(got);
    }
  }
  void splice_into(std::ostream& os) const {
    std::vector<char> buf(std::size_t{1} << 20);
    for (std::uint64_t at = 0; at < size_; at += buf.size()) {
      const auto n =
          static_cast<std::size_t>(std::min<std::uint64_t>(buf.size(), size_ - at));
      read_at(buf.data(), n, at);
      os.write(buf.data(), static_cast<std::streamsize>(n));
    }
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw Error(ErrorCode::kInvalidInput,
                std::string(what) + " scratch file " + path_);
  }

  std::string path_;
  int fd_;
  std::uint64_t size_ = 0;
};

namespace {

constexpr std::size_t kWriterBufEdges = std::size_t{1} << 16;

/// One sorted run in the merge: records [first, first + count) of the
/// spilled-runs file, read back in blocks, or the last run, still in memory.
class RunCursor {
 public:
  explicit RunCursor(std::vector<CanonicalEdge> recs) : buf_(std::move(recs)) {}
  RunCursor(const detail::ScratchFile& file, std::uint64_t first,
            std::uint64_t count)
      : file_(&file), next_(first), left_(count) {
    refill();
  }

  [[nodiscard]] bool empty() const { return pos_ == buf_.size(); }
  [[nodiscard]] const CanonicalEdge& head() const { return buf_[pos_]; }
  void pop() {
    if (++pos_ == buf_.size() && left_ != 0) refill();
  }

 private:
  void refill() {
    const auto n =
        static_cast<std::size_t>(std::min<std::uint64_t>(left_, kWriterBufEdges));
    buf_.resize(n);
    file_->read_at(buf_.data(), n * sizeof(CanonicalEdge),
                   next_ * sizeof(CanonicalEdge));
    next_ += n;
    left_ -= n;
    pos_ = 0;
  }

  const detail::ScratchFile* file_ = nullptr;
  std::uint64_t next_ = 0;
  std::uint64_t left_ = 0;
  std::vector<CanonicalEdge> buf_;
  std::size_t pos_ = 0;
};

}  // namespace

CompressedCsrWriter::CompressedCsrWriter(std::string path, VertexId n,
                                         std::size_t run_edges,
                                         std::string tmp_dir)
    : path_(std::move(path)),
      n_(n),
      run_edges_(run_edges),
      tmp_dir_(std::move(tmp_dir)) {
  if (run_edges_ == 0) {
    throw Error(ErrorCode::kInvalidInput,
                "compressed csr " + path_ + ": a run needs at least one edge");
  }
}

CompressedCsrWriter::~CompressedCsrWriter() = default;

void CompressedCsrWriter::add_edge(VertexId u, VertexId v, Weight w) {
  if (!valid_edge(u, v, w, n_)) reject_edge("compressed csr " + path_, u, v, read_);
  if (run_.capacity() == 0) run_.reserve(run_edges_);
  run_.push_back(CanonicalEdge::of(WEdge{u, v, w}, read_++));
  if (run_.size() == run_edges_) spill();
}

void CompressedCsrWriter::add_edges(std::span<const WEdge> edges) {
  for (const WEdge& e : edges) add_edge(e.u, e.v, e.w);
}

void CompressedCsrWriter::spill() {
  std::sort(run_.begin(), run_.end());
  if (!spilled_) {
    const std::string base =
        tmp_dir_.empty() ? path_
                         : tmp_dir_ + "/" + path_.substr(path_.find_last_of('/') + 1);
    spilled_ = std::make_unique<detail::ScratchFile>(base + ".runs");
  }
  spilled_->append(run_.data(), run_.size() * sizeof(CanonicalEdge));
  run_.clear();
  ++runs_;
}

EdgeId CompressedCsrWriter::finish() {
  if (finished_) {
    throw Error(ErrorCode::kInvalidInput,
                "compressed csr " + path_ + ": finish() called twice");
  }
  finished_ = true;
  std::sort(run_.begin(), run_.end());
  std::vector<RunCursor> cursors;
  cursors.reserve(runs_);
  for (std::size_t k = 0; k + 1 < runs_; ++k) {
    cursors.emplace_back(*spilled_, k * run_edges_, run_edges_);
  }
  cursors.emplace_back(std::move(run_));

  // K-way merge in canonical order; the first record of each pair wins.
  const auto later = [&](std::size_t a, std::size_t b) {
    return cursors[b].head() < cursors[a].head();
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>, decltype(later)>
      heap(later);
  for (std::size_t i = 0; i < cursors.size(); ++i) {
    if (!cursors[i].empty()) heap.push(i);
  }
  detail::ScratchFile adj_file(path_ + ".adj");
  detail::ScratchFile w_file(path_ + ".w");
  std::vector<std::uint8_t> adj_buf;
  std::vector<Weight> w_buf;
  const auto flush = [&] {
    adj_file.append(adj_buf.data(), adj_buf.size());
    w_file.append(w_buf.data(), w_buf.size() * sizeof(Weight));
    adj_buf.clear();
    w_buf.clear();
  };
  RowEncoder enc(n_);
  CanonicalEdge last{};
  bool have_last = false;
  while (!heap.empty()) {
    const std::size_t i = heap.top();
    heap.pop();
    const CanonicalEdge r = cursors[i].head();
    cursors[i].pop();
    if (!cursors[i].empty()) heap.push(i);
    if (have_last && r.same_pair(last)) continue;
    last = r;
    have_last = true;
    enc.add(r.u, r.v, adj_buf);
    w_buf.push_back(r.w);
    if (w_buf.size() >= kWriterBufEdges) flush();
  }
  flush();
  enc.finish();
  cursors.clear();  // frees the last run before the file is assembled
  spilled_.reset();

  const bool off64 = enc.off64();
  std::vector<std::uint32_t> narrow;
  if (!off64) narrow.assign(enc.byte_off.begin(), enc.byte_off.end());
  OutputFile out(path_);
  write_prefix(out.stream(), n_, enc.m, enc.adj_bytes, off64, enc.edge_off.data(),
               off64 ? static_cast<const void*>(enc.byte_off.data()) : narrow.data());
  adj_file.splice_into(out.stream());
  pad_to8(out.stream(), enc.adj_bytes);
  w_file.splice_into(out.stream());
  out.commit();
  return enc.m;
}

}  // namespace smp::graph
