#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/mmap_file.hpp"
#include "graph/types.hpp"
#include "graph/validate.hpp"
#include "pprim/varint.hpp"

namespace smp::graph {

namespace detail {
class ScratchFile;
}  // namespace detail

/// Delta/varint-compressed CSR: the billion-edge storage format (.smpz).
///
/// Each undirected edge is stored ONCE, on its smaller endpoint, so the
/// structure is an upper-triangular adjacency: vertex u's row holds its
/// neighbors v > u in strictly increasing order, encoded as LEB128 varints
/// of the gaps (first value = v0 - u, then v_i - v_{i-1}, every gap > 0; see
/// pprim/varint.hpp).  Edge *identity* is implicit — edge id e is the e-th
/// arc of the row walk — which is what keeps the structure under ~4 bytes
/// per edge on degree-10 graphs: no per-edge id, no reverse arc.  Weights
/// stay a raw f64 array indexed by that implicit id (they are incompressible
/// and the solvers touch them exactly once, to build weight ranks).
///
/// Canonical order invariant: rows hold the canonical winners of the edge
/// list (canonical_winners in graph/validate.hpp: ⟨weight, input-id⟩-minimal
/// per endpoint pair) in canonical order — the same choice as
/// canonicalize_parallel_edges, so the forest computed on the compressed
/// graph equals the forest on the canonicalized uncompressed graph
/// edge-for-edge (the bit-identity suite pins this at p in {1,2,4,8}).  Both
/// writers — build()/write_file() and CompressedCsrWriter — share one row
/// encoder and one header and section serializer, so they write identical
/// bytes for the same edges.
///
/// On-disk layout (native-endian, like SMPG; sections 8-byte aligned):
///   header   { "SMPZ", u32 version=1, u32 flags, u32 n, u64 m, u64 adj_bytes }
///   edge_offsets   (n+1) x u32    row -> first implicit edge id
///   byte_offsets   (n+1) x u32    row -> first adjacency byte (u64 when
///                                 flags bit0 set, i.e. adj_bytes >= 4 GiB)
///   adjacency      adj_bytes x u8 concatenated varint gap streams
///   weights        m x f64
///
/// open_file() maps the file read-only and VALIDATES everything once —
/// header geometry, offset monotonicity, per-row varint structure (so the
/// trusted SIMD bulk decoder can never overrun), target range and strict
/// monotonicity (no self-loop, no parallel edge),
/// weight finiteness; any violation throws smp::Error{kInvalidInput} naming
/// the path and byte offset.  After that every decode runs the unchecked
/// fast path.
class CompressedCsr {
 public:
  CompressedCsr() = default;

  /// Builds from an arbitrary edge list: normalizes endpoints, sorts,
  /// dedups parallel edges canonically.  `kept_input_ids` (optional out)
  /// maps each compressed edge id to the input index of the edge it kept.
  /// A self-loop, an endpoint out of range or a non-finite weight throws
  /// Error{kInvalidInput}.
  [[nodiscard]] static CompressedCsr build(
      const EdgeList& g, std::vector<EdgeId>* kept_input_ids = nullptr);

  /// The canonicalized edge list build() compressed — decode_edge_list()
  /// returns exactly this.  Exposed so callers can solve the identical
  /// input uncompressed for comparison.
  [[nodiscard]] EdgeList decode_edge_list() const;

  /// Decodes every target (larger endpoint) in implicit edge-id order via
  /// the bulk varint kernel + per-row prefix reconstruction.  `out` must
  /// hold num_edges() values.  This is what the decode-GB/s bench times.
  void decode_targets(VertexId* out) const;

  /// Same decode restricted to rows [row_begin, row_end): writes only
  /// out[edge_offset(row_begin) .. edge_offset(row_end)), so disjoint row
  /// ranges can decode into one num_edges()-sized array concurrently.
  void decode_targets(VertexId row_begin, VertexId row_end,
                      VertexId* out) const;

  /// Decodes row `u` (targets only) into out[0 .. out_degree(u)).
  void decode_row(VertexId u, VertexId* out) const;

  [[nodiscard]] VertexId num_vertices() const { return n_; }
  [[nodiscard]] EdgeId num_edges() const { return m_; }
  [[nodiscard]] EdgeId edge_offset(VertexId u) const { return edge_off_[u]; }
  [[nodiscard]] std::uint32_t out_degree(VertexId u) const {
    return edge_off_[u + 1] - edge_off_[u];
  }
  /// Smaller endpoint of edge e in O(log n) (binary search of edge_offsets);
  /// row walks get it for free.
  [[nodiscard]] VertexId source_of(EdgeId e) const;
  [[nodiscard]] const Weight* weights() const { return weights_; }
  [[nodiscard]] Weight weight(EdgeId e) const { return weights_[e]; }

  /// Sequential row walk: fn(EdgeId id, VertexId u, VertexId v, Weight w)
  /// in implicit edge-id order.
  template <class Fn>
  void for_each_edge(Fn&& fn) const {
    for_each_edge(0, m_, fn);
  }

  /// The same walk restricted to edge ids [begin, end): starts at the row
  /// holding `begin` (skipping its earlier gaps), so disjoint id ranges can
  /// be walked concurrently.
  template <class Fn>
  void for_each_edge(EdgeId begin, EdgeId end, Fn&& fn) const {
    if (begin >= end) return;
    VertexId u = source_of(begin);
    const std::uint8_t* p = adj_ + byte_off(u);
    VertexId v = u;
    for (EdgeId e = edge_off_[u]; e < begin; ++e) v += decode_gap(p);
    for (EdgeId e = begin; e < end;) {
      const EdgeId e_end = std::min<EdgeId>(edge_off_[u + 1], end);
      for (; e < e_end; ++e) {
        v += decode_gap(p);
        fn(e, u, v, weights_[e]);
      }
      ++u;
      v = u;
    }
  }

  /// Adjacency varint bytes alone.
  [[nodiscard]] std::size_t adjacency_bytes() const { return adj_bytes_; }
  /// Adjacency + both offset arrays — the "structure" term of bytes/edge
  /// (weights are reported separately; see docs/PERFORMANCE.md).
  [[nodiscard]] std::size_t structure_bytes() const;
  /// Structure + weights: total resident bytes of the graph.
  [[nodiscard]] std::size_t total_bytes() const {
    return structure_bytes() + sizeof(Weight) * static_cast<std::size_t>(m_);
  }
  [[nodiscard]] bool mapped() const { return !map_.path().empty(); }

  void write_file(const std::string& path) const;
  /// Maps and fully validates a .smpz file (see class comment).
  [[nodiscard]] static CompressedCsr open_file(const std::string& path);

 private:
  static VertexId decode_gap(const std::uint8_t*& p) {
    return varint_decode_u32(p);
  }
  [[nodiscard]] std::uint64_t byte_off(VertexId u) const {
    return off64_ ? byte_off64_[u] : byte_off32_[u];
  }
  void adopt_views(bool off64);

  VertexId n_ = 0;
  EdgeId m_ = 0;
  std::size_t adj_bytes_ = 0;
  bool off64_ = false;

  // Owned storage (build path) — empty when mmap-backed.
  std::vector<std::uint32_t> own_edge_off_;
  std::vector<std::uint32_t> own_byte_off32_;
  std::vector<std::uint64_t> own_byte_off64_;
  std::vector<std::uint8_t> own_adj_;
  std::vector<Weight> own_weights_;
  MmapFile map_;

  // Views into whichever storage backs the instance.
  const std::uint32_t* edge_off_ = nullptr;
  const std::uint32_t* byte_off32_ = nullptr;
  const std::uint64_t* byte_off64_ = nullptr;
  const std::uint8_t* adj_ = nullptr;
  const Weight* weights_ = nullptr;
};

/// The streaming .smpz writer behind `smpmsf convert` and `smpmsf gen`, for
/// graphs whose edge list never fits in memory.  Edges arrive in any order
/// and orientation, parallel edges included.  Each run of `run_edges`
/// records is sorted in the canonical order (CanonicalEdge); full runs
/// spill to one `.runs` file in `tmp_dir` (default: beside `path`).  finish()
/// k-way merges the spilled runs with the last one, keeps the first record
/// of each endpoint pair — the winner build() keeps, so both write identical
/// bytes — and encodes the rows.  Peak memory is the run buffer (24 B per
/// edge) plus 12(n+1) bytes of offsets: adjacency varints and weights
/// stream through `path + ".adj"/".w"` side files that finish() splices in.
class CompressedCsrWriter {
 public:
  static constexpr std::size_t kDefaultRunEdges = std::size_t{1} << 24;

  /// Throws Error{kInvalidInput} when run_edges is 0.
  CompressedCsrWriter(std::string path, VertexId n,
                      std::size_t run_edges = kDefaultRunEdges,
                      std::string tmp_dir = {});
  ~CompressedCsrWriter();
  CompressedCsrWriter(const CompressedCsrWriter&) = delete;
  CompressedCsrWriter& operator=(const CompressedCsrWriter&) = delete;

  /// Requires u != v, both < n, and a finite w; throws Error{kInvalidInput}
  /// otherwise.
  void add_edge(VertexId u, VertexId v, Weight w);
  void add_edges(std::span<const WEdge> edges);

  /// Merges, encodes and renames the file into place; returns the edge
  /// count.  Until then no file exists at `path`.  The writer is spent
  /// afterwards.
  EdgeId finish();

  /// Sorted runs so far: the spilled ones plus the one in memory.
  [[nodiscard]] std::size_t runs() const { return runs_; }

 private:
  void spill();

  std::string path_;
  VertexId n_ = 0;
  std::size_t run_edges_ = 0;
  std::string tmp_dir_;
  EdgeId read_ = 0;
  bool finished_ = false;
  std::size_t runs_ = 1;
  std::vector<CanonicalEdge> run_;
  std::unique_ptr<detail::ScratchFile> spilled_;  ///< the full runs, in order
};

}  // namespace smp::graph
