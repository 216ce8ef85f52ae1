#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/edge_list.hpp"
#include "graph/io.hpp"
#include "graph/mmap_file.hpp"
#include "graph/types.hpp"

namespace smp::dynamic {

/// Read-only, mmap-backed slab of WEdge records — the zero-copy base layer
/// a billion-edge EdgeStore sits on (format .slab, written by EdgeSlabWriter,
/// e.g. through `smpmsf convert IN OUT.slab`).  Records are the in-memory
/// WEdge layout, so opening a slab costs one mmap plus one validation scan;
/// the store then serves reads straight from the page cache instead of
/// materializing 16 bytes per edge on the heap.
///
/// Layout (native-endian): { "SMPB", u32 version=1, u32 n, u32 pad, u64 m }
/// header (24 bytes, so m and the records stay 8-aligned), then m x
/// WEdge{u32 u, u32 v, f64 w}.
///
/// open() validates the header, the exact file length, and every record
/// against the EdgeStore insertion invariants (no self-loops, endpoints in
/// range, finite weights) — a slab that passes is safe to adopt as store
/// slots without per-access checks.  Every failure throws
/// smp::Error{kInvalidInput} naming the path and the byte offset of the
/// violation.
class EdgeSlab {
 public:
  EdgeSlab() = default;

  [[nodiscard]] static EdgeSlab open(const std::string& path);

  /// Writes `g` as a slab file through one EdgeSlabWriter.
  static void write_file(const std::string& path, const graph::EdgeList& g);

  [[nodiscard]] graph::VertexId num_vertices() const { return n_; }
  [[nodiscard]] graph::EdgeId num_edges() const { return m_; }
  [[nodiscard]] const graph::WEdge* edges() const { return edges_; }
  [[nodiscard]] const std::string& path() const { return map_.path(); }

 private:
  graph::MmapFile map_;
  graph::VertexId n_ = 0;
  graph::EdgeId m_ = 0;
  const graph::WEdge* edges_ = nullptr;
};

/// The one .slab writer: records are appended verbatim (a slab is a
/// multigraph; parallel edges survive) after the same per-record check
/// open() runs, and finish() patches the edge count into the header and
/// renames the file into place — until then no file exists at `path`.
/// Throws smp::Error{kInvalidInput} naming the path and byte offset.
class EdgeSlabWriter {
 public:
  EdgeSlabWriter(std::string path, graph::VertexId n);

  void add_edges(std::span<const graph::WEdge> edges);
  /// Returns the edge count.  The writer is spent afterwards.
  graph::EdgeId finish();

 private:
  graph::OutputFile out_;
  graph::VertexId n_;
  graph::EdgeId m_ = 0;
};

/// The graph file formats, picked by path suffix: .smpg binary edge list,
/// .smpz compressed CSR, .slab edge slab, anything else DIMACS text.
enum class GraphFormat { kDimacs, kSmpg, kSmpz, kSlab };

[[nodiscard]] GraphFormat format_of(const std::string& path);

/// The graph file at `path`, in the format its suffix names, as an edge
/// list with parallel edges canonicalized (a .smpz holds only canonical
/// edges already).  The one loader `smpmsf` and the serve `open` share.
[[nodiscard]] graph::EdgeList load_graph(const std::string& path);

}  // namespace smp::dynamic
