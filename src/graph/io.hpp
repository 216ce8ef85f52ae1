#pragma once

#include <cstddef>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"

namespace smp::graph {

/// Text serialization in DIMACS-like format:
///
///   c <comment>
///   p edge <num_vertices> <num_edges>
///   e <u> <v> <weight>        (vertices are 1-based on disk)
///
/// Weights round-trip exactly (printed with max_digits10 precision).
void write_dimacs(std::ostream& os, const EdgeList& g);
void write_dimacs_file(const std::string& path, const EdgeList& g);

/// Parses the format above (see EdgeReader for what is rejected) and keeps
/// only the canonical edge of each endpoint pair (canonicalize_parallel_edges
/// in graph/validate.hpp), so a loaded graph is simple and a deterministic
/// function of the file — the batch-dynamic subsystem resolves
/// delete-by-endpoints trace operations against exactly this canonical form.
/// The declared-edge-count check runs against the file *before*
/// canonicalization, so a load can return fewer edges than the header
/// declares.
EdgeList read_dimacs(std::istream& is);
EdgeList read_dimacs_file(const std::string& path);

/// Compact binary serialization for large graphs (little-endian):
///
///   magic "SMPG" | u32 version | u32 num_vertices | u64 num_edges |
///   num_edges × { u32 u, u32 v, f64 w }
///
/// An edge record has WEdge's layout, so records are read and written in
/// bulk.  Roughly 6x smaller and an order of magnitude faster to parse than
/// the text format at the paper's 1M/20M scale.  Read like read_dimacs.
void write_binary(std::ostream& os, const EdgeList& g);
void write_binary_file(const std::string& path, const EdgeList& g);
EdgeList read_binary(std::istream& is);
EdgeList read_binary_file(const std::string& path);

/// The one parser of both formats above: every consumer — the readers, the
/// serve daemon's `open` and `smpmsf convert` — pulls a file's edges through
/// it, in file order and verbatim (no canonicalization), a chunk at a time.
///
/// Rejected, as smp::Error{kInvalidInput} naming `source` and the line or
/// record: a missing or malformed header (DIMACS: an edge line before the
/// problem line, or a second problem line), an unknown DIMACS line tag, an endpoint out
/// of range, a self-loop, a non-finite weight, an edge count that differs
/// from the header's (DIMACS), and a truncated record block or trailing
/// bytes (.smpg).  Memory never grows from the declared count alone: a
/// reader holds at most one chunk of edges that the file actually contains.
class EdgeReader {
 public:
  enum class Format { kDimacs, kSmpg };
  static constexpr std::size_t kChunkEdges = std::size_t{1} << 16;

  /// Parses the header.  `source` names the input in diagnostics.
  EdgeReader(std::istream& is, Format format, std::string source);

  [[nodiscard]] VertexId num_vertices() const { return n_; }
  [[nodiscard]] EdgeId declared_edges() const { return declared_; }

  /// Appends up to kChunkEdges edges (0-based, validated) to `out`; returns
  /// false, appending none, once the input is exhausted and checked.
  bool read_chunk(std::vector<WEdge>& out);

 private:
  bool read_dimacs_chunk(std::vector<WEdge>& out);
  bool read_smpg_chunk(std::vector<WEdge>& out);
  void check(const WEdge& e, EdgeId record) const;
  [[noreturn]] void fail(const std::string& what) const;

  std::istream& is_;
  Format format_;
  std::string source_;
  VertexId n_ = 0;
  EdgeId declared_ = 0;
  EdgeId read_ = 0;
  std::size_t lineno_ = 0;
  std::string line_;
};

/// The graph file formats, picked by path suffix: .smpg binary edge list,
/// .smpz compressed CSR (graph/compressed_csr.hpp), anything else DIMACS
/// text.
enum class GraphFormat { kDimacs, kSmpg, kSmpz };

[[nodiscard]] GraphFormat format_of(const std::string& path);

/// The graph file at `path`, in the format its suffix names, as an edge
/// list with parallel edges canonicalized (a .smpz holds only canonical
/// edges already).  The one loader `smpmsf` and the serve `open` share.
[[nodiscard]] EdgeList load_graph(const std::string& path);

/// A file written under `path + ".tmp"` and renamed over `path` by commit():
/// a writer that throws before commit() leaves no file at `path`, and the
/// destructor removes the temporary.  Every graph-file writer goes through
/// one.  Failures throw smp::Error{kInvalidInput} naming the path.
class OutputFile {
 public:
  explicit OutputFile(std::string path);
  ~OutputFile();
  OutputFile(const OutputFile&) = delete;
  OutputFile& operator=(const OutputFile&) = delete;

  [[nodiscard]] std::ofstream& stream() { return os_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  void commit();

 private:
  std::string path_;
  std::string tmp_;
  std::ofstream os_;
  bool committed_ = false;
};

}  // namespace smp::graph
