// DIMACS-like text I/O: exact round-trip and malformed-input handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/error.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace {

using namespace smp::graph;

TEST(GraphIO, RoundTripPreservesEverything) {
  const EdgeList g = random_graph(200, 700, 3);
  std::stringstream ss;
  write_dimacs(ss, g);
  const EdgeList h = read_dimacs(ss);
  EXPECT_EQ(h.num_vertices, g.num_vertices);
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    EXPECT_EQ(h.edges[i].u, g.edges[i].u);
    EXPECT_EQ(h.edges[i].v, g.edges[i].v);
    EXPECT_EQ(h.edges[i].w, g.edges[i].w) << "weights must round-trip exactly";
  }
}

TEST(GraphIO, EmptyAndEdgelessGraphs) {
  std::stringstream ss;
  write_dimacs(ss, EdgeList(5));
  const EdgeList h = read_dimacs(ss);
  EXPECT_EQ(h.num_vertices, 5u);
  EXPECT_EQ(h.num_edges(), 0u);
}

TEST(GraphIO, CommentsAreSkipped) {
  std::istringstream is("c hello\np edge 3 1\nc mid comment\ne 1 3 2.5\n");
  const EdgeList g = read_dimacs(is);
  EXPECT_EQ(g.num_vertices, 3u);
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edges[0].u, 0u);
  EXPECT_EQ(g.edges[0].v, 2u);
  EXPECT_DOUBLE_EQ(g.edges[0].w, 2.5);
}

TEST(GraphIO, MalformedInputsThrow) {
  {
    std::istringstream is("e 1 2 3.0\n");  // edge before header
    EXPECT_THROW(read_dimacs(is), std::runtime_error);
  }
  {
    std::istringstream is("p edge 3 2\ne 1 2 1.0\n");  // count mismatch
    EXPECT_THROW(read_dimacs(is), std::runtime_error);
  }
  {
    std::istringstream is("p edge 3 1\ne 0 2 1.0\n");  // 0 is invalid (1-based)
    EXPECT_THROW(read_dimacs(is), std::runtime_error);
  }
  {
    std::istringstream is("p edge 3 1\ne 1 4 1.0\n");  // out of range
    EXPECT_THROW(read_dimacs(is), std::runtime_error);
  }
  {
    std::istringstream is("q edge 3 1\n");  // unknown tag
    EXPECT_THROW(read_dimacs(is), std::runtime_error);
  }
  {
    std::istringstream is("");  // missing header
    EXPECT_THROW(read_dimacs(is), std::runtime_error);
  }
}

TEST(GraphIO, ReaderCanonicalizesParallelEdges) {
  // Duplicate {u,v} pairs collapse to the <weight, edge-id>-minimal edge at
  // load time: lightest weight wins, earliest line wins a weight tie.
  std::istringstream is(
      "p edge 4 5\n"
      "e 1 2 3.0\n"
      "e 2 1 1.0\n"   // same pair, lighter: replaces line 1
      "e 1 2 1.0\n"   // weight tie: earlier edge (line 2) is kept
      "e 3 4 2.0\n"
      "e 3 4 2.0\n"   // exact duplicate: first occurrence kept
      );
  const EdgeList g = read_dimacs(is);
  ASSERT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edges[0].u, 1u);  // stored 0-based, canonical u < v not forced
  EXPECT_EQ(g.edges[0].v, 0u);
  EXPECT_DOUBLE_EQ(g.edges[0].w, 1.0);
  EXPECT_EQ(g.edges[1].u, 2u);
  EXPECT_EQ(g.edges[1].v, 3u);
  EXPECT_DOUBLE_EQ(g.edges[1].w, 2.0);
}

TEST(GraphIO, BinaryReaderCanonicalizesToo) {
  EdgeList g(3);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 0, 2.0);
  g.add_edge(1, 2, 1.0);
  const std::string path = ::testing::TempDir() + "/smpmsf_io_canon.smpg";
  write_binary_file(path, g);
  const EdgeList h = read_binary_file(path);
  ASSERT_EQ(h.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(h.edges[0].w, 2.0);
  EXPECT_DOUBLE_EQ(h.edges[1].w, 1.0);
}

TEST(GraphIO, FileRoundTrip) {
  const EdgeList g = mesh2d(8, 8, 4);
  const std::string path = ::testing::TempDir() + "/smpmsf_io_test.gr";
  write_dimacs_file(path, g);
  const EdgeList h = read_dimacs_file(path);
  EXPECT_EQ(h.num_vertices, g.num_vertices);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_THROW(read_dimacs_file(path + ".does-not-exist"), std::runtime_error);
}

std::string smpg_bytes(const EdgeList& g) {
  std::ostringstream os(std::ios::binary);
  write_binary(os, g);
  return os.str();
}

void expect_invalid(const std::string& text, bool binary, const char* what) {
  std::istringstream is(text, std::ios::binary);
  try {
    (void)(binary ? read_binary(is) : read_dimacs(is));
    FAIL() << "accepted: " << what;
  } catch (const smp::Error& e) {
    EXPECT_EQ(e.code(), smp::ErrorCode::kInvalidInput) << what;
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(GraphIO, OneRuleForBadBytes) {
  expect_invalid("p edge 3 1\ne 2 2 0.1\n", false, "self-loop at line 2");
  expect_invalid("p edge 3 5\ne 1 2 0.5\ne 2 3 0.5\n", false,
                 "edge count mismatch: 2 edges, 5 declared");
  expect_invalid("p edge 3 1\ne 1 2 0.5\ne 2 3 0.5\n", false,
                 "more edges than the declared 1 at line 3");
  expect_invalid("p edge 3 1\np edge 3 1\ne 1 2 0.5\n", false,
                 "second problem line");
  EdgeList loop(3);
  loop.edges.push_back({1, 1, 0.5});  // bypassing add_edge's assert
  expect_invalid(smpg_bytes(loop), true, "self-loop at edge record 0");
  EdgeList g(3);
  g.add_edge(0, 1, 0.5);
  g.add_edge(1, 2, 0.5);
  const std::string whole = smpg_bytes(g);
  expect_invalid(whole.substr(0, whole.size() - 1), true,
                 "truncated at edge record 1 of 2");
  expect_invalid(whole + "x", true, "trailing bytes");
  expect_invalid(whole.substr(0, 10), true, "truncated header");
}

TEST(GraphIO, LongCommentsAreSkipped) {
  const std::string comment = "c " + std::string(5000, 'x') + "\n";
  std::istringstream is(comment + "p edge 3 1\n" + comment + "e 1 3 2.5\n");
  const EdgeList g = read_dimacs(is);
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edges[0].w, 2.5);
}

TEST(GraphIO, EdgeReaderStreamsVerbatimAcrossChunks) {
  // More than two chunks, with parallel edges the readers would drop: the
  // parser itself hands back every record in file order.
  EdgeList g = random_graph(3000, 2 * EdgeReader::kChunkEdges + 3, 5);
  g.edges.push_back(g.edges.front());
  std::ostringstream text;
  write_dimacs(text, g);
  for (const bool binary : {false, true}) {
    std::istringstream is(binary ? smpg_bytes(g) : text.str(), std::ios::binary);
    EdgeReader r(is, binary ? EdgeReader::Format::kSmpg : EdgeReader::Format::kDimacs,
                 "test");
    EXPECT_EQ(r.num_vertices(), g.num_vertices);
    EXPECT_EQ(r.declared_edges(), g.num_edges());
    std::vector<WEdge> all;
    int chunks = 0;
    while (r.read_chunk(all)) ++chunks;
    EXPECT_EQ(chunks, 3);
    EXPECT_EQ(all, g.edges) << (binary ? "smpg" : "dimacs");
    EXPECT_FALSE(r.read_chunk(all));
  }
}

TEST(GraphIO, FailedWriteLeavesNoFile) {
  const std::string path = ::testing::TempDir() + "/smpmsf_io_failed.gr";
  std::remove(path.c_str());
  {
    OutputFile out(path);
    out.stream() << "p edge 1 0\n";
  }  // never committed
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  OutputFile out(path);
  out.stream() << "p edge 1 0\n";
  out.commit();
  EXPECT_EQ(read_dimacs_file(path).num_vertices, 1u);
  std::remove(path.c_str());
}

}  // namespace
