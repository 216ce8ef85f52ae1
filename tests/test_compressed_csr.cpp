// The compressed-CSR storage layer (graph/compressed_csr.hpp) and its
// varint substrate: LEB128 edge cases across every length class including
// the 5-byte encodings at the u32 boundary, structural validation of
// adjacency regions, file round-trips, rejection of truncated and
// bit-flipped .smpz files, and — the load-bearing promise — forests
// bit-identical to the canonicalized uncompressed solve at p in {1,2,4,8}.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/compressed_solve.hpp"
#include "core/error.hpp"
#include "core/msf.hpp"
#include "graph/compressed_csr.hpp"
#include "graph/generators.hpp"
#include "pprim/machine.hpp"
#include "pprim/varint.hpp"
#include "test_util.hpp"

namespace {

using namespace smp;
using namespace smp::graph;

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Varint: every length class, with the 5-byte u32-boundary encodings.

TEST(Varint, EncodedLengthPerLengthClass) {
  const struct {
    std::uint32_t v;
    std::size_t len;
  } cases[] = {
      {0, 1},           {127, 1},
      {128, 2},         {(1u << 14) - 1, 2},
      {1u << 14, 3},    {(1u << 21) - 1, 3},
      {1u << 21, 4},    {(1u << 28) - 1, 4},
      {1u << 28, 5},    {0xFFFFFFFFu, 5},
  };
  for (const auto& c : cases) {
    std::uint8_t buf[8] = {};
    EXPECT_EQ(varint_encode_u32(c.v, buf), c.len) << c.v;
    const std::uint8_t* p = buf;
    EXPECT_EQ(varint_decode_u32(p), c.v);
    EXPECT_EQ(static_cast<std::size_t>(p - buf), c.len);
    std::uint32_t got = 0;
    std::size_t len = 0;
    ASSERT_TRUE(varint_decode_u32_checked(buf, buf + c.len, &got, &len));
    EXPECT_EQ(got, c.v);
    EXPECT_EQ(len, c.len);
  }
}

TEST(Varint, CheckedRejectsTruncation) {
  std::uint8_t buf[8] = {};
  const std::size_t len = varint_encode_u32(0xFFFFFFFFu, buf);
  ASSERT_EQ(len, 5u);
  std::uint32_t v;
  std::size_t l;
  for (std::size_t cut = 0; cut < len; ++cut) {
    EXPECT_FALSE(varint_decode_u32_checked(buf, buf + cut, &v, &l)) << cut;
  }
  EXPECT_TRUE(varint_decode_u32_checked(buf, buf + len, &v, &l));
}

TEST(Varint, CheckedRejectsOverlongAndOverflow) {
  // Six continuation bytes: structurally overlong for u32.
  const std::uint8_t overlong[] = {0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
  std::uint32_t v;
  std::size_t l;
  EXPECT_FALSE(varint_decode_u32_checked(overlong, overlong + 6, &v, &l));
  // Five bytes whose final byte carries bits above 2^32 - 1.
  const std::uint8_t overflow[] = {0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
  EXPECT_FALSE(varint_decode_u32_checked(overflow, overflow + 5, &v, &l));
  // The largest valid 5-byte encoding decodes fine.
  const std::uint8_t maxv[] = {0xFF, 0xFF, 0xFF, 0xFF, 0x0F};
  ASSERT_TRUE(varint_decode_u32_checked(maxv, maxv + 5, &v, &l));
  EXPECT_EQ(v, 0xFFFFFFFFu);
}

TEST(Varint, BulkDecodeCrossesEveryLengthClass) {
  // Deterministic mix hitting 1..5-byte encodings, including both u32
  // boundary values, long enough to engage the SIMD kernel's wide loads.
  std::vector<std::uint32_t> vals;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 4096; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const int cls = static_cast<int>(x >> 61) % 5;
    vals.push_back(static_cast<std::uint32_t>(x) >> (7 * (4 - cls)));
  }
  vals.push_back((1u << 28) - 1);
  vals.push_back(1u << 28);
  vals.push_back(0xFFFFFFFFu);
  std::vector<std::uint8_t> enc;
  for (const std::uint32_t v : vals) varint_append_u32(enc, v);

  ASSERT_TRUE(varint_validate_region(enc.data(), enc.data() + enc.size(),
                                     vals.size()));
  std::vector<std::uint32_t> out(vals.size());
  const std::size_t used = varint_decode_bulk(
      enc.data(), enc.data() + enc.size(), vals.size(), out.data());
  EXPECT_EQ(used, enc.size());
  EXPECT_EQ(out, vals);

  std::vector<std::uint32_t> out2(vals.size());
  std::size_t consumed = 0;
  ASSERT_TRUE(varint_decode_bulk_checked(enc.data(), enc.data() + enc.size(),
                                         vals.size(), out2.data(), &consumed));
  EXPECT_EQ(consumed, enc.size());
  EXPECT_EQ(out2, vals);
}

TEST(Varint, ValidateRegionRejectsTrailingAndTruncatedBytes) {
  std::vector<std::uint8_t> enc;
  for (std::uint32_t v : {5u, 300u, 1u << 28}) varint_append_u32(enc, v);
  const std::uint8_t* p = enc.data();
  EXPECT_TRUE(varint_validate_region(p, p + enc.size(), 3));
  EXPECT_FALSE(varint_validate_region(p, p + enc.size() - 1, 3));  // truncated
  EXPECT_FALSE(varint_validate_region(p, p + enc.size(), 2));      // trailing
  EXPECT_FALSE(varint_validate_region(p, p + enc.size(), 4));      // too few
  EXPECT_TRUE(varint_validate_region(p, p, 0));
}

// ---------------------------------------------------------------------------
// CompressedCsr structure edge cases.

TEST(CompressedCsr, EdgelessGraphAndIsolatedVertices) {
  EdgeList g;
  g.num_vertices = 5;
  const CompressedCsr cz = CompressedCsr::build(g);
  EXPECT_EQ(cz.num_vertices(), 5u);
  EXPECT_EQ(cz.num_edges(), 0u);
  for (VertexId u = 0; u < 5; ++u) EXPECT_EQ(cz.out_degree(u), 0u);
  EXPECT_TRUE(cz.decode_edge_list().edges.empty());
  const MsfResult r = core::minimum_spanning_forest_compressed(cz);
  EXPECT_EQ(r.num_trees, 5u);
  EXPECT_TRUE(r.edge_ids.empty());
}

TEST(CompressedCsr, SingleVertex) {
  EdgeList g;
  g.num_vertices = 1;
  const CompressedCsr cz = CompressedCsr::build(g);
  EXPECT_EQ(cz.num_vertices(), 1u);
  EXPECT_EQ(cz.num_edges(), 0u);
  EXPECT_EQ(core::minimum_spanning_forest_compressed(cz).num_trees, 1u);
}

TEST(CompressedCsr, MaxDegreeVertexHoldsEveryEdge) {
  // A star: upper-triangular storage puts all n-1 edges on vertex 0, the
  // max-degree row — one long gap stream, empty rows everywhere else.
  constexpr VertexId n = 300;
  EdgeList g;
  g.num_vertices = n;
  for (VertexId v = 1; v < n; ++v) {
    g.edges.push_back({0, v, static_cast<Weight>(v)});
  }
  const CompressedCsr cz = CompressedCsr::build(g);
  ASSERT_EQ(cz.num_edges(), n - 1u);
  EXPECT_EQ(cz.out_degree(0), n - 1u);
  std::vector<VertexId> row(cz.out_degree(0));
  cz.decode_row(0, row.data());
  for (VertexId v = 1; v < n; ++v) EXPECT_EQ(row[v - 1], v);
  const MsfResult r = core::minimum_spanning_forest_compressed(cz);
  EXPECT_EQ(r.num_trees, 1u);
  EXPECT_EQ(r.edge_ids.size(), n - 1u);
}

TEST(CompressedCsr, DedupKeepsCanonicalParallelEdge) {
  EdgeList g;
  g.num_vertices = 4;
  g.edges.push_back({1, 0, 5.0});  // reversed endpoints normalize to (0,1)
  g.edges.push_back({0, 1, 2.0});  // lighter: the canonical survivor
  g.edges.push_back({0, 1, 2.0});  // same weight, later input id: loses
  g.edges.push_back({2, 3, 1.0});
  std::vector<EdgeId> kept;
  const CompressedCsr cz = CompressedCsr::build(g, &kept);
  ASSERT_EQ(cz.num_edges(), 2u);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], 1u);  // the weight-then-input-id minimal (0,1)
  EXPECT_EQ(kept[1], 3u);
  EXPECT_EQ(cz.weight(0), 2.0);
  EXPECT_EQ(cz.weight(1), 1.0);
}

TEST(CompressedCsr, FileRoundTripIsExact) {
  const EdgeList g = random_graph(500, 2500, 99);
  const CompressedCsr built = CompressedCsr::build(g);
  const std::string path = ::testing::TempDir() + "/smpz_roundtrip.smpz";
  built.write_file(path);
  const CompressedCsr mapped = CompressedCsr::open_file(path);
  EXPECT_TRUE(mapped.mapped());
  EXPECT_FALSE(built.mapped());
  ASSERT_EQ(mapped.num_vertices(), built.num_vertices());
  ASSERT_EQ(mapped.num_edges(), built.num_edges());
  const EdgeList a = built.decode_edge_list();
  const EdgeList b = mapped.decode_edge_list();
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].u, b.edges[i].u);
    EXPECT_EQ(a.edges[i].v, b.edges[i].v);
    EXPECT_EQ(a.edges[i].w, b.edges[i].w);
  }
  std::remove(path.c_str());
}

TEST(CompressedCsr, TruncatedFilesRejectedWithPathAndOffset) {
  const EdgeList g = random_graph(200, 1000, 7);
  const std::string path = ::testing::TempDir() + "/smpz_trunc.smpz";
  CompressedCsr::build(g).write_file(path);
  const std::string whole = read_file(path);
  ASSERT_GT(whole.size(), 64u);
  // Cut inside every section: header, edge offsets, byte offsets,
  // adjacency, weights.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{16}, std::size_t{40}, whole.size() / 3,
        whole.size() / 2, whole.size() - 1}) {
    write_bytes(path, whole.substr(0, keep));
    try {
      (void)CompressedCsr::open_file(path);
      FAIL() << "accepted a file truncated to " << keep << " bytes";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(CompressedCsr, BitFlipFuzzNeverCrashes) {
  // Flip one byte at a stride across the whole file: open_file must either
  // reject with kInvalidInput or produce a structurally valid graph — never
  // read out of bounds (ASan job) or accept a malformed region.
  const EdgeList g = random_graph(150, 700, 21);
  const std::string path = ::testing::TempDir() + "/smpz_fuzz.smpz";
  CompressedCsr::build(g).write_file(path);
  const std::string whole = read_file(path);
  int rejected = 0, accepted = 0;
  for (std::size_t pos = 0; pos < whole.size(); pos += 13) {
    std::string bad = whole;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    write_bytes(path, bad);
    try {
      const CompressedCsr cz = CompressedCsr::open_file(path);
      const EdgeList dec = cz.decode_edge_list();  // must stay in bounds
      EXPECT_EQ(dec.edges.size(), cz.num_edges());
      ++accepted;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
      ++rejected;
    }
  }
  // The structural fields dominate the file, so most flips must be caught.
  EXPECT_GT(rejected, 0);
  SUCCEED() << rejected << " rejected, " << accepted << " benign";
  std::remove(path.c_str());
}

TEST(CompressedCsr, WriterStreamsSameBytesAsBuild) {
  const EdgeList g = random_graph(400, 2000, 5);
  const CompressedCsr built = CompressedCsr::build(g);
  const std::string ref = ::testing::TempDir() + "/smpz_ref.smpz";
  const std::string str = ::testing::TempDir() + "/smpz_stream.smpz";
  built.write_file(ref);
  {
    CompressedCsrWriter w(str, built.num_vertices());
    built.for_each_edge(
        [&](EdgeId, VertexId u, VertexId v, Weight wt) { w.add_edge(u, v, wt); });
    EXPECT_EQ(w.finish(), built.num_edges());
  }
  EXPECT_EQ(read_file(ref), read_file(str));
  std::remove(ref.c_str());
  std::remove(str.c_str());
}

TEST(CompressedCsr, RunMergeWritesBuildBytesOnDuplicateHeavyInputs) {
  // The streaming writer's run sort and merge keep the same canonical
  // winner as build(), whatever the run size: one run, many, one edge each.
  const std::string ref = ::testing::TempDir() + "/smpz_dup_ref.smpz";
  const std::string str = ::testing::TempDir() + "/smpz_dup_runs.smpz";
  for (const std::uint64_t seed : {1, 2}) {
    const EdgeList g = test::duplicate_heavy_graph(60, 200, seed);
    CompressedCsr::build(g).write_file(ref);
    for (const std::size_t run : {std::size_t{7}, std::size_t{300},
                                  CompressedCsrWriter::kDefaultRunEdges}) {
      CompressedCsrWriter w(str, g.num_vertices, run);
      w.add_edges(g.edges);
      EXPECT_EQ(w.runs(), g.edges.size() / run + 1);
      EXPECT_EQ(w.finish(), CompressedCsr::open_file(ref).num_edges());
      EXPECT_EQ(read_file(ref), read_file(str)) << "seed " << seed << " run " << run;
    }
  }
  std::remove(ref.c_str());
  std::remove(str.c_str());
}

TEST(CompressedCsr, SelfLoopsAreRejectedByBothWritersAndOpen) {
  EdgeList g(3);
  g.add_edge(0, 1, 0.5);
  const std::string path = ::testing::TempDir() + "/smpz_loop.smpz";
  CompressedCsr::build(g).write_file(path);
  // Row 0's first gap sits at byte 64 (32-byte header, two 16-byte offset
  // sections); a zero first gap encodes the self-loop (0, 0).
  std::string bytes = read_file(path);
  ASSERT_EQ(bytes[64], 1);
  bytes[64] = 0;
  write_bytes(path, bytes);
  try {
    (void)CompressedCsr::open_file(path);
    FAIL() << "accepted a self-loop row";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("self-loop"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());

  g.edges.push_back({2, 2, 1.0});
  EXPECT_THROW((void)CompressedCsr::build(g), Error);
  CompressedCsrWriter w(path, 3);
  EXPECT_THROW(w.add_edge(2, 2, 1.0), Error);
}

TEST(CompressedCsr, FailedWriterLeavesNoFile) {
  const std::string path = ::testing::TempDir() + "/smpz_failed.smpz";
  std::remove(path.c_str());
  {
    CompressedCsrWriter w(path, 4, 2);
    w.add_edge(0, 1, 1.0);
    w.add_edge(1, 2, 1.0);  // spills a run
    EXPECT_THROW(w.add_edge(1, 9, 1.0), Error);
  }
  for (const std::string& left : {path, path + ".tmp", path + ".runs"}) {
    EXPECT_FALSE(std::ifstream(left).good()) << left;
  }
}

// ---------------------------------------------------------------------------
// The tentpole promise: compressed and uncompressed solves agree bit for bit.

TEST(CompressedSolve, BitIdenticalForestsAcrossThreads) {
  EdgeList g = random_graph(2000, 12000, 42);
  // Salt with parallel edges and reversed endpoints so canonicalization
  // actually has work to do.
  g.edges.push_back({10, 3, 0.25});
  g.edges.push_back({3, 10, 0.25});
  g.edges.push_back({7, 7 + 1, -1.5});
  const CompressedCsr cz = CompressedCsr::build(g);
  const EdgeList decoded = cz.decode_edge_list();
  for (const auto alg : {core::Algorithm::kChampion, core::Algorithm::kBorFAL}) {
    for (const int p : {1, 2, 4, 8}) {
      core::MsfOptions opts;
      opts.algorithm = alg;
      opts.threads = p;
      const MsfResult rc = core::minimum_spanning_forest_compressed(cz, opts);
      const MsfResult ru = core::minimum_spanning_forest(decoded, opts);
      EXPECT_EQ(test::sorted_ids(rc), test::sorted_ids(ru))
          << to_string(alg) << " p=" << p;
      EXPECT_EQ(rc.total_weight, ru.total_weight) << to_string(alg) << " p=" << p;
      EXPECT_EQ(rc.num_trees, ru.num_trees);
    }
  }
}

TEST(CompressedSolve, NonFalAlgorithmFallsBackToEagerDecodeIdentically) {
  const EdgeList g = random_graph(800, 4000, 11);
  const CompressedCsr cz = CompressedCsr::build(g);
  core::MsfOptions opts;
  opts.algorithm = core::Algorithm::kBorAL;  // unstreamable: eager path
  opts.threads = 2;
  const MsfResult rc = core::minimum_spanning_forest_compressed(cz, opts);
  const MsfResult ru = core::minimum_spanning_forest(cz.decode_edge_list(), opts);
  EXPECT_EQ(test::sorted_ids(rc), test::sorted_ids(ru));
  EXPECT_EQ(rc.total_weight, ru.total_weight);
}

// ---------------------------------------------------------------------------
// Machine probing.

TEST(Machine, ProfileIsSaneAndCached) {
  const MachineProfile& p = machine_profile();
  EXPECT_GE(p.hardware_threads, 1u);
  EXPECT_GE(p.available_threads, 1u);
  EXPECT_LE(p.available_threads, p.hardware_threads);
  EXPECT_GE(p.cache_line_bytes, 16u);
  EXPECT_GE(p.page_bytes, 512u);
  EXPECT_STREQ(p.simd, varint_bulk_isa_name());  // the one ISA check
  EXPECT_EQ(&p, &machine_profile());  // cached, same object
  const std::string j = machine_profile_json();
  EXPECT_NE(j.find("\"hardware_threads\""), std::string::npos);
  EXPECT_NE(j.find("\"simd\""), std::string::npos);
}

}  // namespace
