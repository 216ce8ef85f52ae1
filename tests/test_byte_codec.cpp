// Golden bytes for every binary boundary: one WAL record, one request and
// one response frame, and one snapshot file, pinned byte for byte.  The
// encoders may change how they write; what they write may not.  Then the
// byte codec itself: its layout, its count rule and its sticky failure.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "dynamic/edge_store.hpp"
#include "net/frame.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "pprim/byte_codec.hpp"

namespace {

using namespace smp;

std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

TEST(GoldenBytes, WalRecord) {
  persist::WalRecord rec;
  rec.lsn = 5;
  rec.insertions = {{1, 2, 0.5}, {3, 4, -2.0}};
  rec.deletions = {9};
  rec.idem_ids = {"req-1"};
  EXPECT_EQ(hex(persist::encode_record(rec)),
            "44000000c1e680b2010500000000000000020000000100000001000000010000"
            "0002000000000000000000e03f030000000400000000000000000000c0090000"
            "000000000005007265712d31");
}

TEST(GoldenBytes, RequestFrame) {
  net::BinRequest r;
  r.id = 7;
  r.req.op = serve::Op::kInsert;
  r.req.session = "g";
  r.req.insertions = {{1, 2, 1.5}};
  r.req.deletions = {{3, 4}};
  r.req.deadline_s = 2.0;
  r.req.idem_id = "id-7";
  std::string msg;
  net::encode_request(msg, r);
  std::string wire;
  net::frame_message(wire, msg);
  EXPECT_EQ(hex(wire),
            "69000000c8899d1f010700000000000000010701000000670000000000000000"
            "0000000000000000010000000100000002000000000000000000f83f01000000"
            "0300000004000000000000000000000000000000000000000000000000000000"
            "400400000069642d370000000000000000");
}

TEST(GoldenBytes, ResponseFrame) {
  net::BinResponse r;
  r.id = 7;
  r.op = serve::Op::kInsert;
  r.resp.detail = "done";
  r.resp.weight = 1.5;
  r.resp.trees = 2;
  r.resp.edges = {{1, 2, 0.25}};
  r.resp.edge_ids = {4};
  r.resp.sessions = {"g"};
  r.resp.lsn = 3;
  r.resp.idem_id = "id-7";
  r.resp.shard_depths = {1};
  r.resp.listeners = {"u"};
  r.resp.epoch = 9;
  std::string wire;
  net::encode_response_frame(wire, r);
  EXPECT_EQ(hex(wire),
            "25010000d7661d3101070000000000000001070004000000646f6e6500000000"
            "0000f83f02000000000000000000000000000000000000000000000000010000"
            "0000000000000000000000000000000000000000000000000100000001000000"
            "02000000000000000000d03f0100000004000000000000000100000001000000"
            "670000000003000000000000000400000069642d370000000000000000000000"
            "0000000000000000000000000001000000010000000000000000000000000000"
            "0001000000010000007509000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "00000000000000000000000000");
}

TEST(GoldenBytes, SnapshotFile) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("smpmsf_golden_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  dynamic::EdgeStore store(4);
  store.insert(0, 1, 1.0);
  const graph::EdgeId dead = store.insert(1, 2, 2.0);
  store.insert(2, 3, 3.0);
  store.erase(dead);
  persist::write_snapshot_file(dir, 6, store, {0, 2}, {{"ab", 5}});
  std::string bytes;
  {
    std::ifstream is(persist::snapshot_path(dir, 6), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  std::filesystem::remove_all(dir);
  EXPECT_EQ(hex(bytes),
            "534d50534e415031060000000000000004000000030000000000000000000000"
            "01000000000000000000f03f0001000000020000000000000000000040010200"
            "0000030000000000000000000840000200000000000000000000000000000002"
            "000000000000000100000002006162050000000000000079714270534e4150");
}

TEST(ByteCodec, WritesLittleEndianAndReadsItBack) {
  std::string out;
  ByteWriter w(out);
  w.u8(0x01);
  w.u16(0x0302);
  w.u32(0x07060504u);
  w.u64(0x0f0e0d0c0b0a0908ull);
  w.f64(-2.0);
  w.str("ab");
  EXPECT_EQ(hex(out),
            "0102030405060708090a0b0c0d0e0f"
            "00000000000000c0"
            "020000006162");
  ByteReader r(out);
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_EQ(r.u16(), 0x0302);
  EXPECT_EQ(r.u32(), 0x07060504u);
  EXPECT_EQ(r.u64(), 0x0f0e0d0c0b0a0908ull);
  EXPECT_EQ(r.f64(), -2.0);
  EXPECT_EQ(r.str(), "ab");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.offset(), out.size());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteCodec, CountFitsAtExactlyRemainingOverMinAndNotOnePast) {
  const std::string bytes(4 + 3 * 16 + 5, '\0');
  ByteReader fits(bytes);
  (void)fits.u32();
  // 53 bytes left: three 16-byte elements fit, and the count check reads
  // nothing.
  EXPECT_TRUE(fits.count(53 / 16, 16));
  EXPECT_TRUE(fits.ok());
  EXPECT_EQ(fits.remaining(), 53u);

  ByteReader over(bytes);
  (void)over.u32();
  EXPECT_FALSE(over.count(53 / 16 + 1, 16));
  EXPECT_FALSE(over.ok());
  // A count whose byte total would overflow 64 bits is refused too.
  ByteReader huge(bytes);
  EXPECT_FALSE(huge.count(~std::uint64_t{0}, 16));
}

TEST(ByteCodec, U32WithThreeBytesLeftFailsWithoutReading) {
  const std::string bytes = "\x01\x02\x03";
  ByteReader r(bytes);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.offset(), 0u);
  EXPECT_EQ(r.remaining(), 3u);
}

TEST(ByteCodec, FailureIsStickyAfterTheFirstShortRead) {
  const std::string bytes("\x05\x00\x00\x00xy\x09", 7);
  ByteReader r(bytes);
  ASSERT_EQ(r.remaining(), 7u);
  // The string claims 5 bytes and only 3 follow.
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
  // Later reads that would fit still fail and return zero values.
  EXPECT_EQ(r.u8(), 0);
  EXPECT_EQ(r.bytes(1), "");
  EXPECT_TRUE(r.bytes(0).empty());
  EXPECT_FALSE(r.count(0, 1));
  EXPECT_FALSE(r.ok());
}

}  // namespace
