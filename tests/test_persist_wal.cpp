// WAL framing: CRC32C vectors, record round-trips, torn-tail detection,
// and the corruption cases recovery must refuse to guess past.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "persist/crc32c.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"

namespace {

using namespace smp;
using namespace smp::persist;

/// Unique scratch directory per test, removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("smpmsf_wal_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return path + "/" + name;
  }
};

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

WalRecord sample_record(std::uint64_t lsn) {
  WalRecord rec;
  rec.lsn = lsn;
  rec.insertions = {{0, 1, 1.5}, {2, 3, -0.25}};
  rec.deletions = {7, 42};
  rec.idem_ids = {"req-a", "req-b"};
  return rec;
}

TEST(Crc32c, KnownVectors) {
  // The canonical CRC32C check value for the bytes "123456789".
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
  // Chaining across calls equals one pass over the concatenation.
  const std::uint32_t part = crc32c("12345", 5);
  EXPECT_EQ(crc32c("6789", 4, part), 0xE3069283u);
}

TEST(Wal, FsyncPolicyParsing) {
  EXPECT_EQ(parse_fsync_policy("always"), FsyncPolicy::kAlways);
  EXPECT_EQ(parse_fsync_policy("interval"), FsyncPolicy::kInterval);
  EXPECT_EQ(parse_fsync_policy("none"), FsyncPolicy::kNone);
  EXPECT_THROW((void)parse_fsync_policy("sometimes"), Error);
  EXPECT_EQ(to_string(FsyncPolicy::kAlways), "always");
}

TEST(Wal, RecordRoundTrip) {
  TempDir dir;
  const std::string path = dir.file("wal-0000000000000001.log");
  std::string bytes = encode_record(sample_record(1));
  WalRecord compact_rec;
  compact_rec.lsn = 2;
  compact_rec.compact = true;
  bytes += encode_record(compact_rec);
  write_file(path, bytes);

  const WalScan scan = scan_wal(path, 1);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, bytes.size());
  ASSERT_EQ(scan.records.size(), 2u);
  const WalRecord& r = scan.records[0];
  EXPECT_EQ(r.lsn, 1u);
  EXPECT_FALSE(r.compact);
  ASSERT_EQ(r.insertions.size(), 2u);
  EXPECT_EQ(r.insertions[0].u, 0u);
  EXPECT_EQ(r.insertions[0].v, 1u);
  EXPECT_DOUBLE_EQ(r.insertions[0].w, 1.5);
  EXPECT_DOUBLE_EQ(r.insertions[1].w, -0.25);
  EXPECT_EQ(r.deletions, (std::vector<graph::EdgeId>{7, 42}));
  EXPECT_EQ(r.idem_ids, (std::vector<std::string>{"req-a", "req-b"}));
  EXPECT_TRUE(scan.records[1].compact);
  EXPECT_EQ(scan.records[1].lsn, 2u);
}

TEST(Wal, MissingAndEmptyFilesAreValidEmptySegments) {
  TempDir dir;
  const WalScan missing = scan_wal(dir.file("nope.log"), 1);
  EXPECT_TRUE(missing.records.empty());
  EXPECT_FALSE(missing.torn_tail);
  EXPECT_EQ(missing.valid_bytes, 0u);

  write_file(dir.file("empty.log"), "");
  const WalScan empty = scan_wal(dir.file("empty.log"), 1);
  EXPECT_TRUE(empty.records.empty());
  EXPECT_FALSE(empty.torn_tail);
}

TEST(Wal, TornTailTruncatesAtEveryCutPoint) {
  TempDir dir;
  const std::string first = encode_record(sample_record(1));
  const std::string second = encode_record(sample_record(2));
  const std::string whole = first + second;
  // Cut the second record anywhere — mid-header, mid-payload, one byte
  // short — and the scan must return exactly record 1 plus a torn tail.
  for (std::size_t cut = first.size() + 1; cut < whole.size(); ++cut) {
    const std::string path = dir.file("torn.log");
    write_file(path, whole.substr(0, cut));
    const WalScan scan = scan_wal(path, 1);
    EXPECT_TRUE(scan.torn_tail) << "cut at " << cut;
    EXPECT_EQ(scan.valid_bytes, first.size()) << "cut at " << cut;
    ASSERT_EQ(scan.records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(scan.records[0].lsn, 1u);
  }
}

TEST(Wal, BitFlippedPayloadIsCorruptionNotATear) {
  TempDir dir;
  std::string bytes = encode_record(sample_record(1)) +
                      encode_record(sample_record(2));
  bytes[bytes.size() - 3] ^= 0x40;  // inside the second record's payload
  const std::string path = dir.file("flip.log");
  write_file(path, bytes);
  try {
    (void)scan_wal(path, 1);
    FAIL() << "corrupt record must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    // Diagnostics name the byte offset so the runbook's triage works.
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
        << e.what();
  }
}

TEST(Wal, DuplicateAndGappedLsnAreCorruption) {
  TempDir dir;
  {
    const std::string path = dir.file("dup.log");
    write_file(path,
               encode_record(sample_record(1)) + encode_record(sample_record(1)));
    try {
      (void)scan_wal(path, 1);
      FAIL() << "duplicate LSN must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
      EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
          << e.what();
    }
  }
  {
    const std::string path = dir.file("gap.log");
    write_file(path,
               encode_record(sample_record(1)) + encode_record(sample_record(3)));
    EXPECT_THROW((void)scan_wal(path, 1), Error);
  }
  {
    // First record does not carry the expected base LSN.
    const std::string path = dir.file("base.log");
    write_file(path, encode_record(sample_record(5)));
    EXPECT_THROW((void)scan_wal(path, 1), Error);
    // expected_lsn = 0 accepts any start.
    EXPECT_EQ(scan_wal(path, 0).records.size(), 1u);
  }
}

/// A whole frame with a valid CRC around a batch header claiming `n_ins`
/// insertions and nothing else: 29 bytes on disk.
std::string overclaiming_record(std::uint32_t n_ins) {
  std::string payload;
  const auto put = [&](auto v) {
    payload.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(std::uint8_t{1});   // batch record
  put(std::uint64_t{1});  // lsn
  put(n_ins);
  put(std::uint32_t{0});  // deletions
  put(std::uint32_t{0});  // idempotency ids
  std::string frame;
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32c(payload.data(), payload.size());
  frame.append(reinterpret_cast<const char*>(&len), sizeof len);
  frame.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  return frame + payload;
}

void expect_insertions_overrun(std::uint32_t n_ins) {
  TempDir dir;
  const std::string path = dir.file("claim.log");
  write_file(path, overclaiming_record(n_ins));
  ASSERT_EQ(std::filesystem::file_size(path), 29u);
  // The count is refused before anything is sized by it: no 4 GB or 64 GB
  // allocation, no bad_alloc, the diagnostic recovery prints.
  try {
    (void)scan_wal(path, 1);
    FAIL() << "a count the payload cannot hold must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("insertions overrun payload"),
              std::string::npos)
        << e.what();
  }
}

TEST(Wal, CountOf2To28InsertionsIsRefusedBeforeAllocating) {
  expect_insertions_overrun(std::uint32_t{1} << 28);
}

TEST(Wal, CountOf2To32Minus1InsertionsIsRefusedBeforeAllocating) {
  expect_insertions_overrun(~std::uint32_t{0});
}

TEST(Snapshot, IdemCountIsCheckedAgainstTheFile) {
  TempDir dir;
  dynamic::EdgeStore store(4);
  store.insert(0, 1, 1.0);
  write_snapshot_file(dir.path, 3, store, {0}, {});
  const std::string path = snapshot_path(dir.path, 3);
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  // The u32 idem count sits just before the 8-byte trailer (no entries).
  // Claim 2^32 − 1 ids and re-seal the CRC so only the count is wrong.
  const std::uint32_t huge = ~std::uint32_t{0};
  std::memcpy(bytes.data() + bytes.size() - 12, &huge, sizeof huge);
  const std::uint32_t crc = crc32c(bytes.data(), bytes.size() - 8);
  std::memcpy(bytes.data() + bytes.size() - 8, &crc, sizeof crc);
  write_file(path, bytes);
  try {
    (void)load_snapshot_file(path);
    FAIL() << "an idem count the file cannot hold must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("idem count overruns"),
              std::string::npos)
        << e.what();
  }
}

TEST(Snapshot, RoundTripAndValidation) {
  TempDir dir;
  dynamic::EdgeStore store(8);
  store.insert(0, 1, 1.0);
  const graph::EdgeId dead = store.insert(1, 2, 2.0);
  store.insert(2, 3, 3.0);
  store.erase(dead);  // tombstones must survive the round trip
  const std::vector<graph::EdgeId> forest = {0, 2};
  const std::vector<std::pair<std::string, std::uint64_t>> idem = {
      {"a", 1}, {"b", 2}};

  write_snapshot_file(dir.path, 7, store, forest, idem);
  ASSERT_EQ(list_snapshots(dir.path), (std::vector<std::uint64_t>{7}));

  const SnapshotBody body = load_snapshot_file(snapshot_path(dir.path, 7));
  EXPECT_EQ(body.lsn, 7u);
  EXPECT_EQ(body.store.size(), 3u);
  EXPECT_EQ(body.store.num_live(), 2u);
  EXPECT_EQ(body.store.num_vertices(), 8u);
  EXPECT_EQ(body.forest, forest);
  EXPECT_EQ(body.idem, idem);

  // A flipped bit anywhere fails the trailer CRC.
  const std::string path = snapshot_path(dir.path, 7);
  std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
  fs.seekp(12);
  char c = 0;
  fs.seekg(12);
  fs.read(&c, 1);
  c = static_cast<char>(c ^ 0x01);
  fs.seekp(12);
  fs.write(&c, 1);
  fs.close();
  EXPECT_THROW((void)load_snapshot_file(path), Error);
}

TEST(Snapshot, RetentionKeepsNewestAndSweepsTmp) {
  TempDir dir;
  dynamic::EdgeStore store(4);
  for (std::uint64_t lsn : {3u, 1u, 9u, 5u}) {
    write_snapshot_file(dir.path, lsn, store, {}, {});
  }
  write_file(dir.file("snap-00000000000000ff.snap.tmp"), "half-written");
  EXPECT_EQ(list_snapshots(dir.path),
            (std::vector<std::uint64_t>{9, 5, 3, 1}));
  retain_snapshots(dir.path, 2);
  EXPECT_EQ(list_snapshots(dir.path), (std::vector<std::uint64_t>{9, 5}));
  EXPECT_FALSE(std::filesystem::exists(dir.file("snap-00000000000000ff.snap.tmp")));
}

}  // namespace
