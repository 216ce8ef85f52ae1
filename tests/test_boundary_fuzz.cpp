// Seeded mutation fuzzer over the binary boundaries and the line protocol.
//
// Valid request and response frames (single and batch), WAL records,
// snapshot files and protocol lines are bit-flipped, truncated, spliced and
// given inflated count fields (2^28 and 2^32 − 1 written over every 4-byte
// window of every valid input).  A mutated frame, record or snapshot gets a
// fresh CRC before it is decoded, so each mutation reaches the decoder
// instead of stopping at the checksum.  Every input must decode, or be
// refused with a typed Error / a false return plus a non-empty diagnostic:
// no crash, no other exception, no allocation sized by a count the bytes
// cannot hold (the sanitizer jobs run this file too).
//
// The seed and iteration counts are constants and nothing reads a clock: a
// failure prints the seed (or the sweep offset) that replays it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "dynamic/edge_store.hpp"
#include "net/frame.hpp"
#include "persist/crc32c.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "pprim/byte_codec.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace smp;

constexpr std::uint64_t kSeed = 0x42b0d2f5eedULL;
constexpr int kIterations = 3000;
constexpr std::uint32_t kInflated[] = {std::uint32_t{1} << 28,
                                       ~std::uint32_t{0}};

/// Decodes one input; returns "" when it decoded or was refused properly,
/// else what went wrong.
using Decoder = std::function<std::string(const std::string&)>;

/// Runs `decode` and turns every way it can end into a verdict.
std::string verdict(const Decoder& decode, const std::string& input) {
  try {
    return decode(input);
  } catch (const Error& e) {
    return std::string(e.what()).empty() ? "Error with no diagnostic" : "";
  } catch (const std::exception& e) {
    return std::string("untyped exception: ") + e.what();
  }
}

/// A refusal through a bool and an error string must carry a diagnostic.
std::string refused(bool ok, const std::string& error) {
  return ok || !error.empty() ? "" : "refused with no diagnostic";
}

void put_u32_at(std::string& s, std::size_t off, std::uint32_t v) {
  std::string le;
  ByteWriter(le).u32(v);
  s.replace(off, 4, le);
}

/// One random mutation of one corpus entry: flip 1-8 bits, truncate, splice
/// two entries, or inflate a 4-byte window.
std::string mutate(const std::vector<std::string>& corpus, std::mt19937_64& rng) {
  std::string s = corpus[rng() % corpus.size()];
  switch (rng() % 4) {
    case 0:
      for (std::uint64_t k = 1 + rng() % 8; k > 0 && !s.empty(); --k) {
        s[rng() % s.size()] ^= static_cast<char>(1u << (rng() % 8));
      }
      break;
    case 1:
      s.resize(s.empty() ? 0 : rng() % s.size());
      break;
    case 2: {
      const std::string& t = corpus[rng() % corpus.size()];
      s = s.substr(0, rng() % (s.size() + 1)) + t.substr(rng() % (t.size() + 1));
      break;
    }
    default:
      if (s.size() >= 4) {
        put_u32_at(s, rng() % (s.size() - 3), kInflated[rng() % 2]);
      }
      break;
  }
  return s;
}

/// `kIterations` random mutants, then every corpus entry with each inflated
/// value written over each 4-byte window.
void fuzz(const char* what, const std::vector<std::string>& corpus,
          const Decoder& decode) {
  for (const std::string& valid : corpus) {
    ASSERT_EQ(verdict(decode, valid), "") << what << ": a valid input";
  }
  for (int i = 0; i < kIterations; ++i) {
    const std::uint64_t seed = kSeed + static_cast<std::uint64_t>(i);
    std::mt19937_64 rng(seed);
    const std::string why = verdict(decode, mutate(corpus, rng));
    ASSERT_EQ(why, "") << what << ": mutant of seed " << seed;
  }
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    for (std::size_t off = 0; off + 4 <= corpus[c].size(); ++off) {
      for (const std::uint32_t v : kInflated) {
        std::string s = corpus[c];
        put_u32_at(s, off, v);
        ASSERT_EQ(verdict(decode, s), "")
            << what << ": corpus entry " << c << " with " << v
            << " at offset " << off;
      }
    }
  }
}

/// [u32 len][u32 crc32c][payload]: the envelope the wire and the WAL share.
std::string seal(const std::string& payload) {
  std::string out;
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(persist::crc32c(payload.data(), payload.size()));
  w.bytes(payload);
  return out;
}

struct TempDir {
  std::string path;
  TempDir() {
    path = (std::filesystem::temp_directory_path() /
            ("smpmsf_fuzz_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

std::vector<net::BinRequest> sample_requests() {
  std::vector<net::BinRequest> out(4);
  out[0].id = 1;
  out[0].req.op = serve::Op::kInsert;
  out[0].req.session = "graph-a";
  out[0].req.insertions = {{0, 1, 1.5}, {1, 2, -0.5}, {2, 3, 4.0}};
  out[0].req.idem_id = "client-7";
  out[1].id = 2;
  out[1].req.op = serve::Op::kDelete;
  out[1].req.session = "graph-a";
  out[1].req.deletions = {{0, 1}, {2, 3}};
  out[2].id = 3;
  out[2].req.op = serve::Op::kOpen;
  out[2].req.session = "mesh";
  out[2].req.path = "/data/mesh.smpg";
  out[2].req.deadline_s = 1.5;
  out[3].id = 4;
  out[3].req.op = serve::Op::kTopK;
  out[3].req.session = "mesh";
  out[3].req.limit = 10;
  out[3].req.lambda = 0.25;
  out[3].req.has_lambda = true;
  out[3].req.pin_epoch = 9;
  return out;
}

std::vector<net::BinResponse> sample_responses() {
  std::vector<net::BinResponse> out(2);
  out[0].id = 1;
  out[0].op = serve::Op::kForestEdges;
  out[0].resp.weight = 12.5;
  out[0].resp.edges = {{1, 2, 0.5}, {2, 3, 0.75}};
  out[0].resp.edge_ids = {42, 43};
  out[0].resp.lsn = 7;
  out[0].resp.idem_id = "client-7";
  out[1].id = 2;
  out[1].op = serve::Op::kHealth;
  out[1].resp.status = serve::Status::kNotFound;
  out[1].resp.detail = "no session named 'x'";
  out[1].resp.sessions = {"graph-a", "mesh"};
  out[1].resp.stats_json = "{\"queue\": 1}";
  out[1].resp.shard_depths = {3, 0};
  out[1].resp.listeners = {"uds:/tmp/s.sock", "tcp:4321"};
  return out;
}

/// Frame payloads (kind byte onwards): each message alone, then all of
/// them as one batch.
template <typename Msg, typename Encode>
std::vector<std::string> payloads(const std::vector<Msg>& msgs, Encode encode) {
  std::vector<std::string> out;
  std::vector<std::string> batch;
  for (const Msg& m : msgs) {
    std::string body;
    encode(body, m);
    std::string wire;
    net::frame_message(wire, body);
    out.push_back(wire.substr(8));
    batch.push_back(body);
  }
  std::string wire;
  net::frame_batch(wire, batch);
  out.push_back(wire.substr(8));
  return out;
}

/// Reads `wire` as a frame stream and decodes every complete frame.
template <typename Msg>
std::string decode_frames(const std::string& wire,
                          bool (*decode)(std::string_view, std::vector<Msg>&,
                                         std::string&)) {
  std::size_t off = 0;
  while (off < wire.size()) {
    std::string_view payload;
    std::string error;
    switch (net::try_read_frame(wire, off, payload, error)) {
      case net::DecodeStatus::kNeedMore:
        return "";
      case net::DecodeStatus::kFatal:
        return refused(false, error);
      case net::DecodeStatus::kBadFrame:
        if (error.empty()) return "bad frame with no diagnostic";
        continue;
      case net::DecodeStatus::kOk:
        break;
    }
    std::vector<Msg> msgs;
    if (const std::string why = refused(decode(payload, msgs, error), error);
        !why.empty()) {
      return why;
    }
  }
  return "";
}

TEST(BoundaryFuzz, RequestFrames) {
  const std::vector<std::string> corpus =
      payloads(sample_requests(), net::encode_request);
  fuzz("request payload", corpus, [](const std::string& payload) {
    return decode_frames<net::BinRequest>(seal(payload),
                                          &net::decode_request_payload);
  });
  // Unsealed: mutations of whole frames reach the frame reader itself.
  std::vector<std::string> frames;
  for (const std::string& p : corpus) frames.push_back(seal(p));
  fuzz("request frame", frames, [](const std::string& wire) {
    return decode_frames<net::BinRequest>(wire, &net::decode_request_payload);
  });
}

TEST(BoundaryFuzz, ResponseFrames) {
  const std::vector<std::string> corpus =
      payloads(sample_responses(), net::encode_response);
  fuzz("response payload", corpus, [](const std::string& payload) {
    return decode_frames<net::BinResponse>(seal(payload),
                                           &net::decode_response_payload);
  });
}

TEST(BoundaryFuzz, WalRecords) {
  std::vector<std::string> corpus;
  persist::WalRecord rec;
  rec.lsn = 1;
  rec.insertions = {{0, 1, 1.5}, {2, 3, -0.25}};
  rec.deletions = {7, 42};
  rec.idem_ids = {"req-a", "req-b"};
  corpus.push_back(persist::encode_record(rec).substr(8));
  rec.lsn = 2;
  rec.compact = true;
  rec.insertions.clear();
  rec.deletions.clear();
  rec.idem_ids.clear();
  corpus.push_back(persist::encode_record(rec).substr(8));
  TempDir dir;
  const std::string path = dir.path + "/wal-0000000000000001.log";
  fuzz("WAL record", corpus, [&](const std::string& payload) {
    write_file(path, seal(payload));
    (void)persist::scan_wal(path, 0);
    return std::string();
  });
}

TEST(BoundaryFuzz, SnapshotFiles) {
  TempDir dir;
  std::vector<std::string> corpus;
  dynamic::EdgeStore store(6);
  persist::write_snapshot_file(dir.path, 1, store, {}, {});
  store.insert(0, 1, 1.0);
  const graph::EdgeId dead = store.insert(1, 2, 2.0);
  store.insert(2, 3, 3.0);
  store.erase(dead);
  persist::write_snapshot_file(dir.path, 2, store, {0, 2},
                               {{"req-a", 1}, {"req-b", 2}});
  for (const std::uint64_t lsn : {1, 2}) {
    const std::string bytes = read_file(persist::snapshot_path(dir.path, lsn));
    corpus.push_back(bytes.substr(0, bytes.size() - 8));  // the sealed part
  }
  const std::string path = persist::snapshot_path(dir.path, 3);
  fuzz("snapshot body", corpus, [&](const std::string& body) {
    std::string file = body;
    ByteWriter w(file);
    w.u32(persist::crc32c(body.data(), body.size()));
    w.u32(0x50414E53u);  // "SNAP"
    write_file(path, file);
    (void)persist::load_snapshot_file(path);
    return std::string();
  });
}

TEST(BoundaryFuzz, ProtocolLines) {
  const std::vector<std::string> corpus = {
      "open g n=100",
      "open mesh file=/data/mesh.smpg deadline=250",
      "insert g 1 2 1.5 3 4 -2.5 id=client-7",
      "delete g 5 6 7 8 id=req-9",
      "edges g max=5",
      "topk g 10 lambda=0.5 epoch=3",
      "cut g 0.25",
      "pathmax g 3 9",
      "health g",
  };
  const Decoder parse = [](const std::string& line) {
    (void)serve::parse_line(line);
    return std::string();
  };
  fuzz("protocol line", corpus, parse);
  // Every numeric token of every line, inflated.
  for (const std::string& line : corpus) {
    std::size_t start = 0;
    while (start < line.size()) {
      std::size_t end = line.find(' ', start);
      if (end == std::string::npos) end = line.size();
      const std::size_t digits = line.find_first_of("0123456789", start);
      if (digits < end) {
        for (const char* big : {"268435456", "4294967295",
                                "18446744073709551616", "-1"}) {
          std::string s = line;
          s.replace(digits, line.find_first_not_of("0123456789.", digits) -
                                digits, big);
          ASSERT_EQ(verdict(parse, s), "") << s;
        }
      }
      start = end + 1;
    }
  }
}

}  // namespace
