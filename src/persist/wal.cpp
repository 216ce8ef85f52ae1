#include "persist/wal.hpp"

#include <fstream>

#include "core/error.hpp"
#include "persist/crc32c.hpp"
#include "pprim/byte_codec.hpp"

namespace smp::persist {

namespace {

constexpr std::uint8_t kTypeBatch = 1;
constexpr std::uint8_t kTypeCompact = 2;
/// Sanity bound on one record: a coalesced group is at most a few MB of
/// edges; anything bigger in a length prefix is garbage, not a record.
constexpr std::uint32_t kMaxPayload = 1u << 30;

[[noreturn]] void corrupt(const std::string& path, std::uint64_t offset,
                          const std::string& why) {
  throw Error(ErrorCode::kInvalidInput,
              "corrupt WAL record in '" + path + "' at byte offset " +
                  std::to_string(offset) + ": " + why +
                  " (refusing to replay past it; restore from a snapshot or "
                  "truncate the log manually)");
}

}  // namespace

FsyncPolicy parse_fsync_policy(const std::string& s) {
  if (s == "always") return FsyncPolicy::kAlways;
  if (s == "interval") return FsyncPolicy::kInterval;
  if (s == "none") return FsyncPolicy::kNone;
  throw Error(ErrorCode::kInvalidInput,
              "unknown fsync policy '" + s + "' (valid: always interval none)");
}

std::string encode_record(const WalRecord& rec) {
  std::string payload;
  payload.reserve(32 + rec.insertions.size() * 16 + rec.deletions.size() * 8);
  ByteWriter p(payload);
  p.u8(rec.compact ? kTypeCompact : kTypeBatch);
  p.u64(rec.lsn);
  p.u32(static_cast<std::uint32_t>(rec.insertions.size()));
  p.u32(static_cast<std::uint32_t>(rec.deletions.size()));
  p.u32(static_cast<std::uint32_t>(rec.idem_ids.size()));
  for (const graph::WEdge& e : rec.insertions) {
    p.u32(e.u);
    p.u32(e.v);
    p.f64(e.w);
  }
  for (const graph::EdgeId id : rec.deletions) p.u64(id);
  for (const std::string& id : rec.idem_ids) {
    p.u16(static_cast<std::uint16_t>(id.size()));
    p.bytes(id);
  }

  std::string frame;
  frame.reserve(8 + payload.size());
  ByteWriter f(frame);
  f.u32(static_cast<std::uint32_t>(payload.size()));
  f.u32(crc32c(payload.data(), payload.size()));
  f.bytes(payload);
  return frame;
}

WalScan scan_wal(const std::string& path, std::uint64_t expected_lsn) {
  WalScan scan;
  std::string data;
  {
    std::ifstream is(path, std::ios::binary);
    if (!is) return scan;  // missing segment == empty segment
    data.assign(std::istreambuf_iterator<char>(is),
                std::istreambuf_iterator<char>());
  }

  ByteReader file(data);
  while (file.remaining() > 0) {
    const std::uint64_t record_start = file.offset();
    const std::uint32_t len = file.u32();
    const std::uint32_t crc = file.u32();
    if (!file.ok()) {
      scan.torn_tail = true;  // header cut off mid-write
      break;
    }
    if (len > kMaxPayload) {
      corrupt(path, record_start, "implausible payload length " +
                                      std::to_string(len));
    }
    const std::string_view payload = file.bytes(len);
    if (!file.ok()) {
      scan.torn_tail = true;  // payload cut off mid-write
      break;
    }
    if (crc32c(payload.data(), len) != crc) {
      // The whole frame is on disk, so this is a flipped bit, not a torn
      // append (a torn append leaves a short file, never a full bad frame).
      corrupt(path, record_start, "CRC32C mismatch");
    }

    ByteReader r(payload);
    WalRecord rec;
    const std::uint8_t type = r.u8();
    rec.lsn = r.u64();
    const std::uint32_t n_ins = r.u32();
    const std::uint32_t n_del = r.u32();
    const std::uint32_t n_ids = r.u32();
    if (!r.ok()) {
      corrupt(path, record_start, "truncated record header inside payload");
    }
    if (type != kTypeBatch && type != kTypeCompact) {
      corrupt(path, record_start,
              "unknown record type " + std::to_string(type));
    }
    rec.compact = type == kTypeCompact;
    if (expected_lsn != 0 && rec.lsn != expected_lsn) {
      corrupt(path, record_start,
              rec.lsn < expected_lsn
                  ? "duplicate LSN " + std::to_string(rec.lsn) + " (expected " +
                        std::to_string(expected_lsn) + ")"
                  : "LSN gap: got " + std::to_string(rec.lsn) + ", expected " +
                        std::to_string(expected_lsn));
    }
    expected_lsn = rec.lsn + 1;
    // A count is checked against the bytes left before anything is sized
    // by it: a record that passed its CRC can still claim 2^32 − 1 entries.
    if (!r.count(n_ins, 16)) {
      corrupt(path, record_start, "insertions overrun payload");
    }
    rec.insertions.resize(n_ins);
    for (graph::WEdge& e : rec.insertions) {
      e.u = r.u32();
      e.v = r.u32();
      e.w = r.f64();
    }
    if (!r.count(n_del, 8)) {
      corrupt(path, record_start, "deletions overrun payload");
    }
    rec.deletions.resize(n_del);
    for (graph::EdgeId& id : rec.deletions) id = r.u64();
    if (!r.count(n_ids, 2)) {
      corrupt(path, record_start, "idempotency ids overrun payload");
    }
    rec.idem_ids.resize(n_ids);
    for (std::string& id : rec.idem_ids) id = r.bytes(r.u16());
    if (!r.ok()) {
      corrupt(path, record_start, "idempotency ids overrun payload");
    }
    if (r.remaining() != 0) {
      corrupt(path, record_start, "trailing bytes inside payload");
    }

    scan.valid_bytes = file.offset();
    scan.records.push_back(std::move(rec));
  }
  if (!scan.torn_tail) scan.valid_bytes = data.size();
  return scan;
}

}  // namespace smp::persist
