#include "persist/wal.hpp"

#include <cstring>
#include <fstream>

#include "core/error.hpp"
#include "persist/crc32c.hpp"

namespace smp::persist {

namespace {

constexpr std::uint8_t kTypeBatch = 1;
constexpr std::uint8_t kTypeCompact = 2;
/// Sanity bound on one record: a coalesced group is at most a few MB of
/// edges; anything bigger in a length prefix is garbage, not a record.
constexpr std::uint32_t kMaxPayload = 1u << 30;

template <typename T>
void put(std::string& out, T v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

template <typename T>
[[nodiscard]] bool get(const std::string& buf, std::size_t& off, T* v) {
  if (off + sizeof *v > buf.size()) return false;
  std::memcpy(v, buf.data() + off, sizeof *v);
  off += sizeof *v;
  return true;
}

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
  put<std::uint8_t>(payload, rec.compact ? kTypeCompact : kTypeBatch);
  put<std::uint64_t>(payload, rec.lsn);
  put<std::uint32_t>(payload, static_cast<std::uint32_t>(rec.insertions.size()));
  put<std::uint32_t>(payload, static_cast<std::uint32_t>(rec.deletions.size()));
  put<std::uint32_t>(payload, static_cast<std::uint32_t>(rec.idem_ids.size()));
  for (const graph::WEdge& e : rec.insertions) {
    put<std::uint32_t>(payload, e.u);
    put<std::uint32_t>(payload, e.v);
    put<double>(payload, e.w);
  }
  for (const graph::EdgeId id : rec.deletions) put<std::uint64_t>(payload, id);
  for (const std::string& id : rec.idem_ids) {
    put<std::uint16_t>(payload, static_cast<std::uint16_t>(id.size()));
    payload += id;
  }

  std::string frame;
  frame.reserve(8 + payload.size());
  put<std::uint32_t>(frame, static_cast<std::uint32_t>(payload.size()));
  put<std::uint32_t>(frame, crc32c(payload.data(), payload.size()));
  frame += payload;
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

  std::size_t off = 0;
  while (off < data.size()) {
    const std::uint64_t record_start = off;
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    if (!get(data, off, &len) || !get(data, off, &crc)) {
      scan.torn_tail = true;  // header cut off mid-write
      break;
    }
    if (len > kMaxPayload) {
      corrupt(path, record_start, "implausible payload length " +
                                      std::to_string(len));
    }
    if (off + len > data.size()) {
      scan.torn_tail = true;  // payload cut off mid-write
      break;
    }
    const char* payload = data.data() + off;
    if (crc32c(payload, len) != crc) {
      // The whole frame is on disk, so this is a flipped bit, not a torn
      // append (a torn append leaves a short file, never a full bad frame).
      corrupt(path, record_start, "CRC32C mismatch");
    }

    const std::string body(payload, len);
    std::size_t p = 0;
    std::uint8_t type = 0;
    WalRecord rec;
    std::uint32_t n_ins = 0, n_del = 0, n_ids = 0;
    if (!get(body, p, &type) || !get(body, p, &rec.lsn) ||
        !get(body, p, &n_ins) || !get(body, p, &n_del) || !get(body, p, &n_ids)) {
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
    const auto overruns = [&](std::uint32_t count, std::size_t min_bytes) {
      return count > (body.size() - p) / min_bytes;
    };
    if (overruns(n_ins, 16)) {
      corrupt(path, record_start, "insertions overrun payload");
    }
    rec.insertions.resize(n_ins);
    for (graph::WEdge& e : rec.insertions) {
      if (!get(body, p, &e.u) || !get(body, p, &e.v) || !get(body, p, &e.w)) {
        corrupt(path, record_start, "insertions overrun payload");
      }
    }
    if (overruns(n_del, 8)) {
      corrupt(path, record_start, "deletions overrun payload");
    }
    rec.deletions.resize(n_del);
    for (graph::EdgeId& id : rec.deletions) {
      if (!get(body, p, &id)) {
        corrupt(path, record_start, "deletions overrun payload");
      }
    }
    if (overruns(n_ids, 2)) {
      corrupt(path, record_start, "idempotency ids overrun payload");
    }
    rec.idem_ids.resize(n_ids);
    for (std::string& id : rec.idem_ids) {
      std::uint16_t id_len = 0;
      if (!get(body, p, &id_len) || p + id_len > body.size()) {
        corrupt(path, record_start, "idempotency ids overrun payload");
      }
      id.assign(body.data() + p, id_len);
      p += id_len;
    }
    if (p != body.size()) {
      corrupt(path, record_start, "trailing bytes inside payload");
    }

    off += len;
    scan.valid_bytes = off;
    scan.records.push_back(std::move(rec));
  }
  if (!scan.torn_tail) scan.valid_bytes = data.size();
  return scan;
}

}  // namespace smp::persist
