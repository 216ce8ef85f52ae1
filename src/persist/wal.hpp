#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/types.hpp"

namespace smp::persist {

/// When an acknowledged write must actually be on disk.
enum class FsyncPolicy {
  kAlways,    ///< fdatasync before every ack — strongest, slowest
  kInterval,  ///< group commit: a flusher thread fsyncs at most once per
              ///< interval; acks wait for the covering fsync (default)
  kNone,      ///< ack after the page-cache write; durability is best-effort
};

[[nodiscard]] constexpr std::string_view to_string(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kNone:
      return "none";
  }
  return "?";
}

/// Parses "always" / "interval" / "none"; throws Error{kInvalidInput}.
[[nodiscard]] FsyncPolicy parse_fsync_policy(const std::string& s);

/// One logged mutation of a session.  `compact` records carry no payload —
/// they mark the point where the store dropped its tombstones, so replaying
/// them reproduces the same store-id renumbering the live service performed.
/// Batch records hold the *resolved* coalesced group exactly as it went
/// into DynamicMsf::apply_batch (insert edges in arrival order, deletions
/// as canonical store ids), plus the idempotency ids the batch committed.
struct WalRecord {
  std::uint64_t lsn = 0;
  bool compact = false;
  std::vector<graph::WEdge> insertions;
  std::vector<graph::EdgeId> deletions;
  std::vector<std::string> idem_ids;
};

/// Serializes `rec` as one framed WAL record:
///
///   [u32 payload_len][u32 crc32c(payload)][payload]
///   payload = [u8 type][u64 lsn][u32 n_ins][u32 n_del][u32 n_ids]
///             n_ins * (u32 u, u32 v, f64 w)  n_del * (u64 id)
///             n_ids * (u16 len, bytes)
///
/// Little-endian throughout, written and read by pprim/byte_codec.hpp.
[[nodiscard]] std::string encode_record(const WalRecord& rec);

/// Result of scanning one WAL segment file.
struct WalScan {
  std::vector<WalRecord> records;
  /// Byte offset of the first invalid byte — where a torn tail starts, or
  /// the file size when the segment is fully valid.
  std::uint64_t valid_bytes = 0;
  /// True when trailing bytes formed an incomplete record (a crash mid
  /// append): the tail is safe to truncate at `valid_bytes`.
  bool torn_tail = false;
};

/// Scans a segment file, validating framing, CRC and LSN continuity
/// (`expected_lsn` is the LSN the first record must carry; pass 0 to accept
/// any start).  An *incomplete* trailing record — header or payload cut off
/// by the end of the file — is a torn tail: scanning stops cleanly with
/// `torn_tail = true`.  A *complete* record whose CRC mismatches, whose
/// type is unknown, or whose LSN breaks the sequence is corruption, not a
/// tear, and throws Error{kInvalidInput} with the file offset — recovery
/// must refuse to guess past it.  A missing or zero-length file is a valid
/// empty segment.
[[nodiscard]] WalScan scan_wal(const std::string& path,
                               std::uint64_t expected_lsn);

}  // namespace smp::persist
