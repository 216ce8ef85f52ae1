#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace smp {

/// LEB128 unsigned varint codec for u32 values, the storage primitive under
/// graph::CompressedCsr's delta-encoded adjacency.  Seven payload bits per
/// byte, least-significant group first, high bit = "continuation"; a u32
/// therefore occupies 1..5 bytes and a 5-byte encoding must keep its final
/// byte <= 0x0F or the value overflows 32 bits.
///
/// Two decode families:
///  * the *trusted* decoders assume the buffer was validated when the
///    compressed graph was built or opened (see varint_validate_region) and
///    run branch-light — the AVX2+BMI2 bulk kernel finds varint boundaries
///    with one movemask per 32 bytes and extracts payload bits with pext;
///  * the *checked* decoders never read past `end` and reject truncation,
///    overlong runs, and u32 overflow — the file readers and the fuzz tests
///    use these.
/// Both families decode the identical value for every well-formed input;
/// the SIMD dispatch is a speed choice, never a semantic one.

inline constexpr std::size_t kMaxVarint32Bytes = 5;

/// Encode `v`, returning the number of bytes written (1..5).  `out` must
/// have room for kMaxVarint32Bytes.
inline std::size_t varint_encode_u32(std::uint32_t v, std::uint8_t* out) {
  std::size_t n = 0;
  while (v >= 0x80u) {
    out[n++] = static_cast<std::uint8_t>(v | 0x80u);
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}

inline void varint_append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  std::uint8_t buf[kMaxVarint32Bytes];
  std::size_t n = varint_encode_u32(v, buf);
  out.insert(out.end(), buf, buf + n);
}

/// Trusted single-value decode: advances `p` past the varint.
inline std::uint32_t varint_decode_u32(const std::uint8_t*& p) {
  std::uint32_t b = *p++;
  if (b < 0x80u) return b;
  std::uint32_t v = b & 0x7Fu;
  int shift = 7;
  do {
    b = *p++;
    v |= (b & 0x7Fu) << shift;
    shift += 7;
  } while (b >= 0x80u);
  return v;
}

/// Checked single-value decode from [p, end).  On success stores the value
/// and encoded length and returns true; returns false on truncation (ran
/// into `end` mid-varint), overlong encodings (> 5 bytes), or 5-byte
/// encodings whose final byte overflows u32.
inline bool varint_decode_u32_checked(const std::uint8_t* p,
                                      const std::uint8_t* end,
                                      std::uint32_t* value,
                                      std::size_t* len) {
  std::uint64_t v = 0;
  std::size_t n = 0;
  while (true) {
    if (p + n == end) return false;  // truncated
    std::uint8_t b = p[n];
    if (n + 1 == kMaxVarint32Bytes && b > 0x0Fu) return false;  // > 2^32-1
    v |= static_cast<std::uint64_t>(b & 0x7Fu) << (7 * n);
    ++n;
    if (b < 0x80u) break;
    if (n == kMaxVarint32Bytes) return false;  // overlong
  }
  *value = static_cast<std::uint32_t>(v);
  *len = n;
  return true;
}

/// Trusted bulk decode: reads exactly `count` varints starting at `p` and
/// returns the number of bytes consumed.  `end` bounds the *readable*
/// region (the encoded data itself ends earlier or exactly at `end`); the
/// SIMD fast path needs the bound to know when wide loads are safe and
/// falls back to the scalar loop near it.  Dispatches to AVX2+BMI2 when the
/// CPU has both, detected once per process.
std::size_t varint_decode_bulk(const std::uint8_t* p, const std::uint8_t* end,
                               std::size_t count, std::uint32_t* out);

/// Checked bulk decode: like varint_decode_bulk but never reads at or past
/// `end` and validates every encoding.  Returns false (leaving *consumed
/// unspecified) on any malformed or truncated varint.
bool varint_decode_bulk_checked(const std::uint8_t* p, const std::uint8_t* end,
                                std::size_t count, std::uint32_t* out,
                                std::size_t* consumed);

/// Structural validation of a varint region: exactly `count` varints must
/// occupy [p, end) with no trailing bytes, no overlong/overflowing
/// encodings, and no truncation.  This is what makes the trusted decoders
/// safe on mmap'd files — open validates once, every later decode skips the
/// checks.  Returns false on any violation.
bool varint_validate_region(const std::uint8_t* p, const std::uint8_t* end,
                            std::size_t count);

/// The path varint_decode_bulk dispatches to on this CPU: "avx2" or
/// "scalar".  MachineProfile::simd reports it.
[[nodiscard]] const char* varint_bulk_isa_name();

/// Pinned-path variants exposed for the kernel unit tests.
std::size_t varint_decode_bulk_scalar(const std::uint8_t* p,
                                      const std::uint8_t* end,
                                      std::size_t count, std::uint32_t* out);
#if defined(__x86_64__) || defined(_M_X64)
/// Call only when the CPU supports AVX2 and BMI2 (the dispatcher checks).
std::size_t varint_decode_bulk_avx2(const std::uint8_t* p,
                                    const std::uint8_t* end, std::size_t count,
                                    std::uint32_t* out);
#endif

}  // namespace smp
