#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

// The one byte layout of every binary boundary (wire frames, WAL records,
// snapshot files, EdgeStore's serialized slots): fixed-width little-endian
// integers, doubles as their IEEE-754 bit pattern, strings behind a u32
// length.  Byte order is decided here and nowhere else.

namespace smp {

namespace byte_codec_detail {
/// Host order <-> little-endian, either way.
template <typename T>
void reverse_if_big_endian(unsigned char (&b)[sizeof(T)]) {
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(b, b + sizeof(T));
  }
}
}  // namespace byte_codec_detail

/// Appends values to a string in the layout above.
class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f64(double v) { put(v); }
  void bytes(std::string_view s) { out_.append(s.data(), s.size()); }
  /// u32 length, then the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s);
  }

 private:
  template <typename T>
  void put(T v) {
    unsigned char b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    byte_codec_detail::reverse_if_big_endian<T>(b);
    out_.append(reinterpret_cast<const char*>(b), sizeof v);
  }

  std::string& out_;
};

/// Reads the layout above with a sticky failure: a read past the end
/// returns T{} (or an empty view) and clears ok() for good, and nothing
/// throws, so a decoder reads a whole section, checks ok() once and words
/// its own diagnostic.
class ByteReader {
 public:
  explicit ByteReader(std::string_view s)
      : ByteReader(reinterpret_cast<const unsigned char*>(s.data()), s.size()) {}
  ByteReader(const unsigned char* data, std::size_t size)
      : p_(data), n_(size) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t offset() const { return off_; }
  [[nodiscard]] std::size_t remaining() const { return n_ - off_; }

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  double f64() { return get<double>(); }

  /// The next `len` bytes, in place.
  std::string_view bytes(std::size_t len) {
    if (!fits(len <= remaining())) return {};
    const std::string_view s(reinterpret_cast<const char*>(p_ + off_), len);
    off_ += len;
    return s;
  }
  /// A u32-length-prefixed string.
  std::string str() { return std::string(bytes(u32())); }

  /// Whether `n` elements of at least `min_element_bytes` (> 0) each fit
  /// in the remaining bytes; clears ok() when they cannot.  A decoder calls
  /// this before it sizes anything by a count it read.
  bool count(std::uint64_t n, std::size_t min_element_bytes) {
    return fits(n <= remaining() / min_element_bytes);
  }

 private:
  /// Clears ok() for good unless `in_range`; returns ok().
  bool fits(bool in_range) {
    ok_ = ok_ && in_range;
    return ok_;
  }

  template <typename T>
  T get() {
    unsigned char b[sizeof(T)];
    if (!fits(sizeof b <= remaining())) return T{};
    std::memcpy(b, p_ + off_, sizeof b);
    off_ += sizeof b;
    byte_codec_detail::reverse_if_big_endian<T>(b);
    T v;
    std::memcpy(&v, b, sizeof v);
    return v;
  }

  const unsigned char* p_;
  std::size_t n_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

}  // namespace smp
