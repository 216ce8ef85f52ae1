#include "pprim/varint.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

#include <cstring>

namespace smp {

std::size_t varint_decode_bulk_scalar(const std::uint8_t* p,
                                      const std::uint8_t* end,
                                      std::size_t count, std::uint32_t* out) {
  (void)end;  // trusted: the region was validated at build/open time
  const std::uint8_t* start = p;
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = varint_decode_u32(p);
  }
  return static_cast<std::size_t>(p - start);
}

#if defined(__x86_64__) || defined(_M_X64)

// Boundary discovery via movemask: one 32-byte load yields a bitmask whose
// set bits mark continuation bytes, so the zero bits ARE the varint
// terminators.  The all-ones-clear case (32 one-byte varints — dense rows,
// small graphs) widens bytes straight to u32 lanes; the mixed case walks the
// terminator mask with tzcnt and extracts each varint's payload bits in one
// pext, replacing the scalar shift-or loop with a single BMI2 gather.  Both
// cases need up to 8 readable bytes past the last *consumed* byte, hence the
// `end` guard; the scalar loop finishes the tail.
__attribute__((target("avx2,bmi,bmi2"))) std::size_t varint_decode_bulk_avx2(
    const std::uint8_t* p, const std::uint8_t* end, std::size_t count,
    std::uint32_t* out) {
  const std::uint8_t* start = p;
  std::size_t produced = 0;
  while (count - produced >= 32 && end - p >= 40) {
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const std::uint32_t cont =
        static_cast<std::uint32_t>(_mm256_movemask_epi8(chunk));
    if (cont == 0) {
      // 32 single-byte varints: widen 8 bytes -> 8 u32 lanes, four times.
      const __m128i lo = _mm256_castsi256_si128(chunk);
      const __m128i hi = _mm256_extracti128_si256(chunk, 1);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + produced),
                          _mm256_cvtepu8_epi32(lo));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + produced + 8),
          _mm256_cvtepu8_epi32(_mm_srli_si128(lo, 8)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + produced + 16),
                          _mm256_cvtepu8_epi32(hi));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + produced + 24),
          _mm256_cvtepu8_epi32(_mm_srli_si128(hi, 8)));
      produced += 32;
      p += 32;
      continue;
    }
    std::uint32_t term = ~cont;  // zero bits of cont = terminator bytes
    std::size_t consumed = 0;    // bytes of complete varints in this chunk
    while (term != 0 && produced < count) {
      const unsigned t = static_cast<unsigned>(_tzcnt_u32(term));
      const std::size_t len = t + 1 - consumed;
      std::uint64_t word;
      std::memcpy(&word, p + consumed, 8);
      if (len < 8) word &= (std::uint64_t{1} << (8 * len)) - 1;
      out[produced++] =
          static_cast<std::uint32_t>(_pext_u64(word, 0x7F7F7F7F7F7F7F7FULL));
      consumed = t + 1;
      term &= term - 1;
    }
    // A varint whose continuation run crosses byte 31 is left for the next
    // round (or the scalar tail); only complete varints were consumed.
    if (consumed == 0) break;  // corrupt run of >=32 continuation bytes
    p += consumed;
  }
  p += varint_decode_bulk_scalar(p, end, count - produced, out + produced);
  return static_cast<std::size_t>(p - start);
}

#endif  // x86_64

namespace {

bool bulk_use_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
  static const bool ok = __builtin_cpu_supports("avx2") &&
                         __builtin_cpu_supports("bmi") &&
                         __builtin_cpu_supports("bmi2");
  return ok;
#else
  return false;
#endif
}

}  // namespace

const char* varint_bulk_isa_name() {
  return bulk_use_avx2() ? "avx2" : "scalar";
}

std::size_t varint_decode_bulk(const std::uint8_t* p, const std::uint8_t* end,
                               std::size_t count, std::uint32_t* out) {
#if defined(__x86_64__) || defined(_M_X64)
  if (bulk_use_avx2()) return varint_decode_bulk_avx2(p, end, count, out);
#endif
  return varint_decode_bulk_scalar(p, end, count, out);
}

bool varint_decode_bulk_checked(const std::uint8_t* p, const std::uint8_t* end,
                                std::size_t count, std::uint32_t* out,
                                std::size_t* consumed) {
  const std::uint8_t* start = p;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t v;
    std::size_t len;
    if (!varint_decode_u32_checked(p, end, &v, &len)) return false;
    out[i] = v;
    p += len;
  }
  *consumed = static_cast<std::size_t>(p - start);
  return true;
}

bool varint_validate_region(const std::uint8_t* p, const std::uint8_t* end,
                            std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t v;
    std::size_t len;
    if (!varint_decode_u32_checked(p, end, &v, &len)) return false;
    p += len;
  }
  return p == end;  // no trailing bytes
}

}  // namespace smp
