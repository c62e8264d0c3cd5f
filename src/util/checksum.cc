#include "util/checksum.h"

#include <bit>
#include <cstring>

namespace tendax {

namespace {

// Odd multipliers, so multiplying by one is a bijection mod 2^32.
constexpr uint32_t kPrime1 = 0x9E3779B1u;
constexpr uint32_t kPrime2 = 0x85EBCA77u;
constexpr uint32_t kPrime3 = 0xC2B2AE3Du;
constexpr uint32_t kPrime4 = 0x27D4EB2Fu;

/// One lane step: a bijection of `h` for fixed `w` and of `w` for fixed `h`.
inline uint32_t Mix(uint32_t h, uint32_t w) {
  return std::rotl((h ^ w) * kPrime1, 13);
}

/// Inline, unlike DecodeFixed32: this loop is the whole cost of a checksum.
inline uint32_t Load32(const char* p) {
  uint32_t w;
  memcpy(&w, p, sizeof(w));  // little-endian hosts only, as util/coding.cc
  return w;
}

}  // namespace

uint32_t Checksum32(const char* data, size_t n) {
  const auto seed = static_cast<uint32_t>(n);
  uint32_t a = seed ^ kPrime1, b = seed ^ kPrime2;
  uint32_t c = seed ^ kPrime3, d = seed ^ kPrime4;
  const char* p = data;
  const char* const end = data + n;
  for (; end - p >= 16; p += 16) {
    a = Mix(a, Load32(p));
    b = Mix(b, Load32(p + 4));
    c = Mix(c, Load32(p + 8));
    d = Mix(d, Load32(p + 12));
  }
  for (; end - p >= 4; p += 4) a = Mix(a, Load32(p));
  if (p < end) {  // 1-3 bytes left; n is in the seed, so padding is safe
    uint32_t w = 0;
    for (int shift = 0; p < end; ++p, shift += 8) {
      w |= uint32_t{static_cast<unsigned char>(*p)} << shift;
    }
    b = Mix(b, w);
  }
  uint32_t h = Mix(Mix(Mix(a, b), c), d);
  h ^= h >> 16;
  h *= kPrime2;
  h ^= h >> 13;
  h *= kPrime3;
  h ^= h >> 16;
  return h;
}

}  // namespace tendax
