#include "common/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace teeperf {
namespace {

// Byte-at-a-time table for the portable path, built at compile time so it
// is valid even for callers running during static initialization.
struct Crc32cTable {
  u32 t[256];
  constexpr Crc32cTable() : t{} {
    constexpr u32 kPoly = 0x82f63b78u;  // reversed Castagnoli polynomial
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
  }
};

constexpr Crc32cTable kTable;

using ExtendFn = u32 (*)(u32, const void*, usize);

#if defined(__x86_64__)
// SSE4.2 `crc32` computes the same Castagnoli CRC in hardware: 8 bytes per
// instruction, then a byte tail. Loads go through memcpy, so any alignment
// is fine.
__attribute__((target("sse4.2"))) u32 crc32c_extend_sse42(u32 crc,
                                                           const void* data,
                                                           usize n) {
  const u8* p = static_cast<const u8*>(data);
  u64 c = crc ^ 0xffffffffu;
  for (; n >= 8; n -= 8, p += 8) {
    u64 word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  u32 c32 = static_cast<u32>(c);
  for (; n > 0; --n, ++p) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xffffffffu;
}
#endif

// Chosen once, on first use, by CPUID. Both paths return identical values.
ExtendFn pick_extend() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_extend_sse42;
#endif
  return crc32c_extend_portable;
}

}  // namespace

u32 crc32c_extend_portable(u32 crc, const void* data, usize n) {
  const u8* p = static_cast<const u8*>(data);
  u32 c = crc ^ 0xffffffffu;
  for (usize i = 0; i < n; ++i) c = kTable.t[(c ^ p[i]) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

u32 crc32c_extend(u32 crc, const void* data, usize n) {
  static const ExtendFn extend = pick_extend();
  return extend(crc, data, n);
}

}  // namespace teeperf
