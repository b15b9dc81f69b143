// CRC-32C (Castagnoli). Used to frame WAL and SSTable blocks in the
// kvstore substrate and to checksum persisted profiler logs.
#pragma once

#include <cstddef>

#include "common/types.h"

namespace teeperf {

// Extends `crc` with `data[0, n)`. Pass 0 as the initial crc. Runs the
// SSE4.2 `crc32` instruction when CPUID reports it (checked once), else
// the portable table loop; the result is the same either way.
u32 crc32c_extend(u32 crc, const void* data, usize n);

// The table-driven byte-at-a-time loop that crc32c_extend falls back to on
// CPUs without SSE4.2. Exposed so tests can compare the two paths.
u32 crc32c_extend_portable(u32 crc, const void* data, usize n);

inline u32 crc32c(const void* data, usize n) { return crc32c_extend(0, data, n); }

// Masked crc, following the LevelDB convention: storing the crc of data that
// itself contains crcs leads to collisions, so stored crcs are rotated and
// offset.
inline u32 crc32c_mask(u32 crc) { return ((crc >> 15) | (crc << 17)) + 0xa282ead8u; }
inline u32 crc32c_unmask(u32 masked) {
  u32 rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace teeperf
