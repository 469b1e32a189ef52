// Reference CRC-32 (reflected polynomial 0xEDB88320) that the dispatched
// simd::Kernels::crc32_update is checked against. It takes and returns the
// raw running state, like the kernel (start from 0xFFFFFFFF, XOR the
// result with 0xFFFFFFFF to finalise).
#pragma once

#include <cstddef>
#include <cstdint>

namespace lumichat::simd::testref {

/// One bit at a time: the polynomial definition itself, no tables.
inline std::uint32_t crc32_bitwise(std::uint32_t state,
                                   const std::uint8_t* data, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    state ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1u) != 0 ? 0xEDB88320u ^ (state >> 1) : state >> 1;
    }
  }
  return state;
}

}  // namespace lumichat::simd::testref
