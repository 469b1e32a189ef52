// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for wire framing.
//
// Every message carries a CRC over its header fields and payload so a
// corrupted or desynchronised byte stream is rejected at the framing layer
// instead of feeding garbage pixels into a detector. The checksum runs on
// the dispatched simd::Kernels::crc32_update (slicing-by-8 tables, or
// PCLMULQDQ folding on CPUs with AVX2 and PCLMUL); both compute the same
// bits, so LUMICHAT_SIMD never changes a wire byte.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/dispatch.hpp"

namespace lumichat::wire {

/// Initial running value for crc32_update chains.
inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFu;

/// Folds `len` bytes into a running CRC state (start from kCrc32Init).
[[nodiscard]] inline std::uint32_t crc32_update(std::uint32_t state,
                                                const std::uint8_t* data,
                                                std::size_t len) {
  return simd::active().crc32_update(state, data, len);
}

/// Finalises a running state into the emitted checksum value.
[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a byte range.
[[nodiscard]] inline std::uint32_t crc32(const std::uint8_t* data,
                                         std::size_t len) {
  return crc32_final(crc32_update(kCrc32Init, data, len));
}

}  // namespace lumichat::wire
