// 64-bit mixing for wire-layer identifiers: the load drivers derive each
// stream's session token from (seed, ordinal) and each frame's trace id
// from (token, seq) with it.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace lumichat::wire {

/// SplitMix64 finalizer (the same function as common::splitmix64).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  return common::splitmix64(x);
}

}  // namespace lumichat::wire
