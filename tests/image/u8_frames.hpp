// 8-bit frame helpers for the u8-against-f64 bit-identity tests: round a
// rendered frame to the camera's 8 bits, and widen an 8-bit frame back to
// the f64 Image the f64 path reads.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "image/image.hpp"

namespace lumichat::image::testutil {

/// Rounds each channel to the nearest integer in [0, 255].
inline ImageU8 to_u8(const Image& frame) {
  ImageU8 out(frame.width(), frame.height());
  const auto* in = reinterpret_cast<const double*>(frame.data());
  for (std::size_t i = 0; i < out.size_bytes(); ++i) {
    out.data()[i] =
        static_cast<std::uint8_t>(std::clamp(in[i], 0.0, 255.0) + 0.5);
  }
  return out;
}

/// The f64 Image holding exactly the 8-bit frame's values.
inline Image widen(const ImageU8& frame) {
  Image out(frame.width(), frame.height());
  auto* px = reinterpret_cast<double*>(out.data());
  for (std::size_t i = 0; i < frame.size_bytes(); ++i) px[i] = frame.data()[i];
  return out;
}

/// A frame of independent uniform bytes.
inline ImageU8 random_u8(std::size_t width, std::size_t height,
                         common::Rng& rng) {
  ImageU8 out(width, height);
  for (std::size_t i = 0; i < out.size_bytes(); ++i) {
    out.data()[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return out;
}

}  // namespace lumichat::image::testutil
