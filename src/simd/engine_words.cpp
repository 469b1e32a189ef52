// Kernels::engine_words, the engine-word source of the normal fill.
//
// std::mt19937_64's 312-word refill vectorizes only with 64-bit integer
// compares (SSE4.1 and up), so the AVX2 table gets a copy of the word loop
// built for AVX2. That copy is a target attribute, not a -mavx2 TU: flatten
// inlines the engine into it, while every out-of-line instantiation of the
// engine that this TU emits (and the linker may pick for the whole binary)
// stays at the baseline ISA. Integer arithmetic only, so both copies yield
// the same words.
#include <cstddef>
#include <cstdint>
#include <random>

#include "simd/kernels_detail.hpp"

namespace lumichat::simd::detail {

void engine_words_scalar(std::mt19937_64& engine, std::uint64_t* out,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = engine();
}

#if defined(LUMICHAT_SIMD_HAS_AVX2)
[[gnu::target("avx2"), gnu::flatten]]
void engine_words_avx2(std::mt19937_64& engine, std::uint64_t* out,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = engine();
}
#endif

}  // namespace lumichat::simd::detail
