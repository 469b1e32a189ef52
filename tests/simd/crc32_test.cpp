// CRC-32 kernel correctness: known answers, scalar and AVX2 (PCLMUL) tables
// against the bit-at-a-time definition over every length 0..4096 and a full
// 96x72 frame payload at every 16-byte misalignment, and chained updates
// equal to one-shot ones (how the wire layer seals header + payload).
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "simd/dispatch.hpp"

#include "crc32_reference.hpp"

namespace lumichat::simd {
namespace {

constexpr std::uint32_t kInit = 0xFFFFFFFFu;
/// Payload bytes of one 96x72 v2 wire Frame (two f64 RGB planes + fixed
/// fields); the header adds 24 bytes.
constexpr std::size_t kFramePayload = 331808;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  std::uint64_t s = seed;
  for (auto& b : out) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    b = static_cast<std::uint8_t>(s >> 56);
  }
  return out;
}

/// The tables under test: scalar always, AVX2 when the build and CPU have it.
std::vector<const Kernels*> tables() {
  std::vector<const Kernels*> out = {&scalar_kernels()};
  if (const Kernels* avx2 = avx2_kernels()) out.push_back(avx2);
  return out;
}

std::uint32_t one_shot(const Kernels& k, const std::uint8_t* data,
                       std::size_t len) {
  return k.crc32_update(kInit, data, len) ^ kInit;
}

TEST(Crc32Kernel, KnownAnswers) {
  const char* check = "123456789";
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(check);
  for (const Kernels* k : tables()) {
    SCOPED_TRACE(k->name);
    EXPECT_EQ(one_shot(*k, bytes, 9), 0xCBF43926u);
    EXPECT_EQ(one_shot(*k, bytes, 0), 0u);
    EXPECT_EQ(one_shot(*k, nullptr, 0), 0u);
    // The all-zero 64-byte block takes the folding path on AVX2.
    const std::vector<std::uint8_t> zeros(64, 0);
    EXPECT_EQ(one_shot(*k, zeros.data(), zeros.size()), 0x758D6336u);
  }
  EXPECT_EQ(one_shot(active(), bytes, 9), 0xCBF43926u);
}

TEST(Crc32Kernel, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 4096;
  const std::vector<std::uint8_t> buf = random_bytes(kMaxLen + 16, 0x5eed);
  std::vector<std::uint32_t> prefix(kMaxLen + 1);
  for (std::size_t off = 0; off < 16; ++off) {
    const std::uint8_t* data = buf.data() + off;
    // prefix[n] = reference state after the first n bytes.
    prefix[0] = kInit;
    for (std::size_t n = 0; n < kMaxLen; ++n) {
      prefix[n + 1] = testref::crc32_bitwise(prefix[n], data + n, 1);
    }
    for (const Kernels* k : tables()) {
      for (std::size_t n = 0; n <= kMaxLen; ++n) {
        const std::uint32_t got = k->crc32_update(kInit, data, n);
        if (got != prefix[n]) {
          ADD_FAILURE() << k->name << " len=" << n << " offset=" << off
                        << " got=" << got << " want=" << prefix[n];
          return;
        }
      }
    }
  }
}

TEST(Crc32Kernel, MatchesBitwiseReferenceOnFramePayload) {
  const std::vector<std::uint8_t> buf = random_bytes(kFramePayload + 16, 42);
  for (std::size_t off = 0; off < 16; ++off) {
    const std::uint8_t* data = buf.data() + off;
    const std::uint32_t want =
        testref::crc32_bitwise(kInit, data, kFramePayload);
    for (const Kernels* k : tables()) {
      EXPECT_EQ(k->crc32_update(kInit, data, kFramePayload), want)
          << k->name << " offset=" << off;
    }
  }
}

TEST(Crc32Kernel, NonInitialStatesMatchReference) {
  const std::vector<std::uint8_t> buf = random_bytes(1000, 7);
  for (const std::uint32_t state : {0u, 1u, 0x80000000u, 0xDEADBEEFu}) {
    for (const std::size_t len : {std::size_t{63}, std::size_t{64},
                                  std::size_t{65}, std::size_t{1000}}) {
      const std::uint32_t want =
          testref::crc32_bitwise(state, buf.data(), len);
      for (const Kernels* k : tables()) {
        EXPECT_EQ(k->crc32_update(state, buf.data(), len), want)
            << k->name << " state=" << state << " len=" << len;
      }
    }
  }
}

TEST(Crc32Kernel, ChainedUpdatesEqualOneShot) {
  // A whole wire Frame message: the 20 CRC-covered header bytes, the
  // 4-byte CRC slot, then the payload.
  const std::vector<std::uint8_t> msg = random_bytes(24 + kFramePayload, 99);
  const std::uint8_t* data = msg.data();
  const std::size_t len = msg.size();
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  auto next = [&s](std::size_t bound) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return static_cast<std::size_t>(s % bound);
  };
  for (const Kernels* k : tables()) {
    SCOPED_TRACE(k->name);
    const std::uint32_t whole = k->crc32_update(kInit, data, len);
    EXPECT_EQ(whole, testref::crc32_bitwise(kInit, data, len));

    // seal_header's split: header[0,20) then the payload.
    EXPECT_EQ(k->crc32_update(k->crc32_update(kInit, data, 20), data + 20,
                              len - 20),
              whole);

    for (int trial = 0; trial < 50; ++trial) {
      // Up to eight random cut points, sorted, possibly repeated (empty
      // spans are legal updates).
      std::vector<std::size_t> cuts = {0, len};
      const std::size_t n_cuts = 1 + next(8);
      for (std::size_t i = 0; i < n_cuts; ++i) cuts.push_back(next(len + 1));
      std::sort(cuts.begin(), cuts.end());
      std::uint32_t state = kInit;
      for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        state = k->crc32_update(state, data + cuts[i], cuts[i + 1] - cuts[i]);
      }
      EXPECT_EQ(state, whole) << "trial " << trial;
    }
  }
  // The tables are interchangeable mid-chain: the state means the same.
  const Kernels& scalar = scalar_kernels();
  for (const Kernels* k : tables()) {
    const std::uint32_t head = scalar.crc32_update(kInit, data, 1000);
    EXPECT_EQ(k->crc32_update(head, data + 1000, len - 1000),
              scalar.crc32_update(kInit, data, len))
        << k->name;
  }
}

}  // namespace
}  // namespace lumichat::simd
