#include "simd/dispatch.hpp"

#include <cstdlib>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace lumichat::simd {
namespace {

TEST(ResolveIsa, ScalarOverrideAlwaysWins) {
  EXPECT_EQ(resolve_isa("scalar", true), Isa::kScalar);
  EXPECT_EQ(resolve_isa("scalar", false), Isa::kScalar);
}

TEST(ResolveIsa, Avx2RequestHonoredOnlyWhenUsable) {
  EXPECT_EQ(resolve_isa("avx2", true), Isa::kAvx2);
  // Requesting an ISA the machine cannot execute must fall back, never
  // hand out a table that would SIGILL.
  EXPECT_EQ(resolve_isa("avx2", false), Isa::kScalar);
}

TEST(ResolveIsa, UnsetAutoSelects) {
  EXPECT_EQ(resolve_isa(nullptr, true), Isa::kAvx2);
  EXPECT_EQ(resolve_isa(nullptr, false), Isa::kScalar);
  EXPECT_EQ(resolve_isa("", true), Isa::kAvx2);
  EXPECT_EQ(resolve_isa("", false), Isa::kScalar);
}

TEST(ResolveIsa, UnknownValueAutoSelects) {
  EXPECT_EQ(resolve_isa("sse9", true), Isa::kAvx2);
  EXPECT_EQ(resolve_isa("sse9", false), Isa::kScalar);
}

TEST(ResolveIsa, Avx2TableNeedsBuildAvx2AndPclmul) {
  // The AVX2 table's CRC-32 kernel issues PCLMULQDQ, so a CPU with AVX2
  // but no PCLMUL must get the scalar table.
  for (const bool build : {false, true}) {
    for (const bool avx2 : {false, true}) {
      for (const bool pclmul : {false, true}) {
        EXPECT_EQ(avx2_table_usable(build, avx2, pclmul),
                  build && avx2 && pclmul)
            << build << avx2 << pclmul;
      }
    }
  }
  const bool no_pclmul = avx2_table_usable(true, true, false);
  EXPECT_EQ(resolve_isa(nullptr, no_pclmul), Isa::kScalar);
  EXPECT_EQ(resolve_isa("avx2", no_pclmul), Isa::kScalar);
}

TEST(Dispatch, IsaNames) {
  EXPECT_STREQ(isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::kAvx2), "avx2");
}

TEST(Dispatch, ScalarTableAlwaysAvailable) {
  const Kernels& k = scalar_kernels();
  EXPECT_STREQ(k.name, "scalar");
  const double xs[3] = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(k.sum(xs, 3), 6.0);
}

TEST(Dispatch, Avx2TableRequiresBuildAndCpu) {
  const Kernels* k = avx2_kernels();
  if (k == nullptr) {
    // Either the toolchain could not emit AVX2 or the CPU cannot run it.
    EXPECT_FALSE(build_has_avx2() && cpu_supports_avx2());
  } else {
    EXPECT_STREQ(k->name, "avx2");
    EXPECT_TRUE(build_has_avx2());
    EXPECT_TRUE(cpu_supports_avx2());
    EXPECT_TRUE(cpu_supports_pclmul());
  }
}

TEST(Dispatch, ActiveTableMatchesActiveIsa) {
  const Kernels& k = active();
  EXPECT_STREQ(k.name, isa_name(active_isa()));
  if (active_isa() == Isa::kAvx2) {
    EXPECT_TRUE(build_has_avx2());
    EXPECT_TRUE(cpu_supports_avx2());
    EXPECT_TRUE(cpu_supports_pclmul());
  }
  // The forced-scalar CI job relies on the env knob actually pinning the
  // process-wide table — including the wire CRC, so no PCLMUL instruction
  // runs under LUMICHAT_SIMD=scalar.
  const char* env = std::getenv("LUMICHAT_SIMD");
  if (env != nullptr && std::string_view(env) == "scalar") {
    EXPECT_EQ(active_isa(), Isa::kScalar);
    EXPECT_EQ(&k, &scalar_kernels());
    EXPECT_EQ(k.crc32_update, scalar_kernels().crc32_update);
  }
}

}  // namespace
}  // namespace lumichat::simd
