// Startup-time ISA dispatch for the compute kernels in kernels.hpp.
//
// The instruction set is resolved exactly once (thread-safe magic static),
// from two inputs:
//
//   * CPUID: the AVX2 table is only ever selected when the running CPU
//     reports both AVX2 and PCLMUL (its CRC-32 kernel folds with
//     PCLMULQDQ) and the build could compile it.
//   * LUMICHAT_SIMD=avx2|scalar — an override for testing and triage. The
//     forced-scalar CI job runs the whole unit tier with
//     LUMICHAT_SIMD=scalar so the fallback path stays exercised; forcing
//     avx2 on a CPU without it falls back to scalar (never SIGILL).
//
// Because both tables are bit-for-bit equivalent (kernels.hpp), dispatch is
// a pure performance decision: verdicts, goldens, and scenario fingerprints
// are identical under either setting.
#pragma once

#include "simd/kernels.hpp"

namespace lumichat::simd {

enum class Isa { kScalar, kAvx2 };

[[nodiscard]] const char* isa_name(Isa isa);

/// True when the running CPU supports AVX2 (independent of whether this
/// build could compile the AVX2 table).
[[nodiscard]] bool cpu_supports_avx2();

/// True when the running CPU supports PCLMULQDQ (carry-less multiply).
[[nodiscard]] bool cpu_supports_pclmul();

/// True when the AVX2 table was compiled into this binary.
[[nodiscard]] bool build_has_avx2();

/// Pure usability rule, exposed for tests: the AVX2 table may run only when
/// it was built and the CPU reports both AVX2 and PCLMUL.
[[nodiscard]] bool avx2_table_usable(bool build_avx2, bool cpu_avx2,
                               bool cpu_pclmul);

/// Pure resolution rule, exposed for tests: `env` is the value of
/// LUMICHAT_SIMD (nullptr/"" = unset, which auto-selects), `avx2_usable`
/// is whether the AVX2 table exists AND the CPU can run it. Unknown env
/// values auto-select (the process-level resolver warns once on stderr).
[[nodiscard]] Isa resolve_isa(const char* env, bool avx2_usable);

/// The scalar table (always available).
[[nodiscard]] const Kernels& scalar_kernels();

/// The AVX2 table, or nullptr when the build lacks it or the running CPU
/// lacks AVX2 or PCLMUL. Tests pin both tables through this pair to property-check
/// bit-equality without touching the environment.
[[nodiscard]] const Kernels* avx2_kernels();

/// The table selected at startup; all hot-path call sites go through this.
[[nodiscard]] const Kernels& active();

/// The ISA backing active().
[[nodiscard]] Isa active_isa();

}  // namespace lumichat::simd
