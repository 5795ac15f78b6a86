// SIMD dispatch for the workload kernel hot paths.
//
// The exploration loop is only as fast as the kernels it profiles, so the
// BTPC predict pass, the hyperspectral local-sum/residual-mapping loop and
// the motion SAD accumulate each carry a lane-parallel twin of their scalar
// reference loop.  The contract is strict: a vector path must produce a
// byte-identical bitstream, a bit-equal motion-vector field and an identical
// trace::Recorder profile.  The last point is enforced structurally — the
// kernels only dispatch to a vector body when the codec runs *uninstrumented*
// (no recorder attached), so a profiling run always executes the scalar
// access sequence and the recorded model is dispatch-invariant by
// construction.  tests/simd_test.cpp then closes the loop by differencing
// every compiled path against the scalar golden reference.
//
// Feature detection is compile-time (`DTSE_SIMD_SSE2` / `DTSE_SIMD_AVX2`
// below); path *selection* is runtime, via the `SimdMode` knob plumbed
// through CodecOptions / HsCodecOptions / MotionOptions / WorkloadOptions.
// The AVX2 bodies are compiled with a per-function target attribute, so the
// baseline build carries every path and `kAuto` picks the widest one the
// host supports.  The `DTSE_SIMD_MODE` environment variable steers `kAuto`
// requests only — that is what CI uses to force each path through `explore`
// end to end — while an explicit request always wins, so the differential
// tests and the forced-scalar bench twins run the path they name.
// Configuring with -DDTSE_SIMD=OFF defines DTSE_SIMD_DISABLED and compiles
// the scalar reference only.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <vector>

#if !defined(DTSE_SIMD_DISABLED) && \
    (defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64))
#define DTSE_SIMD_SSE2 1
#else
#define DTSE_SIMD_SSE2 0
#endif

// With GCC/Clang the AVX2 bodies compile in any x86 build through
// __attribute__((target("avx2"))); actually running them is gated on the
// __builtin_cpu_supports check below.
#if DTSE_SIMD_SSE2 && (defined(__GNUC__) || defined(__clang__))
#define DTSE_SIMD_AVX2 1
#define DTSE_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define DTSE_SIMD_AVX2 0
#define DTSE_TARGET_AVX2
#endif

namespace dtse::support {

/// Dispatch-path knob.  kSse2 names the 128-bit lane tier: on x86 it is the
/// SSE2 baseline; an AArch64 port would dispatch its NEON bodies from the
/// same enumerator (kNeon aliases it), keeping option structs and sweep
/// configs ISA-neutral.
enum class SimdMode : std::uint8_t {
  kScalar = 0,  ///< the golden reference loops, always available
  kSse2 = 1,    ///< 128-bit lanes (SSE2 on x86)
  kNeon = 1,    ///< alias: the same 128-bit tier on arm
  kAvx2 = 2,    ///< 256-bit lanes, runtime-checked on the host CPU
  kAuto = 3,    ///< resolve to the widest path this build + host supports
};

[[nodiscard]] constexpr std::string_view to_string(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar: return "scalar";
    case SimdMode::kSse2: return "sse2";
    case SimdMode::kAvx2: return "avx2";
    case SimdMode::kAuto: return "auto";
  }
  return "unknown";
}

[[nodiscard]] inline std::optional<SimdMode> simd_mode_from_name(
    std::string_view name) {
  if (name == "scalar") return SimdMode::kScalar;
  if (name == "sse2" || name == "neon") return SimdMode::kSse2;
  if (name == "avx2") return SimdMode::kAvx2;
  if (name == "auto") return SimdMode::kAuto;
  return std::nullopt;
}

/// True when this build contains a vector body for `mode` *and* the host CPU
/// can execute it.  kScalar is always dispatchable; kAuto is a request, not
/// a path.
[[nodiscard]] inline bool simd_mode_dispatchable(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar:
      return true;
    case SimdMode::kSse2:
#if DTSE_SIMD_SSE2
      return true;
#else
      return false;
#endif
    case SimdMode::kAvx2:
#if DTSE_SIMD_AVX2
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdMode::kAuto:
      return false;
  }
  return false;
}

/// Every path the differential harness can force on this build + host,
/// narrowest first (kScalar is always the first entry).
[[nodiscard]] inline std::vector<SimdMode> dispatchable_simd_modes() {
  std::vector<SimdMode> modes{SimdMode::kScalar};
  if (simd_mode_dispatchable(SimdMode::kSse2)) modes.push_back(SimdMode::kSse2);
  if (simd_mode_dispatchable(SimdMode::kAvx2)) modes.push_back(SimdMode::kAvx2);
  return modes;
}

/// The widest dispatchable path (what kAuto resolves to).
[[nodiscard]] inline SimdMode widest_simd_mode() {
  if (simd_mode_dispatchable(SimdMode::kAvx2)) return SimdMode::kAvx2;
  if (simd_mode_dispatchable(SimdMode::kSse2)) return SimdMode::kSse2;
  return SimdMode::kScalar;
}

/// Resolves an option knob to the path a kernel actually runs: a kAuto
/// request follows the DTSE_SIMD_MODE environment variable (if set to a
/// recognized name) and otherwise resolves to the widest dispatchable path;
/// an explicit request ignores the variable.  A request this build or host
/// cannot serve degrades to the widest dispatchable path below it.  Never
/// returns kAuto.
[[nodiscard]] inline SimdMode resolve_simd_mode(SimdMode requested) {
  if (requested == SimdMode::kAuto) {
    if (const char* env = std::getenv("DTSE_SIMD_MODE")) {
      if (const auto parsed = simd_mode_from_name(env)) requested = *parsed;
    }
  }
  if (requested == SimdMode::kAuto) return widest_simd_mode();
  if (requested == SimdMode::kAvx2 && !simd_mode_dispatchable(SimdMode::kAvx2)) {
    requested = SimdMode::kSse2;
  }
  if (requested == SimdMode::kSse2 && !simd_mode_dispatchable(SimdMode::kSse2)) {
    requested = SimdMode::kScalar;
  }
  return requested;
}

}  // namespace dtse::support
