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
// There is one vector tier: 128-bit SSE2, the x86-64 baseline, so every
// x86-64 build carries it and no host check is needed.  Path *selection* is
// runtime, via the `SimdMode` knob plumbed through CodecOptions /
// HsCodecOptions / MotionOptions; `kAuto` picks SSE2 when the build has it.
// The `DTSE_SIMD_MODE` environment variable steers `kAuto` requests only —
// that is what CI uses to force the scalar path through `explore` end to
// end — while an explicit request always wins, so the differential tests and
// the forced-scalar bench twins run the path they name.  Configuring with
// -DDTSE_SIMD=OFF (and any non-x86 build) defines no vector body and
// compiles the scalar reference only.
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

namespace dtse::support {

/// Dispatch-path knob.
enum class SimdMode : std::uint8_t {
  kScalar = 0,  ///< the golden reference loops, always available
  kSse2 = 1,    ///< 128-bit SSE2 lanes
  kAuto = 2,    ///< resolve to the vector path when this build has one
};

[[nodiscard]] constexpr std::string_view to_string(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar: return "scalar";
    case SimdMode::kSse2: return "sse2";
    case SimdMode::kAuto: return "auto";
  }
  return "unknown";
}

[[nodiscard]] inline std::optional<SimdMode> simd_mode_from_name(
    std::string_view name) {
  if (name == "scalar") return SimdMode::kScalar;
  if (name == "sse2") return SimdMode::kSse2;
  if (name == "auto") return SimdMode::kAuto;
  return std::nullopt;
}

/// True when this build contains a body for `mode`.  kScalar is always
/// dispatchable; kAuto is a request, not a path.
[[nodiscard]] constexpr bool simd_mode_dispatchable(SimdMode mode) {
  return mode == SimdMode::kScalar || (mode == SimdMode::kSse2 && DTSE_SIMD_SSE2);
}

/// Every path the differential harness can force on this build, narrowest
/// first (kScalar is always the first entry).
[[nodiscard]] inline std::vector<SimdMode> dispatchable_simd_modes() {
  std::vector<SimdMode> modes{SimdMode::kScalar};
  if (simd_mode_dispatchable(SimdMode::kSse2)) modes.push_back(SimdMode::kSse2);
  return modes;
}

/// The widest dispatchable path (what kAuto resolves to).
[[nodiscard]] constexpr SimdMode widest_simd_mode() {
  return DTSE_SIMD_SSE2 ? SimdMode::kSse2 : SimdMode::kScalar;
}

/// Resolves an option knob to the path a kernel actually runs: a kAuto
/// request follows the DTSE_SIMD_MODE environment variable (if set to a
/// recognized name) and otherwise resolves to the widest dispatchable path;
/// an explicit request ignores the variable.  A kSse2 request on a build
/// without the vector body degrades to kScalar.  Never returns kAuto.
[[nodiscard]] inline SimdMode resolve_simd_mode(SimdMode requested) {
  if (requested == SimdMode::kAuto) {
    if (const char* env = std::getenv("DTSE_SIMD_MODE")) {
      if (const auto parsed = simd_mode_from_name(env)) requested = *parsed;
    }
  }
  if (requested == SimdMode::kAuto) return widest_simd_mode();
  return simd_mode_dispatchable(requested) ? requested : SimdMode::kScalar;
}

}  // namespace dtse::support
