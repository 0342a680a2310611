// Runtime CPU-feature detection for the SIMD kernel dispatch.
//
// One process-wide cached snapshot answers "which vector ISA may this
// binary use?" for every dispatcher in the tree (the rank kernels in
// src/kernels/, the PCLMULQDQ CRC32 fold in src/io/checksum.cpp). The
// snapshot is the intersection of what the hardware reports and an
// optional operator cap: $BWAVER_CPU_FEATURES=portable|sse42|avx2|neon
// restricts dispatch to at most that level (it can never enable an ISA the
// CPU lacks), which is how CI exercises the fallback paths on wide
// machines.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace bwaver {

/// Vector ISA tiers the dispatchers understand, in preference order.
/// kNeon is its own tier (aarch64); on x86 the order is
/// portable < sse42 < avx2.
enum class SimdLevel { kPortable = 0, kSse42 = 1, kAvx2 = 2, kNeon = 3 };

/// Each x86 tier flag implies what its kernels are compiled for: `sse42`
/// means SSE4.2 + POPCNT, `avx2` means AVX2 + POPCNT + BMI2 (the EPR sweep's
/// BZHI). Neither detection nor a cap ever reports a tier without them.
struct CpuFeatures {
  bool sse42 = false;
  bool avx2 = false;
  bool neon = false;
  bool popcnt = false;
  bool bmi2 = false;
  bool pclmul = false;  ///< PCLMULQDQ + SSE4.1 (the CRC32 folding pair)
  /// Highest tier the dispatchers may select.
  SimdLevel best = SimdLevel::kPortable;
};

/// Raw hardware capabilities (no environment cap applied).
CpuFeatures detect_cpu_features();

/// `detected` restricted to at most `cap`: every flag above the cap is
/// cleared (popcnt rides with the sse42 tier, bmi2 with avx2) and `best` is
/// lowered. Capping to a level the hardware lacks degrades to the best
/// level actually present; a tier whose prerequisites are missing from
/// `detected` is cleared too.
CpuFeatures cap_cpu_features(CpuFeatures detected, SimdLevel cap);

/// The process-wide snapshot: detect_cpu_features() capped by
/// $BWAVER_CPU_FEATURES (unknown values are ignored). Computed once and
/// cached — consistent for the process lifetime regardless of later
/// setenv() calls.
const CpuFeatures& cpu_features();

/// "portable" / "sse42" / "avx2" / "neon".
const char* simd_level_name(SimdLevel level);

/// Inverse of simd_level_name(); nullopt for anything else.
std::optional<SimdLevel> parse_simd_level(std::string_view name);

/// Human/JSON summary of a feature set, e.g. "avx2+sse42+popcnt+bmi2+pclmul"
/// or "portable" when nothing vectorized is usable.
std::string cpu_features_string(const CpuFeatures& features);

}  // namespace bwaver
