#include "util/cpu_features.hpp"

#include <cstdlib>

namespace bwaver {

namespace {

/// Clears each x86 tier whose prerequisites are missing and sets `best`.
void settle_x86_tiers(CpuFeatures& features) {
  features.sse42 = features.sse42 && features.popcnt;
  features.avx2 = features.avx2 && features.popcnt && features.bmi2;
  if (features.avx2) {
    features.best = SimdLevel::kAvx2;
  } else if (features.sse42) {
    features.best = SimdLevel::kSse42;
  } else {
    features.best = SimdLevel::kPortable;
  }
}

}  // namespace

CpuFeatures detect_cpu_features() {
  CpuFeatures features;
#if defined(__x86_64__) || defined(_M_X64)
  features.sse42 = __builtin_cpu_supports("sse4.2") != 0;
  features.avx2 = __builtin_cpu_supports("avx2") != 0;
  features.popcnt = __builtin_cpu_supports("popcnt") != 0;
  features.bmi2 = __builtin_cpu_supports("bmi2") != 0;
  features.pclmul = __builtin_cpu_supports("pclmul") != 0 &&
                    __builtin_cpu_supports("sse4.1") != 0;
  settle_x86_tiers(features);
#elif defined(__aarch64__)
  // Advanced SIMD is architecturally mandatory on AArch64.
  features.neon = true;
  features.best = SimdLevel::kNeon;
#endif
  return features;
}

CpuFeatures cap_cpu_features(CpuFeatures detected, SimdLevel cap) {
  CpuFeatures capped = detected;
  if (cap == SimdLevel::kNeon) {
    // NEON is the only vector tier on aarch64; on x86 the cap degrades to
    // portable because the requested ISA does not exist there.
    capped.sse42 = false;
    capped.avx2 = false;
    capped.popcnt = false;
    capped.bmi2 = false;
    capped.pclmul = false;
    capped.best = detected.neon ? SimdLevel::kNeon : SimdLevel::kPortable;
    return capped;
  }
  capped.neon = false;
  if (cap < SimdLevel::kAvx2) {
    capped.avx2 = false;
    capped.bmi2 = false;
  }
  if (cap < SimdLevel::kSse42) {
    capped.sse42 = false;
    capped.popcnt = false;
    capped.pclmul = false;
  }
  settle_x86_tiers(capped);
  return capped;
}

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = [] {
    CpuFeatures detected = detect_cpu_features();
    if (const char* env = std::getenv("BWAVER_CPU_FEATURES")) {
      if (const auto cap = parse_simd_level(env)) {
        detected = cap_cpu_features(detected, *cap);
      }
    }
    return detected;
  }();
  return features;
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kPortable:
      return "portable";
    case SimdLevel::kSse42:
      return "sse42";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "portable";
}

std::optional<SimdLevel> parse_simd_level(std::string_view name) {
  if (name == "portable" || name == "scalar" || name == "swar") {
    return SimdLevel::kPortable;
  }
  if (name == "sse42" || name == "sse4.2") return SimdLevel::kSse42;
  if (name == "avx2") return SimdLevel::kAvx2;
  if (name == "neon") return SimdLevel::kNeon;
  return std::nullopt;
}

std::string cpu_features_string(const CpuFeatures& features) {
  std::string out;
  const auto add = [&out](const char* name) {
    if (!out.empty()) out += '+';
    out += name;
  };
  if (features.avx2) add("avx2");
  if (features.sse42) add("sse42");
  if (features.neon) add("neon");
  if (features.popcnt) add("popcnt");
  if (features.bmi2) add("bmi2");
  if (features.pclmul) add("pclmul");
  if (out.empty()) out = "portable";
  return out;
}

}  // namespace bwaver
