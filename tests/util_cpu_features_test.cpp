#include "util/cpu_features.hpp"

#include <gtest/gtest.h>

#include <string>

namespace bwaver {
namespace {

CpuFeatures full_x86() {
  CpuFeatures f;
  f.sse42 = true;
  f.avx2 = true;
  f.popcnt = true;
  f.bmi2 = true;
  f.pclmul = true;
  f.best = SimdLevel::kAvx2;
  return f;
}

/// The tier contract: a tier flag implies the ISA its kernels are compiled
/// for, and `best` names the highest tier reported.
void expect_tiers_honour_prerequisites(const CpuFeatures& f, const std::string& what) {
  if (f.avx2) {
    EXPECT_TRUE(f.popcnt) << what;
    EXPECT_TRUE(f.bmi2) << what;
  }
  if (f.sse42) {
    EXPECT_TRUE(f.popcnt) << what;
  }
  if (f.best == SimdLevel::kAvx2) {
    EXPECT_TRUE(f.avx2) << what;
  }
  if (f.best == SimdLevel::kSse42) {
    EXPECT_TRUE(f.sse42) << what;
    EXPECT_FALSE(f.avx2) << what;
  }
  if (f.best == SimdLevel::kPortable) {
    EXPECT_FALSE(f.avx2) << what;
    EXPECT_FALSE(f.sse42) << what;
  }
}

TEST(CpuFeatures, DetectionIsInternallyConsistent) {
  const CpuFeatures f = detect_cpu_features();
  expect_tiers_honour_prerequisites(f, "detected " + cpu_features_string(f));
  switch (f.best) {
    case SimdLevel::kAvx2:
      EXPECT_TRUE(f.avx2);
      break;
    case SimdLevel::kSse42:
      EXPECT_TRUE(f.sse42);
      EXPECT_FALSE(f.avx2);
      break;
    case SimdLevel::kNeon:
      EXPECT_TRUE(f.neon);
      break;
    case SimdLevel::kPortable:
      EXPECT_FALSE(f.avx2);
      EXPECT_FALSE(f.sse42);
      EXPECT_FALSE(f.neon);
      break;
  }
}

TEST(CpuFeatures, CapClearsFlagsAboveTheLevel) {
  CpuFeatures capped = cap_cpu_features(full_x86(), SimdLevel::kSse42);
  EXPECT_FALSE(capped.avx2);
  EXPECT_FALSE(capped.bmi2);  // bmi2 rides with the avx2 tier
  EXPECT_TRUE(capped.sse42);
  EXPECT_TRUE(capped.popcnt);
  EXPECT_TRUE(capped.pclmul);  // pclmul rides with the sse4 tier
  EXPECT_EQ(capped.best, SimdLevel::kSse42);

  capped = cap_cpu_features(full_x86(), SimdLevel::kPortable);
  EXPECT_FALSE(capped.avx2);
  EXPECT_FALSE(capped.sse42);
  EXPECT_FALSE(capped.popcnt);
  EXPECT_FALSE(capped.bmi2);
  EXPECT_FALSE(capped.pclmul);
  EXPECT_EQ(capped.best, SimdLevel::kPortable);
}

TEST(CpuFeatures, TierWithoutItsPrerequisitesIsNeverReported) {
  // AVX2 without BMI2 (the EPR sweep's BZHI) drops to the sse42 tier;
  // SSE4.2 without POPCNT drops to portable.
  CpuFeatures no_bmi2 = full_x86();
  no_bmi2.bmi2 = false;
  CpuFeatures capped = cap_cpu_features(no_bmi2, SimdLevel::kAvx2);
  EXPECT_FALSE(capped.avx2);
  EXPECT_TRUE(capped.sse42);
  EXPECT_EQ(capped.best, SimdLevel::kSse42);

  CpuFeatures no_popcnt = full_x86();
  no_popcnt.popcnt = false;
  capped = cap_cpu_features(no_popcnt, SimdLevel::kAvx2);
  EXPECT_FALSE(capped.avx2);
  EXPECT_FALSE(capped.sse42);
  EXPECT_EQ(capped.best, SimdLevel::kPortable);

  // Every combination of the four x86 bits under every cap.
  for (unsigned bits = 0; bits < 16; ++bits) {
    CpuFeatures f;
    f.sse42 = (bits & 1) != 0;
    f.avx2 = (bits & 2) != 0;
    f.popcnt = (bits & 4) != 0;
    f.bmi2 = (bits & 8) != 0;
    for (const SimdLevel cap : {SimdLevel::kPortable, SimdLevel::kSse42,
                                SimdLevel::kAvx2, SimdLevel::kNeon}) {
      expect_tiers_honour_prerequisites(
          cap_cpu_features(f, cap),
          "bits " + std::to_string(bits) + " cap " + simd_level_name(cap));
    }
  }
}

TEST(CpuFeatures, CapAtOrAboveDetectedIsIdentity) {
  const CpuFeatures capped = cap_cpu_features(full_x86(), SimdLevel::kAvx2);
  EXPECT_TRUE(capped.avx2);
  EXPECT_TRUE(capped.sse42);
  EXPECT_TRUE(capped.popcnt);
  EXPECT_TRUE(capped.bmi2);
  EXPECT_TRUE(capped.pclmul);
  EXPECT_EQ(capped.best, SimdLevel::kAvx2);
}

TEST(CpuFeatures, NeonCapOnX86DegradesToPortable) {
  const CpuFeatures capped = cap_cpu_features(full_x86(), SimdLevel::kNeon);
  EXPECT_FALSE(capped.avx2);
  EXPECT_FALSE(capped.sse42);
  EXPECT_FALSE(capped.popcnt);
  EXPECT_FALSE(capped.bmi2);
  EXPECT_FALSE(capped.pclmul);
  EXPECT_EQ(capped.best, SimdLevel::kPortable);
}

TEST(CpuFeatures, NeonCapKeepsNeon) {
  CpuFeatures arm;
  arm.neon = true;
  arm.best = SimdLevel::kNeon;
  const CpuFeatures capped = cap_cpu_features(arm, SimdLevel::kNeon);
  EXPECT_TRUE(capped.neon);
  EXPECT_EQ(capped.best, SimdLevel::kNeon);
}

TEST(CpuFeatures, CapToLevelHardwareLacksDegrades) {
  CpuFeatures sse_only;
  sse_only.sse42 = true;
  sse_only.popcnt = true;
  sse_only.best = SimdLevel::kSse42;
  const CpuFeatures capped = cap_cpu_features(sse_only, SimdLevel::kAvx2);
  EXPECT_FALSE(capped.avx2);
  EXPECT_EQ(capped.best, SimdLevel::kSse42);
}

TEST(CpuFeatures, LevelNamesRoundTrip) {
  for (const SimdLevel level : {SimdLevel::kPortable, SimdLevel::kSse42,
                                SimdLevel::kAvx2, SimdLevel::kNeon}) {
    const auto parsed = parse_simd_level(simd_level_name(level));
    ASSERT_TRUE(parsed.has_value()) << simd_level_name(level);
    EXPECT_EQ(*parsed, level);
  }
}

TEST(CpuFeatures, ParseAcceptsSpellingVariants) {
  EXPECT_EQ(parse_simd_level("scalar"), SimdLevel::kPortable);
  EXPECT_EQ(parse_simd_level("swar"), SimdLevel::kPortable);
  EXPECT_EQ(parse_simd_level("sse4.2"), SimdLevel::kSse42);
  EXPECT_FALSE(parse_simd_level("avx512").has_value());
  EXPECT_FALSE(parse_simd_level("").has_value());
  EXPECT_FALSE(parse_simd_level("AVX2").has_value());  // names are lowercase
}

TEST(CpuFeatures, FeatureStringFormats) {
  EXPECT_EQ(cpu_features_string(CpuFeatures{}), "portable");
  EXPECT_EQ(cpu_features_string(full_x86()), "avx2+sse42+popcnt+bmi2+pclmul");
  CpuFeatures arm;
  arm.neon = true;
  arm.best = SimdLevel::kNeon;
  EXPECT_EQ(cpu_features_string(arm), "neon");
}

TEST(CpuFeatures, ProcessSnapshotIsCachedAndCapConsistent) {
  const CpuFeatures& a = cpu_features();
  const CpuFeatures& b = cpu_features();
  EXPECT_EQ(&a, &b);  // one static snapshot
  // Whatever cap $BWAVER_CPU_FEATURES applied, the snapshot can never
  // exceed the raw hardware detection.
  const CpuFeatures raw = detect_cpu_features();
  EXPECT_LE(a.avx2, raw.avx2);
  EXPECT_LE(a.sse42, raw.sse42);
  EXPECT_LE(a.neon, raw.neon);
  EXPECT_LE(a.popcnt, raw.popcnt);
  EXPECT_LE(a.bmi2, raw.bmi2);
  EXPECT_LE(a.pclmul, raw.pclmul);
  EXPECT_LE(static_cast<int>(a.best), static_cast<int>(raw.best));
  expect_tiers_honour_prerequisites(a, "snapshot " + cpu_features_string(a));
}

}  // namespace
}  // namespace bwaver
