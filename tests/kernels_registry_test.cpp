#include "kernels/registry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "kernels/rank_kernel.hpp"

namespace bwaver::kernels {
namespace {

TEST(EngineRegistry, EnumeratesEveryEngineInEnumOrder) {
  const auto specs = engines();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].engine, MappingEngine::kFpga);
  EXPECT_EQ(specs[1].engine, MappingEngine::kCpu);
  EXPECT_EQ(specs[2].engine, MappingEngine::kBowtie2Like);
  EXPECT_EQ(specs[3].engine, MappingEngine::kEpr);
  EXPECT_EQ(engine_choices(), "fpga|rrr|sampled|epr");

  std::set<std::string> names;
  for (const EngineSpec& spec : specs) {
    ASSERT_NE(spec.name, nullptr);
    ASSERT_NE(spec.occ_backend, nullptr);
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate " << spec.name;
    if (spec.alias != nullptr) {
      EXPECT_TRUE(names.insert(spec.alias).second) << "alias collides: " << spec.alias;
    }
    EXPECT_EQ(&engine_spec(spec.engine), &spec);
  }
}

TEST(EngineRegistry, OnlyTheFpgaEngineIsADeviceModel) {
  for (const EngineSpec& spec : engines()) {
    EXPECT_EQ(spec.device_model, spec.engine == MappingEngine::kFpga) << spec.name;
  }
}

TEST(EngineRegistry, ParseAcceptsCanonicalNamesAndAliases) {
  EXPECT_EQ(parse_engine_name("fpga"), MappingEngine::kFpga);
  EXPECT_EQ(parse_engine_name("rrr"), MappingEngine::kCpu);
  EXPECT_EQ(parse_engine_name("cpu"), MappingEngine::kCpu);
  EXPECT_EQ(parse_engine_name("sampled"), MappingEngine::kBowtie2Like);
  EXPECT_EQ(parse_engine_name("bowtie2like"), MappingEngine::kBowtie2Like);
  EXPECT_EQ(parse_engine_name("epr"), MappingEngine::kEpr);
  EXPECT_FALSE(parse_engine_name("").has_value());
  EXPECT_FALSE(parse_engine_name("FPGA").has_value());
  EXPECT_FALSE(parse_engine_name("simd").has_value());
  // The ablation-only wavelet tree is not an engine, nor is the retired
  // vector engine.
  EXPECT_FALSE(parse_engine_name("plain").has_value());
  EXPECT_FALSE(parse_engine_name("vector").has_value());
}

TEST(EngineRegistry, KernelNameReflectsVectorization) {
  for (const EngineSpec& spec : engines()) {
    const char* kernel = engine_kernel_name(spec.engine);
    if (spec.vectorized) {
      EXPECT_STREQ(kernel, active_kernel().name) << spec.name;
    } else {
      EXPECT_STREQ(kernel, "scalar") << spec.name;
    }
  }
}

}  // namespace
}  // namespace bwaver::kernels
