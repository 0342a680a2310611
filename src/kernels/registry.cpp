#include "kernels/registry.hpp"

#include "kernels/rank_kernel.hpp"

namespace bwaver::kernels {

namespace {

constexpr EngineSpec kEngineTable[] = {
    {MappingEngine::kFpga, "fpga", nullptr, "RrrWaveletOcc", true, false},
    {MappingEngine::kCpu, "rrr", "cpu", "RrrWaveletOcc", false, false},
    {MappingEngine::kBowtie2Like, "sampled", "bowtie2like", "SampledOcc", false, false},
    {MappingEngine::kEpr, "epr", nullptr, "EprOcc", false, true},
};

}  // namespace

std::span<const EngineSpec> engines() { return kEngineTable; }

const EngineSpec& engine_spec(MappingEngine engine) {
  for (const EngineSpec& spec : kEngineTable) {
    if (spec.engine == engine) return spec;
  }
  return kEngineTable[0];
}

std::optional<MappingEngine> parse_engine_name(std::string_view name) {
  for (const EngineSpec& spec : kEngineTable) {
    if (name == spec.name || (spec.alias != nullptr && name == spec.alias)) {
      return spec.engine;
    }
  }
  return std::nullopt;
}

std::string engine_choices() {
  std::string choices;
  for (const EngineSpec& spec : kEngineTable) {
    if (!choices.empty()) choices += "|";
    choices += spec.name;
  }
  return choices;
}

const char* engine_kernel_name(MappingEngine engine) {
  return engine_spec(engine).vectorized ? active_kernel().name : "scalar";
}

}  // namespace bwaver::kernels
