#include "kernels/registry.hpp"

#include <cstdlib>

#include "kernels/rank_kernel.hpp"

namespace bwaver::kernels {

namespace {

// approx_bytes_per_base: RRR ~0.36 (entropy-coded blocks + directories),
// sampled ~0.375 (0.25 packed + 16 B checkpoint per 128 bases at the
// default width), vector 64 B per 192 bases = ~0.34, epr 64 B per 128 bases
// = 0.5 (the bit-transposed layout spends space to make every rank one
// cache line).
//
// sweep: the sweep scheduler overlaps the rank lookups of many reads and
// prefetches their lines, which pays only where a rank's address is
// computable up front — the one-line layouts of vector and epr. The RRR
// descent is data-dependent and the sampled checkpoints measured mixed, so
// they keep the paper's (and Bowtie2's) per-read order; the FPGA kernel
// streams query packets itself.
constexpr EngineSpec kEngineTable[] = {
    {MappingEngine::kFpga, "fpga", nullptr, "RrrWaveletOcc",
     "modeled FPGA device scanning the RRR wavelet tree in fabric", true, false,
     false, 0.36},
    {MappingEngine::kCpu, "rrr", "cpu", "RrrWaveletOcc",
     "the paper's software search over the RRR wavelet tree", false, false, false,
     0.36},
    {MappingEngine::kBowtie2Like, "sampled", "bowtie2like", "SampledOcc",
     "Bowtie-style packed BWT with checkpointed counters, scalar SWAR", false,
     false, false, 0.375},
    {MappingEngine::kVector, "vector", nullptr, "VectorOcc",
     "interleaved packed BWT counted by the runtime-dispatched SIMD kernels",
     false, true, true, 0.34},
    {MappingEngine::kEpr, "epr", nullptr, "EprOcc",
     "bit-transposed EPR dictionary, one cache line and one popcount per rank",
     false, true, true, 0.5},
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

MappingEngine default_engine() {
  if (const char* env = std::getenv("BWAVER_ENGINE")) {
    if (const auto engine = parse_engine_name(env)) return *engine;
  }
  return MappingEngine::kFpga;
}

const char* engine_kernel_name(MappingEngine engine) {
  return engine_spec(engine).vectorized ? active_kernel().name : "scalar";
}

}  // namespace bwaver::kernels
