// The mapping-engine registry.
//
// Promotes the implicit software/FPGA split of the mapper into an
// enumerable registry: every engine — the modeled FPGA device and the three
// host Occ backends — carries a canonical name and the Occ structure it
// searches. The CLI, the web service and the shared correctness testbed
// resolve engines through this one table; the engines themselves are built
// in one place, mapper/engine_set.cpp, and every host engine searches by
// the batched sweep (mapper/batch_scheduler.hpp).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace bwaver {

/// All mapping engines. The values are fixed: the first three predate the
/// registry (kCpu = the paper's RRR software search, kBowtie2Like = the
/// sampled-occ baseline), and 3 and 4 are unused.
enum class MappingEngine {
  kFpga = 0,         ///< modeled FPGA device over the RRR wavelet tree
  kCpu = 1,          ///< software search, RrrWaveletOcc ("rrr")
  kBowtie2Like = 2,  ///< software search, SampledOcc ("sampled")
  kEpr = 5,          ///< software search, EprOcc constant-time rank ("epr")
};

namespace kernels {

struct EngineSpec {
  MappingEngine engine;
  const char* name;         ///< canonical CLI/JSON name
  const char* alias;        ///< accepted legacy spelling (nullptr if none)
  const char* occ_backend;  ///< Occ class the engine searches
  bool device_model;        ///< modeled hardware rather than host execution
  bool vectorized;          ///< ranks dispatch through the SIMD kernels
};

/// Every registered engine, in enum order.
std::span<const EngineSpec> engines();

/// The spec for one engine.
const EngineSpec& engine_spec(MappingEngine engine);

/// Canonical-name or alias lookup ("fpga", "rrr"/"cpu",
/// "sampled"/"bowtie2like", "epr"); nullopt for anything else.
std::optional<MappingEngine> parse_engine_name(std::string_view name);

/// "fpga|rrr|sampled|epr" — for flag help and 400 messages.
std::string engine_choices();

/// The counting-kernel name a run of this engine dispatches to right now:
/// the active SIMD kernel for vectorized engines, "scalar" otherwise.
const char* engine_kernel_name(MappingEngine engine);

}  // namespace kernels
}  // namespace bwaver
