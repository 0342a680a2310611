// The engine table of a loaded index (mapper/engine_set.hpp): each host
// engine is built once per index, on first use, shared by every mapping
// call and thread, and owned by one index generation.
#include "mapper/engine_set.hpp"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fleet/map_transport.hpp"
#include "jobs/server_stats.hpp"
#include "mapper/map_service.hpp"
#include "mapper/pipeline.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"
#include "store/index_registry.hpp"
#include "test_temp_dir.hpp"
#include "util/cancellation.hpp"

namespace bwaver {
namespace {

constexpr std::array<MappingEngine, 3> kHostEngines = {
    MappingEngine::kCpu, MappingEngine::kBowtie2Like, MappingEngine::kEpr};

class EngineSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GenomeSimConfig genome_config;
    genome_config.length = 30000;
    genome_config.seed = 61;
    genome_ = simulate_genome(genome_config);
    ReadSimConfig read_config;
    read_config.num_reads = 200;
    read_config.read_length = 40;
    read_config.mapping_ratio = 0.8;
    records_ = std::make_shared<const std::vector<FastqRecord>>(
        reads_to_fastq(simulate_reads(genome_, read_config)));
  }

  /// A freshly built, seeded in-memory index (no "epr" section).
  StoredIndex build() const {
    ReferenceSet reference;
    reference.add("ref", genome_);
    return build_stored_index(std::move(reference), PipelineConfig{});
  }

  static PipelineConfig config(MappingEngine engine) {
    PipelineConfig config;
    config.engine = engine;
    return config;
  }

  std::vector<std::uint8_t> genome_;
  std::shared_ptr<const std::vector<FastqRecord>> records_;
};

TEST_F(EngineSetTest, TwoEprJobsShareOneEngineOverTheArchiveSection) {
  const std::filesystem::path dir = test::unique_test_dir("engine_set");
  IndexRegistry registry(dir.string(), IndexRegistry::kDefaultMemoryBudget, LoadMode::kCopy);
  registry.add("ref", build());
  ASSERT_TRUE(registry.evict("ref"));  // the next acquire loads the v4 archive
  const IndexRegistry::Handle handle = registry.acquire("ref");
  ASSERT_NE(handle->epr, nullptr);

  ServerStats stats;
  const CancelToken never;
  const std::string first =
      fleet::make_map_job(registry, config(MappingEngine::kEpr), stats, "ref", records_)(never);
  const HostEngine* engine = &handle->engine(MappingEngine::kEpr);
  const std::string second =
      fleet::make_map_job(registry, config(MappingEngine::kEpr), stats, "ref", records_)(never);

  EXPECT_EQ(handle->engines.builds(), 1u);
  EXPECT_EQ(&handle->engine(MappingEngine::kEpr), engine);
  // The engine aliases the handle's section: a transposed dictionary would
  // be heap the engine owns (as the sampled engine's Occ structure is).
  EXPECT_EQ(engine->heap_bytes(), 0u);
  EXPECT_GT(handle->engine(MappingEngine::kBowtie2Like).heap_bytes(), 0u);
  EXPECT_EQ(second, first);
  EXPECT_EQ(first, map_records_over(*handle, config(MappingEngine::kCpu), *records_).sam);
  std::filesystem::remove_all(dir);
}

TEST_F(EngineSetTest, ConcurrentFirstUseBuildsEachEngineOnce) {
  const auto stored = std::make_shared<const StoredIndex>(build());
  const std::string expected =
      map_records_over(*stored, config(MappingEngine::kFpga), *records_).sam;
  ASSERT_EQ(stored->engines.builds(), 0u);  // the FPGA model is not in the table

  constexpr int kThreads = 8;
  std::vector<std::array<const HostEngine*, kHostEngines.size()>> seen(kThreads);
  std::vector<std::string> sams(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the engines from a different starting point, so
      // first uses of different engines overlap too.
      for (std::size_t k = 0; k < kHostEngines.size(); ++k) {
        const std::size_t e = (k + static_cast<std::size_t>(t)) % kHostEngines.size();
        seen[t][e] = &stored->engine(kHostEngines[e]);
      }
      const MappingEngine engine = kHostEngines[t % kHostEngines.size()];
      sams[t] = map_records_over(*stored, config(engine), *records_).sam;
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(stored->engines.builds(), kHostEngines.size());
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
    EXPECT_EQ(sams[t], expected) << "thread " << t;
  }
}

TEST_F(EngineSetTest, RolloverGivesTheNewGenerationItsOwnEngines) {
  IndexRegistry registry;  // memory-only: rollover flips to the very index it is given
  registry.add("ref", build());
  const IndexRegistry::Handle old_handle = registry.acquire("ref");
  const std::string sam =
      map_records_over(*old_handle, config(MappingEngine::kBowtie2Like), *records_).sam;
  const HostEngine* old_engine = &old_handle->engine(MappingEngine::kBowtie2Like);

  registry.rollover("ref", build());
  const IndexRegistry::Handle new_handle = registry.acquire("ref");
  ASSERT_NE(new_handle, old_handle);
  EXPECT_EQ(new_handle->engines.builds(), 0u);
  EXPECT_EQ(map_records_over(*new_handle, config(MappingEngine::kBowtie2Like), *records_).sam,
            sam);
  EXPECT_EQ(new_handle->engines.builds(), 1u);
  EXPECT_NE(&new_handle->engine(MappingEngine::kBowtie2Like), old_engine);

  // The in-flight handle keeps its generation's engine.
  EXPECT_EQ(&old_handle->engine(MappingEngine::kBowtie2Like), old_engine);
  EXPECT_EQ(old_handle->engines.builds(), 1u);
  EXPECT_EQ(map_records_over(*old_handle, config(MappingEngine::kBowtie2Like), *records_).sam,
            sam);
}

TEST_F(EngineSetTest, TheFpgaModelIsNotAHostEngine) {
  const StoredIndex stored = build();
  EXPECT_THROW(stored.engine(MappingEngine::kFpga), std::invalid_argument);
  EXPECT_EQ(stored.engines.builds(), 0u);
}

}  // namespace
}  // namespace bwaver
