// Load-mode tests for the v3+ zero-copy archive path: the full
// version x mode matrix (v1..v5, copy/mmap) must produce identical
// structures and byte-identical SAM (v4's two-array seed table against
// v5's boundaries on every engine); corruption must be rejected at open in
// mmap mode too, including a seed table whose CRCs were recomputed; and the
// heap/mapped footprint split must be deterministic so registry budgets and
// /references stay truthful.
#include "store/index_archive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fmindex/dna.hpp"
#include "io/byte_io.hpp"
#include "io/checksum.hpp"
#include "kernels/registry.hpp"
#include "mapper/map_service.hpp"
#include "mapper/pipeline.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"
#include "store/index_registry.hpp"

#include "test_temp_dir.hpp"

namespace bwaver {
namespace {

class MmapLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_test_dir("bwaver_store_mmap_test");

    GenomeSimConfig gconfig;
    gconfig.length = 20000;
    gconfig.seed = 53;
    genome_ = simulate_genome(gconfig);

    ReadSimConfig rconfig;
    rconfig.num_reads = 120;
    rconfig.read_length = 40;
    rconfig.mapping_ratio = 0.7;
    reads_ = reads_to_fastq(simulate_reads(genome_, rconfig));

    PipelineConfig config;
    config.engine = MappingEngine::kCpu;
    pipeline_ = std::make_unique<Pipeline>(config);
    const std::string bases = dna_decode_string(genome_);
    pipeline_->build_from_records(
        {{"chrA", bases.substr(0, 12000)}, {"chrB", bases.substr(12000)}});

    for (std::uint32_t version = 1; version <= 5; ++version) {
      path_[version] =
          (dir_ / ("ref_v" + std::to_string(version) + ".bwva")).string();
      write_index_archive(path_[version], pipeline_->reference(),
                          pipeline_->index(), version);
    }
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_variant(const std::string& name,
                            const std::vector<std::uint8_t>& bytes) {
    const std::string path = (dir_ / name).string();
    write_file(path, bytes);
    return path;
  }

  std::filesystem::path dir_;
  std::vector<std::uint8_t> genome_;
  std::vector<FastqRecord> reads_;
  std::unique_ptr<Pipeline> pipeline_;
  std::string path_[6];
};

/// Rewrites the header of `bytes` so every section CRC and the header CRC
/// match the (possibly edited) payloads: what a tamperer who knows the
/// format would do.
void recompute_crcs(std::vector<std::uint8_t>& bytes, const ArchiveInfo& info) {
  std::vector<ArchiveSectionPlan> plans;
  for (const ArchiveSection& section : info.sections) {
    plans.push_back({section.name, section.length,
                     crc32_ieee(std::span<const std::uint8_t>(bytes).subspan(
                         section.offset, section.length))});
  }
  const auto header = render_archive_header(info.version, plans);
  std::copy(header.begin(), header.end(), bytes.begin());
}

const ArchiveSection& section_named(const ArchiveInfo& info, const std::string& name) {
  for (const ArchiveSection& section : info.sections) {
    if (section.name == name) return section;
  }
  throw std::out_of_range("no section " + name);
}

TEST_F(MmapLoadTest, VersionModeMatrixRebuildsIdenticalStructures) {
  for (std::uint32_t version = 1; version <= 5; ++version) {
    for (const LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
      SCOPED_TRACE("v" + std::to_string(version) + " " + load_mode_name(mode));
      const StoredIndex stored = read_index_archive(path_[version], mode);

      // Only v3+ archives can actually be mapped; older formats silently
      // fall back to the deserializing copy path.
      const bool mapped = version >= 3 && mode == LoadMode::kMmap;
      EXPECT_EQ(stored.load_mode,
                mapped ? LoadMode::kMmap : LoadMode::kCopy);
      EXPECT_EQ(stored.backing != nullptr, mapped);

      // The EPR dictionary section exists from v4 on, and must agree with
      // the BWT whichever way it was materialized.
      EXPECT_EQ(stored.epr != nullptr, version >= 4);
      if (stored.epr != nullptr) {
        ASSERT_EQ(stored.epr->size(), stored.index.bwt().symbols.size());
        for (std::size_t i = 0; i < stored.epr->size(); i += 997) {
          EXPECT_EQ(stored.epr->access(i), stored.index.bwt().symbols[i]);
        }
      }

      EXPECT_EQ(stored.reference.concatenated(), genome_);
      EXPECT_EQ(stored.index.bwt().symbols, pipeline_->index().bwt().symbols);
      EXPECT_EQ(stored.index.bwt().primary, pipeline_->index().bwt().primary);
      EXPECT_EQ(stored.index.suffix_array(), pipeline_->index().suffix_array());
      const std::span<const std::uint8_t> pattern(genome_.data() + 500, 28);
      EXPECT_EQ(stored.index.locate(pattern), pipeline_->index().locate(pattern));

      // v2..v4 two-array tables convert to the built table's boundaries;
      // only a v5 mmap load can adopt them.
      const KmerSeedTable* built = pipeline_->index().seed_table();
      const KmerSeedTable* seeds = stored.index.seed_table();
      ASSERT_EQ(seeds != nullptr, version >= 2);
      if (seeds == nullptr) continue;
      ASSERT_EQ(seeds->k(), built->k());
      for (std::uint32_t code = 0; code < built->entries(); ++code) {
        ASSERT_EQ(seeds->interval(code), built->interval(code)) << "code " << code;
      }
      EXPECT_EQ(seeds->heap_size_in_bytes() < seeds->size_in_bytes(),
                version >= 5 && mode == LoadMode::kMmap);
    }
  }
}

TEST_F(MmapLoadTest, VersionModeMatrixProducesByteIdenticalSam) {
  const std::string want = pipeline_->map_records(reads_).sam;
  PipelineConfig config;
  config.engine = MappingEngine::kCpu;
  for (std::uint32_t version = 1; version <= 5; ++version) {
    for (const LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
      SCOPED_TRACE("v" + std::to_string(version) + " " + load_mode_name(mode));
      Pipeline loaded = Pipeline::from_archive(path_[version], config, mode);
      ASSERT_TRUE(loaded.ready());
      EXPECT_EQ(loaded.map_records(reads_).sam, want);
    }
  }
}

TEST_F(MmapLoadTest, V4AndV5MapIdenticallyOnEveryEngine) {
  // The v4 two-array table is converted on load; the v5 boundaries are
  // served as written. Every engine must write the same SAM bytes from both.
  for (const kernels::EngineSpec& spec : kernels::engines()) {
    PipelineConfig config;
    config.engine = spec.engine;
    std::string want;
    for (const std::uint32_t version : {5u, 4u}) {
      for (const LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
        SCOPED_TRACE(std::string(spec.name) + " v" + std::to_string(version) + " " +
                     load_mode_name(mode));
        Pipeline loaded = Pipeline::from_archive(path_[version], config, mode);
        const std::string sam = loaded.map_records(reads_).sam;
        if (want.empty()) want = sam;
        EXPECT_EQ(sam, want);
      }
    }
    EXPECT_NE(want.find("\tchr"), std::string::npos) << spec.name;
  }
}

TEST_F(MmapLoadTest, CrcValidButInconsistentSeedTableIsRejected) {
  // A kmer section edited and re-checksummed passes every CRC, so only the
  // table's own checks stand between it and out-of-bounds SA reads. v5:
  // one boundary past the SA; v4: one interval end past the SA (the parent
  // format's loader checked entry counts only and served it).
  for (const std::uint32_t version : {5u, 4u}) {
    const ArchiveInfo info = read_index_archive_info(path_[version]);
    const ArchiveSection& kmer = section_named(info, "kmer");
    ASSERT_EQ(info.seed_k, pipeline_->index().seed_table()->k());
    const std::size_t entries = pipeline_->index().seed_table()->entries();
    // v5: [head 64][B]; v4: [head 64][lo][count 8, pad to 64][hi].
    const std::size_t entry = version == 5
                                  ? kmer.offset + 64 + 4 * (entries / 2)
                                  : kmer.offset + 64 + 4 * entries + 64 + 4 * (entries / 2);
    auto bytes = read_file(path_[version]);
    const std::uint32_t huge = 0xFFFFFF00u;
    std::memcpy(bytes.data() + entry, &huge, sizeof huge);
    recompute_crcs(bytes, info);
    const std::string path =
        write_variant("tampered_v" + std::to_string(version) + ".bwva", bytes);
    for (const LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
      SCOPED_TRACE("v" + std::to_string(version) + " " + load_mode_name(mode));
      try {
        read_index_archive(path, mode);
        FAIL() << "served a seed table with an entry past the suffix array";
      } catch (const IoError& e) {
        EXPECT_NE(std::string(e.what()).find("kmer section"), std::string::npos) << e.what();
      }
    }
  }
}

TEST_F(MmapLoadTest, MmapRejectsFlippedPayloadByteInEverySection) {
  const auto original = read_file(path_[3]);
  const ArchiveInfo info = read_index_archive_info(path_[3]);
  ASSERT_EQ(info.sections.size(), 6u);
  for (const ArchiveSection& section : info.sections) {
    auto bytes = original;
    bytes[section.offset + section.length / 2] ^= 0x01;
    const std::string path = write_variant(section.name + "_flip.bwva", bytes);
    try {
      read_index_archive(path, LoadMode::kMmap);
      FAIL() << "mmap served a flipped byte in section '" << section.name << "'";
    } catch (const IoError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("checksum"), std::string::npos) << what;
      EXPECT_NE(what.find(section.name), std::string::npos) << what;
    }
  }
}

TEST_F(MmapLoadTest, MmapRejectsTruncatedSectionAndBadHeaderCrc) {
  const auto original = read_file(path_[3]);

  // Cut into the final section's payload: the CRC scan must fail before the
  // loader adopts anything.
  auto clipped = original;
  clipped.resize(original.size() - 16);
  EXPECT_THROW(
      read_index_archive(write_variant("clipped.bwva", clipped), LoadMode::kMmap),
      IoError);

  // Damage inside the section table fails the header CRC.
  auto header = original;
  header[12] ^= 0x01;
  EXPECT_THROW(
      read_index_archive(write_variant("header.bwva", header), LoadMode::kMmap),
      IoError);
}

TEST_F(MmapLoadTest, FootprintSplitsHeapAndMappedDeterministically) {
  const StoredIndex copy = read_index_archive(path_[3], LoadMode::kCopy);
  const IndexFootprint copy_fp = stored_index_footprint(copy);
  EXPECT_EQ(copy_fp.mapped_bytes, 0u);
  EXPECT_GT(copy_fp.heap_bytes, genome_.size());
  EXPECT_EQ(copy_fp.total(), stored_index_bytes(copy));

  const StoredIndex mapped = read_index_archive(path_[3], LoadMode::kMmap);
  const IndexFootprint mapped_fp = stored_index_footprint(mapped);
  EXPECT_GT(mapped_fp.mapped_bytes, 0u);
  // The bulk payloads (text, BWT, SA, bitvector words) live in the mapping;
  // only rank superstructures and the sequence table stay on the heap.
  EXPECT_LT(mapped_fp.heap_bytes, copy_fp.heap_bytes);
  EXPECT_EQ(mapped_fp.total(), stored_index_bytes(mapped));
  // Identical structures => identical combined footprint in both modes.
  EXPECT_EQ(mapped_fp.total(), copy_fp.total());
}

TEST_F(MmapLoadTest, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_load_mode("copy"), LoadMode::kCopy);
  EXPECT_EQ(parse_load_mode("mmap"), LoadMode::kMmap);
  EXPECT_EQ(parse_load_mode("turbo"), std::nullopt);
  EXPECT_EQ(parse_load_mode(""), std::nullopt);
  EXPECT_STREQ(load_mode_name(LoadMode::kCopy), "copy");
  EXPECT_STREQ(load_mode_name(LoadMode::kMmap), "mmap");
}

TEST_F(MmapLoadTest, RegistryMmapModeCountsAndUnmapsOnEviction) {
  const std::string store = (dir_ / "store").string();
  {
    // Seed the store through a copy-mode registry (add() persists archives).
    IndexRegistry seeder(store, IndexRegistry::kDefaultMemoryBudget,
                         LoadMode::kCopy);
    seeder.add("ref", read_index_archive(path_[3], LoadMode::kCopy));
  }

  IndexRegistry registry(store, IndexRegistry::kDefaultMemoryBudget,
                         LoadMode::kMmap);
  EXPECT_EQ(registry.load_mode(), LoadMode::kMmap);
  EXPECT_EQ(registry.loads_mmap(), 0u);
  EXPECT_EQ(registry.mapped_bytes(), 0u);

  const IndexRegistry::Handle handle = registry.acquire("ref");
  EXPECT_EQ(handle->load_mode, LoadMode::kMmap);
  EXPECT_EQ(registry.loads_mmap(), 1u);
  EXPECT_EQ(registry.loads_copy(), 0u);
  EXPECT_GT(registry.mapped_bytes(), 0u);
  EXPECT_EQ(registry.heap_bytes() + registry.mapped_bytes(),
            registry.resident_bytes());
  const RegistryEntry entry = registry.list().front();
  EXPECT_GT(entry.mapped_bytes, 0u);
  EXPECT_EQ(entry.heap_bytes + entry.mapped_bytes, entry.resident_bytes);

  // The mmap-served index answers exactly like the in-memory build.
  PipelineConfig config;
  config.engine = MappingEngine::kCpu;
  EXPECT_EQ(map_records_over(*handle, config, reads_).sam,
            pipeline_->map_records(reads_).sam);

  // Eviction drops the registry's reference; once the last handle dies the
  // mapping goes with it, and the accounting returns to zero immediately.
  EXPECT_TRUE(registry.evict("ref"));
  EXPECT_EQ(registry.mapped_bytes(), 0u);
  EXPECT_EQ(registry.heap_bytes(), 0u);
  EXPECT_EQ(registry.resident_bytes(), 0u);

  // Reacquiring maps it again.
  registry.acquire("ref");
  EXPECT_EQ(registry.loads_mmap(), 2u);
  EXPECT_GT(registry.mapped_bytes(), 0u);
}

TEST_F(MmapLoadTest, RegistryBudgetChargesMappedBytesAtReducedWeight) {
  const std::string store = (dir_ / "budget_store").string();
  const IndexFootprint fp =
      stored_index_footprint(read_index_archive(path_[4], LoadMode::kMmap));
  // Room for TWO weighted mmap charges but well under two full footprints:
  // with mapped bytes charged at 1/kMappedWeight both indexes stay resident,
  // whereas unweighted (copy-style) accounting would evict the first.
  const std::size_t charge =
      fp.heap_bytes + fp.mapped_bytes / IndexRegistry::kMappedWeight;
  const std::size_t budget = 2 * charge + 4096;
  ASSERT_LT(budget, 2 * fp.total());

  {
    IndexRegistry seeder(store, IndexRegistry::kDefaultMemoryBudget,
                         LoadMode::kCopy);
    seeder.add("a", read_index_archive(path_[4], LoadMode::kCopy));
    seeder.add("b", read_index_archive(path_[4], LoadMode::kCopy));
  }
  IndexRegistry registry(store, budget, LoadMode::kMmap);
  registry.acquire("a");
  registry.acquire("b");
  for (const RegistryEntry& entry : registry.list()) {
    EXPECT_TRUE(entry.resident) << entry.name;
    EXPECT_GT(entry.mapped_bytes, 0u) << entry.name;
  }
}

}  // namespace
}  // namespace bwaver
