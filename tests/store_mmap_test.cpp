// Load-mode tests for the v3+ zero-copy archive path: the full
// version x mode matrix (v1..v6, copy/mmap) must produce identical
// structures and byte-identical SAM on every engine (v4's two-array seed
// table against v5's boundaries, v5's byte text and 4-byte suffix array
// against v6's packed ones); corruption must be rejected at open in mmap
// mode too, including a seed table or a v6 layout field whose CRCs were
// recomputed; a suffix-array entry past the text is never followed; and the
// heap/mapped footprint split must be deterministic so registry budgets and
// /references stay truthful.
#include "store/index_archive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
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

    for (std::uint32_t version = 1; version <= kArchiveVersionLatest; ++version) {
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
  std::string path_[kArchiveVersionLatest + 1];
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
  const auto& built_bwt = pipeline_->index().bwt().symbols;
  for (std::uint32_t version = 1; version <= kArchiveVersionLatest; ++version) {
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
      // the BWT whichever way it was materialized; from v6 on it is the
      // only copy of the symbols.
      EXPECT_EQ(stored.epr != nullptr, version >= 4);
      if (stored.epr != nullptr) {
        ASSERT_EQ(stored.epr->size(), stored.index.size());
        for (std::size_t i = 0; i < stored.epr->size(); i += 997) {
          EXPECT_EQ(stored.epr->access(i), built_bwt[i]);
        }
      }
      if (version >= 6) {
        EXPECT_TRUE(stored.index.bwt().symbols.empty());
        EXPECT_EQ(stored.epr->symbols(), built_bwt);
      } else {
        EXPECT_EQ(stored.index.bwt().symbols, built_bwt);
      }

      // One served layout: the text at 2 bits and the suffix array at
      // suffix_array_width(n) bits, adopted in place only from a mapped v6
      // archive (older ones are packed onto the heap at load).
      EXPECT_EQ(stored.reference.concatenated(), genome_);
      EXPECT_EQ(stored.index.suffix_array().width(), suffix_array_width(genome_.size()));
      const bool adopted = version >= 6 && mode == LoadMode::kMmap;
      EXPECT_EQ(stored.reference.concatenated().heap_size_in_bytes() == 0, adopted);
      EXPECT_EQ(stored.index.suffix_array().heap_size_in_bytes() == 0, adopted);
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
  for (std::uint32_t version = 1; version <= kArchiveVersionLatest; ++version) {
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

TEST_F(MmapLoadTest, EveryVersionAndModeMapsIdenticallyOnEveryEngine) {
  // v1..v5 sections are converted (text, suffix array) or viewed at their
  // own width (bwt); v6 is served as stored, and its `sampled` engine
  // decodes the BWT from the "epr" section. Every engine must write the
  // in-memory build's SAM from all of them.
  for (const kernels::EngineSpec& spec : kernels::engines()) {
    PipelineConfig config;
    config.engine = spec.engine;
    const std::string want = pipeline_->map_records(reads_).sam;
    for (std::uint32_t version = 1; version <= kArchiveVersionLatest; ++version) {
      for (const LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
        SCOPED_TRACE(std::string(spec.name) + " v" + std::to_string(version) + " " +
                     load_mode_name(mode));
        Pipeline loaded = Pipeline::from_archive(path_[version], config, mode);
        EXPECT_EQ(loaded.map_records(reads_).sam, want);
      }
    }
  }
}

TEST_F(MmapLoadTest, OlderVersionsStillWriteTheirOwnLayout) {
  // write_index_archive(..., 5) writes v5: byte text, 4-byte suffix array
  // and a raw BWT section; v6 drops the BWT and packs the other two.
  const ArchiveInfo v5 = read_index_archive_info(path_[5]);
  EXPECT_EQ(v5.version, 5u);
  EXPECT_EQ(v5.text_bits, 8u);
  EXPECT_EQ(v5.sa_width, 32u);
  EXPECT_NO_THROW(section_named(v5, "bwt"));
  EXPECT_EQ(section_named(v5, "sa").length, 64 + 4 * (genome_.size() + 1));

  const ArchiveInfo v6 = read_index_archive_info(path_[6]);
  EXPECT_EQ(v6.version, 6u);
  EXPECT_EQ(v6.text_bits, 2u);
  EXPECT_EQ(v6.sa_width, suffix_array_width(genome_.size()));
  EXPECT_THROW(section_named(v6, "bwt"), std::out_of_range);
  EXPECT_EQ(read_index_archive(path_[6], LoadMode::kCopy).index.bwt().primary,
            pipeline_->index().bwt().primary);
  EXPECT_EQ(section_named(v6, "sa").length,
            64 + 8 * (((genome_.size() + 1) * v6.sa_width + 63) / 64));
  EXPECT_EQ(section_named(v6, "text").length, 64 + 8 * ((genome_.size() + 31) / 32));
}

TEST_F(MmapLoadTest, CrcValidButInconsistentV6LayoutIsRejected) {
  // Each edit is re-checksummed, so only the loader's own checks stand
  // between it and a misread section: the suffix-array width, its entry
  // count, the text's base count, the primary row, and the required "epr".
  const ArchiveInfo info = read_index_archive_info(path_[6]);
  const ArchiveSection& meta = section_named(info, "meta");
  const ArchiveSection& text = section_named(info, "text");
  const ArchiveSection& sa = section_named(info, "sa");
  const std::uint64_t n = genome_.size();
  const auto put_u32 = [](std::vector<std::uint8_t>& bytes, std::uint64_t at,
                          std::uint32_t value) { std::memcpy(bytes.data() + at, &value, 4); };
  const auto put_u64 = [](std::vector<std::uint8_t>& bytes, std::uint64_t at,
                          std::uint64_t value) { std::memcpy(bytes.data() + at, &value, 8); };
  struct Case {
    const char* name;
    std::function<void(std::vector<std::uint8_t>&)> edit;
  };
  const Case cases[] = {
      {"sa width", [&](auto& b) { put_u32(b, sa.offset + 8, info.sa_width - 1); }},
      {"sa count", [&](auto& b) { put_u64(b, sa.offset, n); }},
      {"text count", [&](auto& b) { put_u64(b, text.offset, n - 1); }},
      {"primary row", [&](auto& b) {
         put_u32(b, meta.offset + meta.length - 4, static_cast<std::uint32_t>(n + 1));
       }},
  };
  for (const Case& c : cases) {
    auto bytes = read_file(path_[6]);
    c.edit(bytes);
    recompute_crcs(bytes, info);
    const std::string path = write_variant(std::string("v6_") + c.name + ".bwva", bytes);
    for (const LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
      SCOPED_TRACE(std::string(c.name) + " " + load_mode_name(mode));
      EXPECT_THROW(read_index_archive(path, mode), IoError);
    }
  }

  // No "epr" section: renamed in the table (same length, so every offset
  // stays put), which leaves the v6 archive without its only BWT symbols.
  ArchiveInfo renamed = info;
  for (ArchiveSection& section : renamed.sections) {
    if (section.name == "epr") section.name = "epx";
  }
  auto bytes = read_file(path_[6]);
  recompute_crcs(bytes, renamed);
  const std::string path = write_variant("v6_no_epr.bwva", bytes);
  for (const LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
    SCOPED_TRACE(std::string("no epr ") + load_mode_name(mode));
    try {
      read_index_archive(path, mode);
      FAIL() << "served a v6 archive without its epr section";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("missing section 'epr'"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(MmapLoadTest, SuffixArrayEntriesPastTheTextAreNeverFollowed) {
  // Every suffix-array entry set to 2^w - 1 (w = suffix_array_width(n)),
  // past the text, CRCs recomputed: v6 all ones at its width, v5 the
  // largest 4-byte value the served width holds. Both load (a v6 load
  // decodes no entry); mapping must then bound every entry where it is
  // used — the one-row text compare and locate — and report every read
  // unmapped, with no out-of-bounds read (the ASan job runs this).
  const std::uint32_t past = (1u << suffix_array_width(genome_.size())) - 1;
  ASSERT_GT(past, genome_.size());
  for (const std::uint32_t version : {5u, 6u}) {
    const ArchiveInfo info = read_index_archive_info(path_[version]);
    const ArchiveSection& sa = section_named(info, "sa");
    auto bytes = read_file(path_[version]);
    if (version >= 6) {
      const std::uint64_t words = ((genome_.size() + 1) * info.sa_width + 63) / 64;
      std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(sa.offset + 64),
                  static_cast<std::ptrdiff_t>(8 * words), std::uint8_t{0xFF});
    } else {
      for (std::uint64_t row = 0; row <= genome_.size(); ++row) {
        std::memcpy(bytes.data() + sa.offset + 64 + 4 * row, &past, 4);
      }
    }
    recompute_crcs(bytes, info);
    const std::string path =
        write_variant("sa_past_text_v" + std::to_string(version) + ".bwva", bytes);
    for (const kernels::EngineSpec& spec : kernels::engines()) {
      for (const LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
        SCOPED_TRACE(std::string(spec.name) + " v" + std::to_string(version) + " " +
                     load_mode_name(mode));
        PipelineConfig config;
        config.engine = spec.engine;
        Pipeline loaded = Pipeline::from_archive(path, config, mode);
        const MappingOutcome outcome = loaded.map_records(reads_);
        EXPECT_EQ(outcome.reads, reads_.size());
        EXPECT_EQ(outcome.mapped, 0u);
      }
    }
  }
}

TEST_F(MmapLoadTest, TooWideSuffixArrayEntryInAFourByteArchiveIsRejected) {
  // A v1..v5 entry is 4 bytes; one at or above 2^w cannot be served at the
  // packed width w, and cutting it to its low w bits would turn it into a
  // wrong position inside the text. Here the low bits are 5, a valid
  // position, so only the load's check stands between it and a wrong hit.
  const unsigned width = suffix_array_width(genome_.size());
  const std::uint32_t too_wide = (1u << width) | 5u;
  for (const std::uint32_t version : {2u, 5u}) {
    const ArchiveInfo info = read_index_archive_info(path_[version]);
    const ArchiveSection& sa = section_named(info, "sa");
    // v2: [u64 count][entries]; v5: [u64 count, pad to 64][entries].
    const std::uint64_t first_entry = sa.offset + (version >= 3 ? 64 : 8);
    auto bytes = read_file(path_[version]);
    std::memcpy(bytes.data() + first_entry + 4 * (genome_.size() / 2), &too_wide, 4);
    recompute_crcs(bytes, info);
    const std::string path =
        write_variant("sa_too_wide_v" + std::to_string(version) + ".bwva", bytes);
    for (const LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
      SCOPED_TRACE("v" + std::to_string(version) + " " + load_mode_name(mode));
      try {
        read_index_archive(path, mode);
        FAIL() << "served a suffix-array entry wider than " << width << " bits";
      } catch (const IoError& e) {
        EXPECT_NE(std::string(e.what()).find("does not fit in " + std::to_string(width)),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST_F(MmapLoadTest, WritingAnIndexLoadedFromV6IsRefused) {
  // A v6 load holds no raw BWT, and every format writes its "epr" (and
  // v1..v5 its "bwt") section from it.
  const StoredIndex stored = read_index_archive(path_[6], LoadMode::kCopy);
  const std::string out = (dir_ / "rewritten.bwva").string();
  EXPECT_THROW(write_index_archive(out, stored.reference, stored.index), std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(out));
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
