// Blockwise-builder correctness: the merged BWT equals the direct BWT for
// every block size (including degenerate and adversarial texts), the
// streamed archive is byte-identical to write_index_archive's output, the
// archive loads under both kCopy and kMmap and maps identical SAM on every
// engine, the planner wiring in Pipeline::build_archive selects blockwise
// under a tight budget, and builder provenance round-trips.
#include "build/blockwise_builder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "build/build_plan.hpp"
#include "fmindex/bwt.hpp"
#include "fmindex/dna.hpp"
#include "io/byte_io.hpp"
#include "kernels/registry.hpp"
#include "mapper/pipeline.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"
#include "store/index_archive.hpp"

#include "test_temp_dir.hpp"
#include "test_util.hpp"

namespace bwaver {
namespace {

ReferenceSet single_sequence(const std::vector<std::uint8_t>& codes) {
  ReferenceSet reference;
  reference.add("seq", codes);
  return reference;
}

/// Direct-path archive through the same entry point the CLI uses (no
/// budget, so plan_build stays direct -> write_index_archive).
void write_direct(const std::string& path, const ReferenceSet& reference,
                  PipelineConfig config = PipelineConfig{}) {
  const BuildArchiveResult result = Pipeline::build_archive(path, reference, config);
  ASSERT_FALSE(result.blockwise);
}

void expect_same_bwt(const ReferenceSet& reference, std::size_t block_bases) {
  const Bwt direct = build_bwt(reference.concatenated().unpack());
  build::BlockwiseConfig config;
  config.block_bases = block_bases;
  build::BlockwiseBuilder builder(reference, config);
  const Bwt merged = builder.build_merged_bwt();
  ASSERT_EQ(merged.text_length, direct.text_length) << "block " << block_bases;
  EXPECT_EQ(merged.primary, direct.primary) << "block " << block_bases;
  ASSERT_EQ(merged.symbols.size(), direct.symbols.size()) << "block " << block_bases;
  for (std::size_t i = 0; i < merged.symbols.size(); ++i) {
    ASSERT_EQ(merged.symbols[i], direct.symbols[i])
        << "block " << block_bases << " symbol " << i;
  }
}

const std::size_t kBlockSweep[] = {1, 2, 3, 5, 7, 13, 64, 97, 1024};

TEST(BlockwiseBwtTest, RandomTextAllBlockSizes) {
  const auto codes = testing::random_symbols(611, 4, 1234);
  const ReferenceSet reference = single_sequence(codes);
  for (const std::size_t block : kBlockSweep) {
    expect_same_bwt(reference, block);
  }
  // Block >= n and block == n - 1 (one tiny trailing block).
  expect_same_bwt(reference, codes.size() - 1);
  expect_same_bwt(reference, codes.size());
  expect_same_bwt(reference, codes.size() + 17);
}

TEST(BlockwiseBwtTest, AllEqualSymbolsText) {
  // Maximally self-similar: every suffix comparison runs to the boundary.
  const std::vector<std::uint8_t> codes(200, 0);
  const ReferenceSet reference = single_sequence(codes);
  for (const std::size_t block : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                                  std::size_t{199}, std::size_t{200}}) {
    expect_same_bwt(reference, block);
  }
}

TEST(BlockwiseBwtTest, PeriodicText) {
  std::vector<std::uint8_t> codes;
  for (int i = 0; i < 120; ++i) {
    codes.push_back(static_cast<std::uint8_t>(i % 3));  // ACGACG...
  }
  const ReferenceSet reference = single_sequence(codes);
  for (const std::size_t block :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7}, std::size_t{40}}) {
    expect_same_bwt(reference, block);
  }
}

TEST(BlockwiseBwtTest, TinyTexts) {
  for (std::size_t n = 1; n <= 6; ++n) {
    const auto codes = testing::random_symbols(n, 4, 99 + n);
    const ReferenceSet reference = single_sequence(codes);
    for (std::size_t block = 1; block <= n + 1; ++block) {
      expect_same_bwt(reference, block);
    }
  }
}

TEST(BlockwiseBwtTest, MultiSequenceReference) {
  ReferenceSet reference;
  reference.add("chrA", testing::random_symbols(300, 4, 5));
  reference.add("chrB", testing::random_symbols(170, 4, 6));
  reference.add("chrC", testing::random_symbols(41, 4, 7));
  for (const std::size_t block :
       {std::size_t{1}, std::size_t{13}, std::size_t{97}, std::size_t{512}}) {
    expect_same_bwt(reference, block);
  }
}

class BlockwiseArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_test_dir("bwaver_build_blockwise");
    reference_.add("chrA", testing::random_symbols(2100, 4, 21));
    reference_.add("chrB", testing::random_symbols(901, 4, 22));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  std::vector<std::uint8_t> blockwise_bytes(build::BlockwiseConfig config,
                                            const std::string& name) {
    build::BlockwiseBuilder builder(reference_, std::move(config));
    builder.build_archive(path(name));
    return read_file(path(name));
  }

  std::filesystem::path dir_;
  ReferenceSet reference_;
};

TEST_F(BlockwiseArchiveTest, ByteIdenticalToDirectAcrossBlockSizes) {
  write_direct(path("direct.bwva"), reference_);
  const auto direct = read_file(path("direct.bwva"));
  const std::size_t n = reference_.total_length();
  for (const std::size_t block :
       {std::size_t{13}, std::size_t{97}, std::size_t{1024}, n - 1, n, n + 17}) {
    build::BlockwiseConfig config;
    config.block_bases = block;
    EXPECT_EQ(blockwise_bytes(config, "bw_" + std::to_string(block) + ".bwva"), direct)
        << "block " << block;
  }
}

TEST_F(BlockwiseArchiveTest, ByteIdenticalWithSpilledSuffixArray) {
  write_direct(path("direct.bwva"), reference_);
  build::BlockwiseConfig config;
  config.block_bases = 499;
  config.sa_chunk_bytes = 1024;  // ~256 rows per chunk -> the spill path
  EXPECT_EQ(blockwise_bytes(config, "spill.bwva"), read_file(path("direct.bwva")));
}

TEST_F(BlockwiseArchiveTest, ByteIdenticalWithoutSeedTable) {
  PipelineConfig direct;
  direct.seed_k = 0;
  write_direct(path("direct.bwva"), reference_, direct);
  build::BlockwiseConfig config;
  config.block_bases = 777;
  config.seed_k = 0;
  EXPECT_EQ(blockwise_bytes(config, "nok.bwva"), read_file(path("direct.bwva")));
  // Without the seed table there is no "kmer" section at all.
  const ArchiveInfo info = read_index_archive_info(path("nok.bwva"));
  for (const auto& section : info.sections) EXPECT_NE(section.name, "kmer");
}

TEST_F(BlockwiseArchiveTest, ByteIdenticalAtFormatV3) {
  // v3 archives (no "epr" section) through the low-level writer.
  const auto sa = build_suffix_array(reference_.concatenated());
  Bwt bwt = build_bwt(reference_.concatenated(), sa);
  auto seeds = std::make_shared<const KmerSeedTable>(
      KmerSeedTable::build(reference_.concatenated(), std::nullopt));
  FmIndex<RrrWaveletOcc> index(
      std::move(bwt), sa, [](std::span<const std::uint8_t> symbols) {
        return RrrWaveletOcc(symbols, RrrParams{});
      });
  index.set_seed_table(std::move(seeds));
  write_index_archive(path("direct.bwva"), reference_, index, /*format_version=*/3);

  build::BlockwiseConfig config;
  config.block_bases = 613;
  config.format_version = 3;
  EXPECT_EQ(blockwise_bytes(config, "v3.bwva"), read_file(path("direct.bwva")));
}

TEST_F(BlockwiseArchiveTest, WritesV6ByDefaultAndV5OnRequest) {
  // The default is the packed v6 layout (its suffix array streamed a word
  // at a time, across spill chunks here); v5 still streams byte text, a
  // raw BWT and 4-byte suffix-array rows. Each is the direct writer's file.
  write_direct(path("direct.bwva"), reference_);
  build::BlockwiseConfig config;
  config.block_bases = 499;
  config.sa_chunk_bytes = 1000;  // 250 rows per chunk: no chunk ends on a word
  EXPECT_EQ(blockwise_bytes(config, "v6.bwva"), read_file(path("direct.bwva")));
  const ArchiveInfo v6 = read_index_archive_info(path("v6.bwva"));
  EXPECT_EQ(v6.version, 6u);
  EXPECT_EQ(v6.sa_width, suffix_array_width(reference_.total_length()));

  const auto sa = build_suffix_array(reference_.concatenated());
  FmIndex<RrrWaveletOcc> index(build_bwt(reference_.concatenated(), sa), sa,
                               [](std::span<const std::uint8_t> symbols) {
                                 return RrrWaveletOcc(symbols, RrrParams{});
                               });
  index.set_seed_table(std::make_shared<const KmerSeedTable>(
      KmerSeedTable::build(reference_.concatenated(), std::nullopt)));
  write_index_archive(path("direct_v5.bwva"), reference_, index, /*format_version=*/5);
  config.format_version = 5;
  EXPECT_EQ(blockwise_bytes(config, "v5.bwva"), read_file(path("direct_v5.bwva")));
  EXPECT_EQ(read_index_archive_info(path("v5.bwva")).version, 5u);
}

TEST_F(BlockwiseArchiveTest, BudgetedPipelineBuildSelectsBlockwiseAndMatches) {
  write_direct(path("direct.bwva"), reference_);

  PipelineConfig config;
  // Between the blockwise floor and the direct estimate: forces blockwise.
  const std::size_t n = reference_.total_length();
  const unsigned k = KmerSeedTable::budget_k(n);
  config.build_memory_budget_bytes = build::blockwise_build_peak_bytes(n, 64, k) + 1024;
  ASSERT_GT(build::direct_build_peak_bytes(n, k), config.build_memory_budget_bytes);
  std::vector<std::string> progress;
  const BuildArchiveResult result = Pipeline::build_archive(
      path("budget.bwva"), reference_, config,
      [&progress](const std::string& line) { progress.push_back(line); });
  EXPECT_TRUE(result.blockwise);
  EXPECT_GE(result.block_bases, 1u);
  EXPECT_GT(result.merge_passes, 0u);
  EXPECT_EQ(result.bytes_written, std::filesystem::file_size(path("budget.bwva")));
  EXPECT_FALSE(progress.empty());
  EXPECT_EQ(read_file(path("budget.bwva")), read_file(path("direct.bwva")));
}

TEST_F(BlockwiseArchiveTest, ProvenanceRoundTrips) {
  build::BlockwiseConfig config;
  config.block_bases = 500;
  config.memory_budget_bytes = std::size_t{160} << 20;
  config.write_provenance = true;
  build::BlockwiseBuilder builder(reference_, config);
  const build::BlockwiseStats stats = builder.build_archive(path("prov.bwva"));

  const ArchiveInfo info = read_index_archive_info(path("prov.bwva"));
  ASSERT_TRUE(info.build.has_value());
  EXPECT_EQ(info.build->builder, "blockwise");
  EXPECT_EQ(info.build->block_bases, 500u);
  EXPECT_EQ(info.build->merge_passes, stats.merge_passes);
  EXPECT_EQ(info.build->memory_budget_bytes, std::size_t{160} << 20);

  // The full loader ignores the extra section and still validates.
  const StoredIndex loaded = read_index_archive(path("prov.bwva"), LoadMode::kCopy);
  EXPECT_EQ(loaded.reference.total_length(), reference_.total_length());

  // Direct builds record provenance too, and archives without it report none.
  PipelineConfig direct;
  direct.build_provenance = true;
  Pipeline::build_archive(path("direct_prov.bwva"), reference_, direct);
  const ArchiveInfo direct_info = read_index_archive_info(path("direct_prov.bwva"));
  ASSERT_TRUE(direct_info.build.has_value());
  EXPECT_EQ(direct_info.build->builder, "direct");

  write_direct(path("plain.bwva"), reference_);
  EXPECT_FALSE(read_index_archive_info(path("plain.bwva")).build.has_value());
}

// End-to-end: a blockwise archive loads under both modes and maps reads to
// byte-identical SAM on every registered engine.
class BlockwiseMappingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_test_dir("bwaver_build_blockwise_map");

    GenomeSimConfig gconfig;
    gconfig.length = 9000;
    gconfig.seed = 31;
    genome_ = simulate_genome(gconfig);

    ReadSimConfig rconfig;
    rconfig.num_reads = 120;
    rconfig.read_length = 40;
    rconfig.mapping_ratio = 0.7;
    reads_ = reads_to_fastq(simulate_reads(genome_, rconfig));

    reference_.add("chr", genome_);
    direct_path_ = (dir_ / "direct.bwva").string();
    blockwise_path_ = (dir_ / "blockwise.bwva").string();
    write_direct(direct_path_, reference_);
    build::BlockwiseConfig config;
    config.block_bases = 997;
    build::BlockwiseBuilder builder(reference_, config);
    builder.build_archive(blockwise_path_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string map_sam(const std::string& archive, MappingEngine engine, LoadMode mode) {
    PipelineConfig config;
    config.engine = engine;
    Pipeline pipeline = Pipeline::from_archive(archive, config, mode);
    return pipeline.map_records(reads_).sam;
  }

  std::filesystem::path dir_;
  std::vector<std::uint8_t> genome_;
  std::vector<FastqRecord> reads_;
  ReferenceSet reference_;
  std::string direct_path_;
  std::string blockwise_path_;
};

TEST_F(BlockwiseMappingTest, IdenticalSamOnEveryEngine) {
  ASSERT_EQ(read_file(blockwise_path_), read_file(direct_path_));
  for (const auto& spec : kernels::engines()) {
    const std::string direct_sam = map_sam(direct_path_, spec.engine, LoadMode::kCopy);
    EXPECT_FALSE(direct_sam.empty()) << spec.name;
    EXPECT_EQ(map_sam(blockwise_path_, spec.engine, LoadMode::kCopy), direct_sam)
        << spec.name;
  }
}

TEST_F(BlockwiseMappingTest, LoadsUnderCopyAndMmap) {
  const std::string copy_sam =
      map_sam(blockwise_path_, MappingEngine::kCpu, LoadMode::kCopy);
  const std::string mmap_sam =
      map_sam(blockwise_path_, MappingEngine::kCpu, LoadMode::kMmap);
  EXPECT_EQ(mmap_sam, copy_sam);
  EXPECT_EQ(map_sam(blockwise_path_, MappingEngine::kEpr, LoadMode::kMmap),
            map_sam(direct_path_, MappingEngine::kEpr, LoadMode::kCopy));
}

}  // namespace
}  // namespace bwaver
