// Archive format tests: round-trip fidelity (byte-identical SAM against the
// in-memory build), the `index info` header path, and rejection of every
// corruption mode — truncation, bad magic, unsupported version, header
// damage, and a single flipped bit in each payload section.
#include "store/index_archive.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "fmindex/dna.hpp"
#include "io/byte_io.hpp"
#include "mapper/pipeline.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"

#include "test_temp_dir.hpp"

namespace bwaver {
namespace {

class ArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_test_dir("bwaver_store_archive_test");

    GenomeSimConfig gconfig;
    gconfig.length = 24000;
    gconfig.seed = 29;
    genome_ = simulate_genome(gconfig);

    ReadSimConfig rconfig;
    rconfig.num_reads = 150;
    rconfig.read_length = 45;
    rconfig.mapping_ratio = 0.6;
    reads_ = reads_to_fastq(simulate_reads(genome_, rconfig));

    // Two chromosomes so the sequence table is non-trivial.
    PipelineConfig config;
    config.engine = MappingEngine::kCpu;
    pipeline_ = std::make_unique<Pipeline>(config);
    const std::string bases = dna_decode_string(genome_);
    pipeline_->build_from_records(
        {{"chrA", bases.substr(0, 15000)}, {"chrB", bases.substr(15000)}});

    archive_path_ = (dir_ / "ref.bwva").string();
    pipeline_->save_index(archive_path_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes `bytes` to a scratch archive and returns its path.
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
  std::string archive_path_;
};

TEST_F(ArchiveTest, RoundTripProducesIdenticalSam) {
  const MappingOutcome in_memory = pipeline_->map_records(reads_);

  PipelineConfig config;
  config.engine = MappingEngine::kCpu;
  Pipeline loaded = Pipeline::from_archive(archive_path_, config);
  ASSERT_TRUE(loaded.ready());
  const MappingOutcome from_disk = loaded.map_records(reads_);

  EXPECT_EQ(from_disk.reads, in_memory.reads);
  EXPECT_EQ(from_disk.mapped, in_memory.mapped);
  EXPECT_EQ(from_disk.occurrences, in_memory.occurrences);
  EXPECT_EQ(from_disk.sam, in_memory.sam);
}

TEST_F(ArchiveTest, RoundTripRebuildsIdenticalStructures) {
  const StoredIndex stored = read_index_archive(archive_path_);
  ASSERT_EQ(stored.reference.num_sequences(), 2u);
  EXPECT_EQ(stored.reference.sequence(0).name, "chrA");
  EXPECT_EQ(stored.reference.sequence(1).name, "chrB");
  // v3 stores the text flat; v1/v2 recover it from the BWT. Either way it
  // must round-trip exactly.
  EXPECT_EQ(stored.reference.concatenated(), genome_);
  // v6 stores no raw BWT: its symbols are the EPR dictionary's.
  EXPECT_TRUE(stored.index.bwt().symbols.empty());
  ASSERT_NE(stored.epr, nullptr);
  EXPECT_EQ(stored.epr->symbols(), pipeline_->index().bwt().symbols);
  EXPECT_EQ(stored.index.bwt().primary, pipeline_->index().bwt().primary);
  EXPECT_EQ(stored.index.suffix_array(), pipeline_->index().suffix_array());
  EXPECT_EQ(stored.index.suffix_array().width(), suffix_array_width(genome_.size()));

  const std::span<const std::uint8_t> pattern(genome_.data() + 1000, 30);
  EXPECT_EQ(stored.index.locate(pattern), pipeline_->index().locate(pattern));
}

TEST_F(ArchiveTest, InfoListsVersionedCheckedSections) {
  const ArchiveInfo info = read_index_archive_info(archive_path_);
  EXPECT_EQ(info.version, kArchiveVersionLatest);
  EXPECT_EQ(info.file_bytes, std::filesystem::file_size(archive_path_));
  ASSERT_EQ(info.sections.size(), 6u);
  EXPECT_EQ(info.sections[0].name, "meta");
  EXPECT_EQ(info.sections[1].name, "text");
  EXPECT_EQ(info.sections[2].name, "occ");
  EXPECT_EQ(info.sections[3].name, "sa");
  EXPECT_EQ(info.sections[4].name, "kmer");
  EXPECT_EQ(info.sections[5].name, "epr");
  EXPECT_EQ(info.text_bits, 2u);
  EXPECT_EQ(info.sa_width, suffix_array_width(genome_.size()));
  // v3 payload offsets are 64-byte aligned, ascending, non-overlapping, and
  // the last payload ends exactly at the file size.
  for (std::size_t i = 0; i < info.sections.size(); ++i) {
    EXPECT_EQ(info.sections[i].offset % 64, 0u) << info.sections[i].name;
    if (i > 0) {
      EXPECT_GE(info.sections[i].offset,
                info.sections[i - 1].offset + info.sections[i - 1].length);
    }
  }
  EXPECT_EQ(info.sections.back().offset + info.sections.back().length,
            info.file_bytes);
  EXPECT_EQ(info.text_length, genome_.size());
  ASSERT_EQ(info.sequences.size(), 2u);
  EXPECT_EQ(info.sequences[0].name, "chrA");
  EXPECT_EQ(info.sequences[1].length, genome_.size() - 15000);
}

TEST_F(ArchiveTest, SingleBitFlipInEachSectionIsRejected) {
  const auto original = read_file(archive_path_);
  const ArchiveInfo info = read_index_archive_info(archive_path_);
  for (const ArchiveSection& section : info.sections) {
    auto bytes = original;
    bytes[section.offset + section.length / 2] ^= 0x01;
    const std::string path = write_variant(section.name + "_flip.bwva", bytes);
    try {
      read_index_archive(path);
      FAIL() << "bit flip in section '" << section.name << "' was accepted";
    } catch (const IoError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("checksum"), std::string::npos) << what;
      EXPECT_NE(what.find(section.name), std::string::npos) << what;
    }
  }
}

TEST_F(ArchiveTest, CorruptSectionTableIsRejected) {
  // Byte 9 is inside the section-count field: the flip makes the count
  // implausible, and any other header damage fails the header CRC.
  auto bytes = read_file(archive_path_);
  bytes[9] ^= 0x01;
  EXPECT_THROW(read_index_archive(write_variant("header_flip.bwva", bytes)),
               IoError);

  auto crc_bytes = read_file(archive_path_);
  crc_bytes[12] ^= 0x01;  // first byte of the section table itself
  EXPECT_THROW(read_index_archive(write_variant("table_flip.bwva", crc_bytes)),
               IoError);
}

TEST_F(ArchiveTest, TruncationIsRejected) {
  const auto original = read_file(archive_path_);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{6}, original.size() / 2, original.size() - 1}) {
    auto bytes = original;
    bytes.resize(keep);
    const std::string path = write_variant("trunc.bwva", bytes);
    EXPECT_THROW(read_index_archive(path), IoError) << "kept " << keep << " bytes";
    EXPECT_THROW(read_index_archive_info(path), IoError) << "kept " << keep;
  }
}

TEST_F(ArchiveTest, BadMagicIsRejected) {
  auto bytes = read_file(archive_path_);
  bytes[0] ^= 0xFF;
  try {
    read_index_archive(write_variant("magic.bwva", bytes));
    FAIL() << "bad magic accepted";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
  }
}

TEST_F(ArchiveTest, UnsupportedVersionIsRejected) {
  auto bytes = read_file(archive_path_);
  bytes[4] = 99;  // version u32 lives at offset 4
  try {
    read_index_archive(write_variant("version.bwva", bytes));
    FAIL() << "future version accepted";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 99"), std::string::npos)
        << e.what();
  }
}

TEST_F(ArchiveTest, V1ArchiveWithoutSeedTableStillLoads) {
  // A pre-seed-table archive must keep loading; its searches simply fall
  // back to the classic recurrence — with identical results.
  const std::string v1_path = (dir_ / "legacy_v1.bwva").string();
  write_index_archive(v1_path, pipeline_->reference(), pipeline_->index(),
                      kArchiveVersionMin);

  const ArchiveInfo info = read_index_archive_info(v1_path);
  EXPECT_EQ(info.version, kArchiveVersionMin);
  ASSERT_EQ(info.sections.size(), 4u);  // no "kmer" section in v1

  const StoredIndex stored = read_index_archive(v1_path);
  EXPECT_EQ(stored.index.seed_table(), nullptr);
  EXPECT_NE(pipeline_->index().seed_table(), nullptr);

  const std::span<const std::uint8_t> pattern(genome_.data() + 500, 36);
  EXPECT_EQ(stored.index.count(pattern), pipeline_->index().count(pattern));
  EXPECT_EQ(stored.index.locate(pattern), pipeline_->index().locate(pattern));
}

TEST_F(ArchiveTest, SeedTableRoundTripsThroughArchive) {
  const KmerSeedTable* built = pipeline_->index().seed_table();
  ASSERT_NE(built, nullptr);
  const StoredIndex stored = read_index_archive(archive_path_);
  const KmerSeedTable* loaded = stored.index.seed_table();
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->k(), built->k());
  EXPECT_EQ(loaded->entries(), built->entries());

  // Every k-mer of the genome must resolve to the same interval through
  // the loaded table as through the freshly built one.
  const unsigned k = built->k();
  for (std::size_t pos = 0; pos + k <= genome_.size(); pos += 97) {
    const std::span<const std::uint8_t> kmer(genome_.data() + pos, k);
    EXPECT_EQ(loaded->lookup(kmer), built->lookup(kmer)) << "pos " << pos;
  }
}

TEST_F(ArchiveTest, MissingFileThrows) {
  EXPECT_THROW(read_index_archive((dir_ / "nope.bwva").string()), IoError);
}

TEST_F(ArchiveTest, SaveBeforeBuildThrows) {
  Pipeline empty;
  EXPECT_THROW(empty.save_index((dir_ / "empty.bwva").string()), std::logic_error);
}

}  // namespace
}  // namespace bwaver
