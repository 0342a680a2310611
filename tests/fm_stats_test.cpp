#include "fmindex/index_stats.hpp"

#include <gtest/gtest.h>

#include "sim/genome_sim.hpp"
#include "test_util.hpp"

namespace bwaver {
namespace {

FmIndex<RrrWaveletOcc> make_index(std::span<const std::uint8_t> text,
                                  RrrParams params = {15, 50}) {
  return FmIndex<RrrWaveletOcc>(text, [params](std::span<const std::uint8_t> bwt) {
    return RrrWaveletOcc(bwt, params);
  });
}

TEST(SequenceStats, UniformSequenceHasMaxEntropy) {
  std::vector<std::uint8_t> codes;
  for (int i = 0; i < 40000; ++i) codes.push_back(static_cast<std::uint8_t>(i % 4));
  const SequenceStats stats = compute_sequence_stats(codes);
  EXPECT_EQ(stats.length, 40000u);
  EXPECT_DOUBLE_EQ(stats.entropy_bits_per_symbol, 2.0);
  EXPECT_DOUBLE_EQ(stats.gc_content, 0.5);
  EXPECT_EQ(stats.runs, 40000u);  // no two adjacent symbols equal
}

TEST(SequenceStats, HomopolymerHasZeroEntropy) {
  const std::vector<std::uint8_t> codes(1000, 2);
  const SequenceStats stats = compute_sequence_stats(codes);
  EXPECT_DOUBLE_EQ(stats.entropy_bits_per_symbol, 0.0);
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_run_length, 1000.0);
  EXPECT_DOUBLE_EQ(stats.gc_content, 1.0);  // all G
}

TEST(SequenceStats, EmptySequence) {
  const SequenceStats stats = compute_sequence_stats({});
  EXPECT_EQ(stats.length, 0u);
  EXPECT_EQ(stats.runs, 0u);
}

TEST(SequenceStats, BaseCountsAreExact) {
  std::vector<std::uint8_t> codes = {0, 0, 1, 2, 2, 2, 3};
  const SequenceStats stats = compute_sequence_stats(codes);
  EXPECT_EQ(stats.base_counts[0], 2u);
  EXPECT_EQ(stats.base_counts[1], 1u);
  EXPECT_EQ(stats.base_counts[2], 3u);
  EXPECT_EQ(stats.base_counts[3], 1u);
}

TEST(IndexStats, BwtIsRunnierThanText) {
  GenomeSimConfig config;
  config.length = 100000;
  config.seed = 800;
  config.repeat_fraction = 0.4;
  const auto genome = simulate_genome(config);
  const auto index = make_index(genome);
  const IndexStats stats = compute_index_stats(index);
  // The BWT groups symbols by context: longer runs than the raw text.
  EXPECT_GT(stats.bwt.mean_run_length, stats.text.mean_run_length);
  EXPECT_EQ(stats.text.length, genome.size());
  EXPECT_EQ(stats.bwt.length, genome.size());
}

TEST(IndexStats, BreakdownSumsToStructureSize) {
  const auto genome = testing::random_symbols(80000, 4, 801);
  const auto index = make_index(genome);
  const IndexStats stats = compute_index_stats(index);
  EXPECT_EQ(stats.structure.total_bytes() - stats.structure.shared_table_bytes,
            index.occ_size_in_bytes());
  EXPECT_GT(stats.structure.offsets_bytes, 0u);
  EXPECT_GT(stats.structure.classes_bytes, 0u);
  // The host-resident suffix array as served: n + 1 entries of
  // suffix_array_width(n) bits, in whole 64-bit words.
  EXPECT_EQ(stats.suffix_array_bytes,
            8 * (((genome.size() + 1) * suffix_array_width(genome.size()) + 63) / 64));
}

TEST(IndexStats, CompressionReportedAgainstRawBwt) {
  // Large enough that the fixed 2^16-byte shared table amortizes (it costs
  // 0.33 B/base at 200 kbp but only 0.07 B/base at 1 Mbp).
  GenomeSimConfig config;
  config.length = 1'000'000;
  config.seed = 802;
  const auto genome = simulate_genome(config);
  const auto index = make_index(genome, {15, 100});
  const IndexStats stats = compute_index_stats(index);
  // The paper reports up to 68.3% savings at b=15, sf=100 (full-size refs).
  EXPECT_GT(stats.saved_vs_raw, 0.5);
  EXPECT_LT(stats.bytes_per_base, 0.5);
  EXPECT_TRUE(stats.fits_on_device);
}

TEST(IndexStats, OversizedStructureReportedAsNotFitting) {
  const auto genome = testing::random_symbols(50000, 4, 803);
  const auto index = make_index(genome);
  DeviceSpec tiny;
  tiny.bram_bytes = 100;
  tiny.uram_bytes = 0;
  const IndexStats stats = compute_index_stats(index, tiny);
  EXPECT_FALSE(stats.fits_on_device);
}

TEST(IndexStats, FormatContainsKeyFigures) {
  const auto genome = testing::random_symbols(30000, 4, 804);
  const auto index = make_index(genome);
  const std::string report = format_index_stats(compute_index_stats(index));
  EXPECT_NE(report.find("reference:"), std::string::npos);
  EXPECT_NE(report.find("BWT runs:"), std::string::npos);
  EXPECT_NE(report.find("shared tables:"), std::string::npos);
  EXPECT_NE(report.find("device fit:"), std::string::npos);
  EXPECT_NE(report.find("30000 bp"), std::string::npos);
}

}  // namespace
}  // namespace bwaver
