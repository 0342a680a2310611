#include "mapper/paired_end.hpp"

#include <gtest/gtest.h>

#include "sim/genome_sim.hpp"

namespace bwaver {
namespace {

class PairedEndTest : public ::testing::Test {
 protected:
  PairedEndTest() {
    GenomeSimConfig config;
    config.length = 80000;
    config.seed = 700;
    config.repeat_fraction = 0.0;  // keep loci unique for crisp assertions
    genome_ = simulate_genome(config);
    reference_.add("chrT", genome_);
    index_ = std::make_unique<FmIndex<RrrWaveletOcc>>(
        genome_, [](std::span<const std::uint8_t> bwt) {
          return RrrWaveletOcc(bwt, RrrParams{15, 50});
        });
  }

  std::vector<std::uint8_t> genome_;
  ReferenceSet reference_;
  std::unique_ptr<FmIndex<RrrWaveletOcc>> index_;
};

TEST_F(PairedEndTest, SimulatedPairsHaveFrStructure) {
  const auto pairs = simulate_read_pairs(genome_, 100, 50, 300, 50, 1);
  ASSERT_EQ(pairs.size(), 100u);
  for (const auto& pair : pairs) {
    ASSERT_EQ(pair.mate1.size(), 50u);
    ASSERT_EQ(pair.mate2.size(), 50u);
    ASSERT_GE(pair.insert_size, 250u);
    ASSERT_LE(pair.insert_size, 350u);
    // Mate 1 is the fragment head on the forward strand.
    for (std::size_t k = 0; k < 50; ++k) {
      ASSERT_EQ(pair.mate1[k], genome_[pair.fragment_start + k]);
    }
    // Mate 2 is the revcomp of the fragment tail.
    const auto tail = dna_reverse_complement(pair.mate2);
    const std::size_t tail_start = pair.fragment_start + pair.insert_size - 50;
    for (std::size_t k = 0; k < 50; ++k) {
      ASSERT_EQ(tail[k], genome_[tail_start + k]);
    }
  }
}

TEST_F(PairedEndTest, ProperPairsRecovered) {
  const auto sim = simulate_read_pairs(genome_, 200, 50, 300, 50, 2);
  ReadBatch mates1, mates2;
  for (const auto& pair : sim) {
    mates1.add(pair.mate1);
    mates2.add(pair.mate2);
  }
  PairedEndConfig config;
  config.min_insert = 200;
  config.max_insert = 400;
  const auto pairs = map_pairs(*index_, reference_, mates1, mates2, config, 2);
  ASSERT_EQ(pairs.size(), sim.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(pairs[i].pair_class, PairClass::kProperPair) << "pair " << i;
    EXPECT_EQ(pairs[i].sequence_index, 0u);
    EXPECT_EQ(pairs[i].mate1_pos, sim[i].fragment_start);
    EXPECT_EQ(pairs[i].insert_size, sim[i].insert_size);
    EXPECT_TRUE(pairs[i].mate1_is_forward);
  }
}

TEST_F(PairedEndTest, InsertWindowRejectsOutliers) {
  const auto sim = simulate_read_pairs(genome_, 50, 50, 600, 0, 3);
  ReadBatch mates1, mates2;
  for (const auto& pair : sim) {
    mates1.add(pair.mate1);
    mates2.add(pair.mate2);
  }
  PairedEndConfig tight;
  tight.min_insert = 100;
  tight.max_insert = 300;  // true insert is 600
  const auto pairs = map_pairs(*index_, reference_, mates1, mates2, tight);
  for (const auto& pair : pairs) {
    EXPECT_EQ(pair.pair_class, PairClass::kDiscordant);
  }
}

TEST_F(PairedEndTest, WrongOrientationIsDiscordant) {
  // Both mates on the forward strand (FF): never a proper pair.
  ReadBatch mates1, mates2;
  std::vector<std::uint8_t> head(genome_.begin() + 1000, genome_.begin() + 1050);
  std::vector<std::uint8_t> tail(genome_.begin() + 1250, genome_.begin() + 1300);
  mates1.add(head);
  mates2.add(tail);  // forward orientation, not revcomp
  const auto pairs = map_pairs(*index_, reference_, mates1, mates2, PairedEndConfig{});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].pair_class, PairClass::kDiscordant);
}

TEST_F(PairedEndTest, UnmappedMatesClassified) {
  std::vector<std::uint8_t> real(genome_.begin() + 5000, genome_.begin() + 5050);
  std::vector<std::uint8_t> junk(50);
  for (std::size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<std::uint8_t>((i * 2654435761u >> 3) & 3);
  }
  {
    ReadBatch mates1, mates2;
    mates1.add(real);
    mates2.add(junk);
    const auto pairs = map_pairs(*index_, reference_, mates1, mates2, PairedEndConfig{});
    EXPECT_EQ(pairs[0].pair_class, PairClass::kOneUnmapped);
  }
  {
    ReadBatch mates1, mates2;
    mates1.add(junk);
    mates2.add(junk);
    const auto pairs = map_pairs(*index_, reference_, mates1, mates2, PairedEndConfig{});
    EXPECT_EQ(pairs[0].pair_class, PairClass::kUnmapped);
  }
}

TEST_F(PairedEndTest, SwappedMatesStillPair) {
  // If mate1 happens to be the reverse-strand mate, the pairing logic must
  // accept the symmetric combination.
  const auto sim = simulate_read_pairs(genome_, 20, 50, 300, 0, 4);
  ReadBatch mates1, mates2;
  for (const auto& pair : sim) {
    mates1.add(pair.mate2);  // swapped on purpose
    mates2.add(pair.mate1);
  }
  PairedEndConfig config;
  config.min_insert = 200;
  config.max_insert = 400;
  const auto pairs = map_pairs(*index_, reference_, mates1, mates2, config);
  for (const auto& pair : pairs) {
    ASSERT_EQ(pair.pair_class, PairClass::kProperPair);
    EXPECT_FALSE(pair.mate1_is_forward);
  }
}

TEST_F(PairedEndTest, CrossChromosomePairsAreDiscordant) {
  ReferenceSet two;
  two.add("c1", std::span<const std::uint8_t>(genome_.data(), 40000));
  two.add("c2", std::span<const std::uint8_t>(genome_.data() + 40000, 40000));
  const FmIndex<RrrWaveletOcc> index(
      two.concatenated().unpack(), [](std::span<const std::uint8_t> bwt) {
        return RrrWaveletOcc(bwt, RrrParams{15, 50});
      });
  // Mate1 near the end of c1; "mate2" revcomp'd from the start of c2 so the
  // naive global-coordinate insert would look proper.
  std::vector<std::uint8_t> m1(genome_.begin() + 39900, genome_.begin() + 39950);
  const auto m2 = dna_reverse_complement(
      std::span<const std::uint8_t>(genome_.data() + 40050, 50));
  ReadBatch mates1, mates2;
  mates1.add(m1);
  mates2.add(m2);
  PairedEndConfig config;
  config.min_insert = 100;
  config.max_insert = 300;
  const auto pairs = map_pairs(index, two, mates1, mates2, config);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].pair_class, PairClass::kDiscordant);
}

TEST(PairedEnd, InvalidSimulationConfigThrows) {
  std::vector<std::uint8_t> tiny(100, 0);
  EXPECT_THROW(simulate_read_pairs(tiny, 1, 60, 100, 0, 1), std::invalid_argument);
  EXPECT_THROW(simulate_read_pairs(tiny, 1, 10, 200, 0, 1), std::invalid_argument);
}

TEST(PairedEnd, MismatchedBatchSizesThrow) {
  GenomeSimConfig config;
  config.length = 5000;
  const auto genome = simulate_genome(config);
  ReferenceSet reference;
  reference.add("x", genome);
  const FmIndex<RrrWaveletOcc> index(
      genome, [](std::span<const std::uint8_t> bwt) {
        return RrrWaveletOcc(bwt, RrrParams{15, 50});
      });
  ReadBatch a, b;
  a.add(std::span<const std::uint8_t>(genome.data(), 30));
  EXPECT_THROW(map_pairs(index, reference, a, b, PairedEndConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bwaver
