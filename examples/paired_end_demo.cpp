// Paired-end resequencing scenario: simulate FR read pairs from a fragment
// library, map both mates, and classify pairs by orientation and insert
// size — how short-read pipelines disambiguate repetitive placements.
//
//   $ ./paired_end_demo [--pairs N] [--insert MEAN] [--spread S]
#include <cstdio>

#include "app/cli.hpp"
#include "mapper/paired_end.hpp"
#include "sim/genome_sim.hpp"

int main(int argc, char** argv) {
  using namespace bwaver;
  ArgParser args(argc, argv);
  const std::size_t num_pairs = static_cast<std::size_t>(args.get_int("pairs", 5000));
  const auto mean_insert = static_cast<std::uint32_t>(args.get_int("insert", 350));
  const auto spread = static_cast<std::uint32_t>(args.get_int("spread", 60));
  constexpr unsigned kReadLength = 75;

  GenomeSimConfig gconfig;
  gconfig.length = 2'000'000;
  gconfig.seed = 31;
  gconfig.repeat_fraction = 0.3;  // repeats make single-end placement ambiguous
  const auto genome = simulate_genome(gconfig);
  ReferenceSet reference;
  reference.add("chr_demo", genome);
  const FmIndex<RrrWaveletOcc> index(
      genome, [](std::span<const std::uint8_t> bwt) {
        return RrrWaveletOcc(bwt, RrrParams{15, 50});
      });
  std::printf("reference: %zu bp (30%% repeats); %zu pairs, %u bp mates, "
              "insert %u +- %u\n",
              genome.size(), num_pairs, kReadLength, mean_insert, spread);

  const auto sim = simulate_read_pairs(genome, num_pairs, kReadLength, mean_insert,
                                       spread, 7);
  ReadBatch mates1, mates2;
  for (const auto& pair : sim) {
    mates1.add(pair.mate1);
    mates2.add(pair.mate2);
  }

  PairedEndConfig config;
  config.min_insert = mean_insert > 4 * spread ? mean_insert - 4 * spread : 0;
  config.max_insert = mean_insert + 4 * spread;
  const auto pairs = map_pairs(index, reference, mates1, mates2, config, 4);

  std::size_t counts[4] = {0, 0, 0, 0};
  std::size_t correct_locus = 0;
  double insert_sum = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    counts[static_cast<int>(pairs[i].pair_class)]++;
    if (pairs[i].pair_class == PairClass::kProperPair) {
      insert_sum += pairs[i].insert_size;
      const std::uint32_t fwd_pos =
          pairs[i].mate1_is_forward ? pairs[i].mate1_pos : pairs[i].mate2_pos;
      if (fwd_pos == sim[i].fragment_start) ++correct_locus;
    }
  }
  std::printf("\npair classes:\n  proper:       %zu\n  discordant:   %zu\n"
              "  one unmapped: %zu\n  unmapped:     %zu\n",
              counts[0], counts[1], counts[2], counts[3]);
  if (counts[0] > 0) {
    std::printf("mean accepted insert: %.1f bp (library mean %u)\n",
                insert_sum / static_cast<double>(counts[0]), mean_insert);
    std::printf("proper pairs anchored at their true fragment start: %zu/%zu\n",
                correct_locus, counts[0]);
  }
  return counts[0] * 100 >= num_pairs * 95 ? 0 : 1;  // expect >=95% proper
}
