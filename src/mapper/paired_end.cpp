#include "mapper/paired_end.hpp"

#include <algorithm>
#include <stdexcept>

#include "fmindex/dna.hpp"
#include "mapper/software_mapper.hpp"
#include "util/rng.hpp"

namespace bwaver {

namespace {

/// Candidate locus: global position + strand of the mate's alignment.
struct Candidate {
  std::uint32_t pos;
  bool forward;  ///< mate sequence matches the forward strand here
};

/// Collects up to `cap` candidate loci from both strand intervals of one
/// result, filtering boundary-straddling spans.
std::vector<Candidate> collect_candidates(const FmIndex<RrrWaveletOcc>& index,
                                          const ReferenceSet& reference,
                                          const QueryResult& result,
                                          std::uint32_t read_length, std::size_t cap) {
  std::vector<Candidate> candidates;
  for (int strand = 0; strand < 2; ++strand) {
    const bool forward = strand == 0;
    const std::uint32_t lo = forward ? result.fwd_lo : result.rev_lo;
    const std::uint32_t hi = forward ? result.fwd_hi : result.rev_hi;
    const std::uint32_t verified = forward ? result.fwd_verified : result.rev_verified;
    for (std::uint32_t row = lo; row < hi && candidates.size() < cap; ++row) {
      const std::uint32_t pos = index.sa(row) - verified;
      if (reference.span_within_sequence(pos, read_length)) {
        candidates.push_back(Candidate{pos, forward});
      }
    }
  }
  return candidates;
}

}  // namespace

std::vector<PairedAlignment> pair_alignments(
    const FmIndex<RrrWaveletOcc>& index, const ReferenceSet& reference,
    std::span<const QueryResult> results1, std::span<const QueryResult> results2,
    std::span<const std::uint32_t> len1, std::span<const std::uint32_t> len2,
    const PairedEndConfig& config) {
  if (results1.size() != results2.size() || results1.size() != len1.size() ||
      len1.size() != len2.size()) {
    throw std::invalid_argument("pair_alignments: mate array size mismatch");
  }
  std::vector<PairedAlignment> pairs(results1.size());

  for (std::size_t i = 0; i < results1.size(); ++i) {
    PairedAlignment& pair = pairs[i];
    const auto c1 = collect_candidates(index, reference, results1[i], len1[i],
                                       config.max_candidates);
    const auto c2 = collect_candidates(index, reference, results2[i], len2[i],
                                       config.max_candidates);
    if (c1.empty() && c2.empty()) {
      pair.pair_class = PairClass::kUnmapped;
      continue;
    }
    if (c1.empty() || c2.empty()) {
      pair.pair_class = PairClass::kOneUnmapped;
      continue;
    }

    pair.pair_class = PairClass::kDiscordant;
    for (const Candidate& a : c1) {
      for (const Candidate& b : c2) {
        // FR library: the forward-strand mate comes first; the other mate
        // aligns on the reverse strand downstream. Either mate may be the
        // forward one.
        const Candidate& fwd = a.forward ? a : b;
        const Candidate& rev = a.forward ? b : a;
        const std::uint32_t fwd_len = a.forward ? len1[i] : len2[i];
        const std::uint32_t rev_len = a.forward ? len2[i] : len1[i];
        (void)fwd_len;
        if (a.forward == b.forward) continue;  // FF/RR: wrong orientation
        if (rev.pos < fwd.pos) continue;       // RF: mates face outward
        const std::uint32_t insert = rev.pos + rev_len - fwd.pos;
        if (insert < config.min_insert || insert > config.max_insert) continue;
        const auto seq_a = reference.resolve(fwd.pos);
        const auto seq_b = reference.resolve(rev.pos);
        if (seq_a.sequence_index != seq_b.sequence_index) continue;

        pair.pair_class = PairClass::kProperPair;
        pair.sequence_index = seq_a.sequence_index;
        pair.mate1_is_forward = a.forward;
        pair.mate1_pos = reference.resolve(a.pos).offset;
        pair.mate2_pos = reference.resolve(b.pos).offset;
        pair.insert_size = insert;
        break;
      }
      if (pair.pair_class == PairClass::kProperPair) break;
    }
  }
  return pairs;
}

std::vector<PairedAlignment> map_pairs(const FmIndex<RrrWaveletOcc>& index,
                                       const ReferenceSet& reference,
                                       const ReadBatch& mates1, const ReadBatch& mates2,
                                       const PairedEndConfig& config, unsigned threads) {
  if (mates1.size() != mates2.size()) {
    throw std::invalid_argument("map_pairs: mate batches must have equal size");
  }
  const BwaverCpuMapper mapper(index);
  const auto results1 = mapper.map(mates1, threads);
  const auto results2 = mapper.map(mates2, threads);

  std::vector<std::uint32_t> len1(mates1.size()), len2(mates2.size());
  for (std::size_t i = 0; i < mates1.size(); ++i) {
    len1[i] = static_cast<std::uint32_t>(mates1.read(i).size());
    len2[i] = static_cast<std::uint32_t>(mates2.read(i).size());
  }
  return pair_alignments(index, reference, results1, results2, len1, len2, config);
}

std::vector<SimulatedPair> simulate_read_pairs(std::span<const std::uint8_t> reference,
                                               std::size_t num_pairs,
                                               unsigned read_length,
                                               std::uint32_t mean_insert,
                                               std::uint32_t insert_spread,
                                               std::uint64_t seed) {
  if (mean_insert < 2 * read_length) {
    throw std::invalid_argument("simulate_read_pairs: insert shorter than two reads");
  }
  if (mean_insert + insert_spread > reference.size()) {
    throw std::invalid_argument("simulate_read_pairs: insert longer than reference");
  }
  Xoshiro256 rng(seed);
  std::vector<SimulatedPair> pairs;
  pairs.reserve(num_pairs);
  for (std::size_t n = 0; n < num_pairs; ++n) {
    SimulatedPair pair;
    const std::uint32_t spread =
        insert_spread == 0
            ? 0
            : static_cast<std::uint32_t>(rng.below(2 * insert_spread + 1));
    pair.insert_size = mean_insert - insert_spread + spread;
    pair.fragment_start =
        static_cast<std::uint32_t>(rng.below(reference.size() - pair.insert_size + 1));

    pair.mate1.assign(reference.begin() + pair.fragment_start,
                      reference.begin() + pair.fragment_start + read_length);
    const std::uint32_t tail_start = pair.fragment_start + pair.insert_size - read_length;
    pair.mate2 = dna_reverse_complement(
        std::span<const std::uint8_t>(reference.data() + tail_start, read_length));
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

}  // namespace bwaver
