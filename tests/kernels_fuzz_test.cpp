// Satellite: randomized differential fuzzing of the Occ structures.
//
// Generates BWT-like symbol sequences across alphabet skews and lengths
// chosen to straddle SIMD widths (32-base words), VectorOcc's 192-base
// blocks, SampledOcc's checkpoints and the degenerate 0/1 cases, then
// checks every structure's rank (and rank2 where it has one) — and the
// FmIndex occ/occ2 surface of the engines' backends — against the RRR
// wavelet tree reference. VectorOcc is the blockwise builder's rank, fuzzed
// once per counting kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "fmindex/epr_occ.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/occ_backends.hpp"
#include "kernels/rank_kernel.hpp"
#include "kernels/vector_occ.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace bwaver {
namespace {

// Lengths straddling every structural boundary: SIMD word (32), SampledOcc
// checkpoint (128 at the default width), VectorOcc block (192) and its
// midpoint (96, where the scan direction flips), plus 0/1.
const std::size_t kLengths[] = {0,  1,   31,  32,  33,  63,  64,  65,  95, 96,
                                97, 127, 128, 129, 191, 192, 193, 384, 1000};

struct Skew {
  const char* name;
  // Sampling weights for codes 0..3 (A, C, G, T), in 1/64ths.
  unsigned weights[4];
};

const Skew kSkews[] = {
    {"uniform", {16, 16, 16, 16}},
    {"all-A", {64, 0, 0, 0}},
    {"AT-heavy", {30, 2, 2, 30}},
    {"one-hot-G", {1, 1, 61, 1}},
};

std::vector<std::uint8_t> skewed_symbols(std::size_t n, const Skew& skew,
                                         std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& s : out) {
    const std::uint64_t roll = rng.below(64);
    std::uint64_t acc = 0;
    for (std::uint8_t c = 0; c < 4; ++c) {
      acc += skew.weights[c];
      if (roll < acc) {
        s = c;
        break;
      }
    }
  }
  return out;
}

/// Positions worth probing for a text of length n: every structural edge
/// plus a random sprinkle.
std::vector<std::size_t> probe_positions(std::size_t n, Xoshiro256& rng) {
  std::vector<std::size_t> probes{0, n};
  for (const std::size_t edge : {std::size_t{1}, std::size_t{31}, std::size_t{32},
                                 std::size_t{33}, std::size_t{96}, std::size_t{127},
                                 std::size_t{128}, std::size_t{191}, std::size_t{192},
                                 n / 2, n - 1}) {
    if (edge <= n) probes.push_back(edge);
  }
  for (int i = 0; i < 32; ++i) probes.push_back(rng.below(n + 1));
  return probes;
}

TEST(OccEngineFuzz, AllEnginesAgreeWithRrrOnRankAndRank2) {
  Xoshiro256 rng(2024);
  for (const Skew& skew : kSkews) {
    for (const std::size_t n : kLengths) {
      const auto bwt = skewed_symbols(n, skew, 5000 + n);
      const RrrWaveletOcc reference(bwt, RrrParams{15, 50});
      const PlainWaveletOcc plain(bwt);
      const SampledOcc sampled(bwt);
      std::vector<std::pair<const char*, VectorOcc>> vectors;
      for (const kernels::RankKernel& kernel : kernels::available_kernels()) {
        vectors.emplace_back(kernel.name, VectorOcc(bwt, &kernel));
      }

      const auto probes = probe_positions(n, rng);
      for (const std::size_t i : probes) {
        for (std::uint8_t c = 0; c < 4; ++c) {
          const std::size_t want = reference.rank(c, i);
          EXPECT_EQ(plain.rank(c, i), want)
              << "plain " << skew.name << " n=" << n << " i=" << i;
          EXPECT_EQ(sampled.rank(c, i), want)
              << "sampled " << skew.name << " n=" << n << " i=" << i;
          for (const auto& [kernel, vec] : vectors) {
            EXPECT_EQ(vec.rank(c, i), want)
                << "vector/" << kernel << " " << skew.name << " n=" << n << " i=" << i;
          }
        }
      }
      // rank2 over ordered probe pairs, including i1 == i2.
      for (std::size_t a = 0; a < probes.size(); ++a) {
        for (std::size_t b = a; b < probes.size(); b += 3) {
          std::size_t i1 = probes[a], i2 = probes[b];
          if (i1 > i2) std::swap(i1, i2);
          for (std::uint8_t c = 0; c < 4; ++c) {
            const auto want = reference.rank2(c, i1, i2);
            EXPECT_EQ(plain.rank2(c, i1, i2), want) << skew.name << " n=" << n;
            // SampledOcc has no rank2 — its pair is two independent ranks.
            EXPECT_EQ(std::make_pair(sampled.rank(c, i1), sampled.rank(c, i2)), want)
                << skew.name << " n=" << n;
          }
        }
      }
    }
  }
}

TEST(OccEngineFuzz, FmIndexOccSurfaceAgreesAcrossEngines) {
  // The mapper-facing surface: occ/occ2 over the (n+1)-row BWT column with
  // the out-of-band sentinel adjustment. Each engine indexes the same text.
  Xoshiro256 rng(77);
  for (const std::size_t n : {std::size_t{193}, std::size_t{1000}}) {
    const auto text = testing::random_symbols(n, 4, 31 + n);
    const FmIndex<RrrWaveletOcc> rrr(
        text, [](std::span<const std::uint8_t> bwt) {
          return RrrWaveletOcc(bwt, RrrParams{15, 50});
        });
    const FmIndex<SampledOcc> sampled(
        text, [](std::span<const std::uint8_t> bwt) { return SampledOcc(bwt); });
    const FmIndex<PlainWaveletOcc> plain(
        text, [](std::span<const std::uint8_t> bwt) { return PlainWaveletOcc(bwt); });
    const FmIndex<EprOcc> epr(
        text, [](std::span<const std::uint8_t> bwt) { return EprOcc(bwt); });

    for (std::size_t trial = 0; trial < 400; ++trial) {
      std::size_t r1 = rng.below(rrr.rows() + 1);
      std::size_t r2 = rng.below(rrr.rows() + 1);
      if (r1 > r2) std::swap(r1, r2);
      for (std::uint8_t c = 0; c < 4; ++c) {
        const auto want = rrr.occ2(c, r1, r2);
        EXPECT_EQ(sampled.occ2(c, r1, r2), want) << "n=" << n << " rows=" << r1;
        EXPECT_EQ(plain.occ2(c, r1, r2), want) << "n=" << n << " rows=" << r1;
        EXPECT_EQ(epr.occ2(c, r1, r2), want) << "n=" << n << " rows=" << r1;
        EXPECT_EQ(epr.occ(c, r1), want.first);
      }
    }
  }
}

}  // namespace
}  // namespace bwaver
