#include "kernels/rank_kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace bwaver::kernels {
namespace {

/// Packs 2-bit codes into words, low slots first (32 codes per word).
std::vector<std::uint64_t> pack(const std::vector<std::uint8_t>& codes) {
  std::vector<std::uint64_t> words((codes.size() + 31) / 32, 0);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    words[i / 32] |= (std::uint64_t{codes[i]} & 3) << ((i % 32) * 2);
  }
  return words;
}

std::vector<std::uint8_t> random_codes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> codes(n);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.below(4));
  return codes;
}

std::size_t naive_count(const std::vector<std::uint8_t>& codes, std::size_t lo,
                        std::size_t hi, std::uint8_t c) {
  std::size_t count = 0;
  for (std::size_t i = lo; i < hi; ++i) count += codes[i] == c;
  return count;
}

TEST(RankKernel, RegistryShapeIsSane) {
  const auto kernels = available_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.back().name, "portable");
  EXPECT_EQ(&active_kernel(), &kernels.front());
  std::set<std::string> names;
  for (const RankKernel& kernel : kernels) {
    ASSERT_NE(kernel.count_block_prefix, nullptr) << kernel.name;
    ASSERT_NE(kernel.count_epr_prefix, nullptr) << kernel.name;
    EXPECT_TRUE(names.insert(kernel.name).second) << "duplicate " << kernel.name;
    // Best-first ordering: levels never increase down the list.
    EXPECT_LE(static_cast<int>(kernel.level),
              static_cast<int>(kernels.front().level));
  }
  EXPECT_STREQ(portable_kernel().name, "portable");
  ASSERT_NE(kernel_for(SimdLevel::kPortable), nullptr);
  EXPECT_STREQ(kernel_for(SimdLevel::kPortable)->name, "portable");
}

TEST(RankKernel, CountPartialWordMatchesNaive) {
  const auto codes = random_codes(32, 7);
  const auto words = pack(codes);
  for (unsigned bases = 0; bases <= 32; ++bases) {
    for (std::uint8_t c = 0; c < 4; ++c) {
      EXPECT_EQ(static_cast<std::size_t>(count_partial_word(words[0], c, bases)),
                naive_count(codes, 0, bases, c))
          << "bases=" << bases << " c=" << int(c);
    }
  }
}

TEST(RankKernel, EveryKernelCountsBlockPrefixesExactly) {
  // Exhaustive off sweep over a six-word block (VectorOcc's rank, the
  // blockwise builder's hot path), for every kernel and code — including
  // off 0 and the full 192.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto codes = random_codes(192, seed);
    const auto words = pack(codes);
    ASSERT_EQ(words.size(), 6u);
    for (const RankKernel& kernel : available_kernels()) {
      ASSERT_NE(kernel.count_block_prefix, nullptr) << kernel.name;
      for (unsigned off = 0; off <= 192; ++off) {
        for (std::uint8_t c = 0; c < 4; ++c) {
          EXPECT_EQ(kernel.count_block_prefix(words.data(), off, c),
                    naive_count(codes, 0, off, c))
              << kernel.name << " off=" << off << " c=" << int(c);
        }
      }
    }
  }
}

/// Transposes 128 2-bit codes into EPR bit planes [lo0, lo1, hi0, hi1].
std::array<std::uint64_t, 4> transpose_epr(const std::vector<std::uint8_t>& codes) {
  std::array<std::uint64_t, 4> planes{};
  for (std::size_t i = 0; i < codes.size() && i < 128; ++i) {
    const unsigned w = static_cast<unsigned>(i >> 6);
    const unsigned b = static_cast<unsigned>(i & 63);
    planes[w] |= std::uint64_t{codes[i] & 1u} << b;
    planes[2 + w] |= std::uint64_t{(codes[i] >> 1) & 1u} << b;
  }
  return planes;
}

TEST(RankKernel, EveryKernelCountsEprPrefixesExactly) {
  // Exhaustive off sweep over one EPR block (128 bases, the EprOcc hot
  // path), for every kernel and code — including off 0, the 64-base plane
  // boundary, and the full 128.
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    const auto codes = random_codes(128, seed);
    const auto planes = transpose_epr(codes);
    for (const RankKernel& kernel : available_kernels()) {
      ASSERT_NE(kernel.count_epr_prefix, nullptr) << kernel.name;
      for (unsigned off = 0; off <= 128; ++off) {
        for (std::uint8_t c = 0; c < 4; ++c) {
          EXPECT_EQ(kernel.count_epr_prefix(planes.data(), off, c),
                    naive_count(codes, 0, off, c))
              << kernel.name << " off=" << off << " c=" << int(c);
        }
      }
    }
  }
}

TEST(RankKernel, EprPrefixHandlesUniformPlanes) {
  // All-same-symbol planes, including code 0 (all-zero planes — also what
  // the terminal block's padding looks like).
  for (std::uint8_t fill = 0; fill < 4; ++fill) {
    const std::vector<std::uint8_t> codes(128, fill);
    const auto planes = transpose_epr(codes);
    for (const RankKernel& kernel : available_kernels()) {
      for (std::uint8_t c = 0; c < 4; ++c) {
        for (const unsigned off : {0u, 1u, 63u, 64u, 65u, 127u, 128u}) {
          EXPECT_EQ(kernel.count_epr_prefix(planes.data(), off, c),
                    c == fill ? off : 0u)
              << kernel.name << " fill=" << int(fill) << " c=" << int(c);
        }
      }
    }
  }
}

TEST(RankKernel, AllSameSymbolTexts) {
  // Degenerate skews: every slot of a six-word block the same code,
  // including code 0, whose pattern (all-zero words) is also what padding
  // looks like.
  for (std::uint8_t fill = 0; fill < 4; ++fill) {
    const std::vector<std::uint8_t> codes(192, fill);
    const auto words = pack(codes);
    for (const RankKernel& kernel : available_kernels()) {
      for (std::uint8_t c = 0; c < 4; ++c) {
        for (const unsigned off : {0u, 1u, 31u, 32u, 33u, 96u, 191u, 192u}) {
          EXPECT_EQ(kernel.count_block_prefix(words.data(), off, c),
                    c == fill ? off : 0u)
              << kernel.name << " fill=" << int(fill) << " c=" << int(c)
              << " off=" << off;
        }
      }
    }
  }
}

}  // namespace
}  // namespace bwaver::kernels
