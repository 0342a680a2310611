// EprOcc unit tests: rank/rank2/rank_all/access against brute force at
// every block geometry edge, per-kernel agreement for the EPR prefix
// counter, serialization (classic and flat/adopting), and the zero-copy
// view used by the serving path.
#include "fmindex/epr_occ.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "fmindex/fm_index.hpp"
#include "fmindex/occ_backends.hpp"
#include "io/byte_io.hpp"
#include "kernels/rank_kernel.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace bwaver {
namespace {

TEST(EprOcc, RankMatchesBruteForceAtEveryOffset) {
  // A deliberately awkward length: several full blocks plus a ragged tail
  // crossing the second plane word of the last data block.
  const auto text = testing::random_symbols(5 * 128 + 97, 4, 11);
  const EprOcc occ(text);
  ASSERT_EQ(occ.size(), text.size());
  for (std::uint8_t c = 0; c < 4; ++c) {
    for (std::size_t i = 0; i <= text.size(); ++i) {
      ASSERT_EQ(occ.rank(c, i), testing::naive_rank(text, c, i))
          << "c=" << int(c) << " i=" << i;
    }
  }
}

TEST(EprOcc, InlineRankMatchesBruteForceAtEveryOffset) {
  // rank_inline is the sweep's dispatch-free count (portable mask here; the
  // BZHI tier is checked end to end by AllEngines/SweepEngineTest.*/epr).
  const auto text = testing::random_symbols(5 * 128 + 97, 4, 11);
  const EprOcc occ(text);
  for (std::uint8_t c = 0; c < 4; ++c) {
    for (std::size_t i = 0; i <= text.size(); ++i) {
      ASSERT_EQ(occ.rank_inline(c, i), testing::naive_rank(text, c, i))
          << "c=" << int(c) << " i=" << i;
    }
  }
}

TEST(EprOcc, BlockBoundaryOffsetsAreExact) {
  const auto text = testing::random_symbols(1024, 4, 12);
  const EprOcc occ(text);
  for (const std::size_t i : {std::size_t{0}, std::size_t{63}, std::size_t{64},
                              std::size_t{127}, std::size_t{128}, std::size_t{191},
                              std::size_t{256}, text.size()}) {
    for (std::uint8_t c = 0; c < 4; ++c) {
      EXPECT_EQ(occ.rank(c, i), testing::naive_rank(text, c, i)) << i;
    }
  }
}

TEST(EprOcc, Rank2MatchesTwoSingleRanks) {
  const auto text = testing::random_symbols(3000, 4, 13);
  const EprOcc occ(text);
  Xoshiro256 rng(14);
  for (int trial = 0; trial < 500; ++trial) {
    std::size_t i1 = rng.below(text.size() + 1);
    std::size_t i2 = rng.below(text.size() + 1);
    if (i1 > i2) std::swap(i1, i2);
    // Mix in same-block pairs so the hot-line reuse path is exercised.
    if (trial % 3 == 0) i2 = std::min(text.size(), i1 + rng.below(128));
    const std::uint8_t c = static_cast<std::uint8_t>(rng.below(4));
    const auto [r1, r2] = occ.rank2(c, i1, i2);
    EXPECT_EQ(r1, occ.rank(c, i1));
    EXPECT_EQ(r2, occ.rank(c, i2));
  }
}

TEST(EprOcc, RankAllAgreesWithFourRanks) {
  const auto text = testing::random_symbols(2500, 4, 15);
  const EprOcc occ(text);
  for (std::size_t i = 0; i <= text.size(); i += (i % 7) + 1) {
    const std::array<std::uint32_t, 4> all = occ.rank_all(i);
    for (std::uint8_t c = 0; c < 4; ++c) {
      ASSERT_EQ(all[c], occ.rank(c, i)) << "c=" << int(c) << " i=" << i;
    }
  }
  // The four counts at any offset must always sum to the offset.
  for (const std::size_t i : {std::size_t{0}, std::size_t{100}, text.size()}) {
    const auto all = occ.rank_all(i);
    EXPECT_EQ(std::size_t{all[0]} + all[1] + all[2] + all[3], i);
  }
}

TEST(EprOcc, AccessRecoversTheText) {
  const auto text = testing::random_symbols(777, 4, 16);
  const EprOcc occ(text);
  for (std::size_t i = 0; i < text.size(); ++i) {
    ASSERT_EQ(occ.access(i), text[i]) << i;
  }
}

TEST(EprOcc, EveryAvailableKernelAgrees) {
  const auto text = testing::random_symbols(4096 + 31, 4, 17);
  const EprOcc reference(text);  // dispatch choice
  for (const kernels::RankKernel& kernel : kernels::available_kernels()) {
    const EprOcc pinned(text, &kernel);
    for (std::size_t i = 0; i <= text.size(); i += 3) {
      for (std::uint8_t c = 0; c < 4; ++c) {
        ASSERT_EQ(pinned.rank(c, i), reference.rank(c, i))
            << kernel.name << " c=" << int(c) << " i=" << i;
      }
    }
  }
}

TEST(EprOcc, SaveLoadRoundTrips) {
  const auto text = testing::random_symbols(2000, 4, 18);
  const EprOcc occ(text);
  ByteWriter writer;
  occ.save(writer);
  const std::vector<std::uint8_t> bytes = writer.data();
  ByteReader reader(bytes);
  const EprOcc loaded = EprOcc::load(reader);
  ASSERT_EQ(loaded.size(), occ.size());
  for (std::size_t i = 0; i <= text.size(); i += 5) {
    for (std::uint8_t c = 0; c < 4; ++c) {
      ASSERT_EQ(loaded.rank(c, i), occ.rank(c, i));
    }
  }
}

TEST(EprOcc, FlatRoundTripsInBothAdoptModes) {
  const auto text = testing::random_symbols(1500, 4, 19);
  const EprOcc occ(text);
  ByteWriter writer;
  occ.save_flat(writer);
  // FlatArray adoption requires the blocks to sit 64-byte aligned in the
  // backing buffer; the flat format pads before the block payload, so a
  // 64-byte-aligned buffer start suffices. alignas on a local array
  // guarantees it.
  const std::vector<std::uint8_t>& flat = writer.data();
  alignas(64) std::array<std::uint8_t, 1 << 16> backing;
  ASSERT_LE(flat.size(), backing.size());
  std::copy(flat.begin(), flat.end(), backing.begin());
  const std::span<const std::uint8_t> view(backing.data(), flat.size());

  for (const bool adopt : {false, true}) {
    ByteReader reader(view);
    const EprOcc loaded = EprOcc::load_flat(reader, adopt);
    ASSERT_EQ(loaded.size(), occ.size()) << "adopt=" << adopt;
    if (adopt) {
      EXPECT_EQ(loaded.heap_size_in_bytes(), 0u);
    } else {
      EXPECT_EQ(loaded.heap_size_in_bytes(), loaded.size_in_bytes());
    }
    for (std::size_t i = 0; i <= text.size(); i += 7) {
      for (std::uint8_t c = 0; c < 4; ++c) {
        ASSERT_EQ(loaded.rank(c, i), occ.rank(c, i)) << "adopt=" << adopt;
      }
    }
    EXPECT_EQ(reader.offset(), flat.size()) << "adopt=" << adopt;
  }
}

TEST(EprOcc, ViewAliasesWithoutCopying) {
  const auto text = testing::random_symbols(900, 4, 20);
  const EprOcc owner(text);
  const EprOcc view = EprOcc::view_of(owner);
  EXPECT_EQ(view.size(), owner.size());
  EXPECT_EQ(view.heap_size_in_bytes(), 0u);  // borrowed, nothing owned
  for (std::size_t i = 0; i <= text.size(); i += 3) {
    for (std::uint8_t c = 0; c < 4; ++c) {
      ASSERT_EQ(view.rank(c, i), owner.rank(c, i));
    }
  }
}

TEST(EprOcc, WorksAsFmIndexBackend) {
  // End-to-end: an FmIndex over the EPR backend must count/locate exactly
  // like the RRR reference backend.
  const auto text = testing::random_symbols(6000, 4, 21);
  const FmIndex<EprOcc> epr_index(
      text, [](std::span<const std::uint8_t> bwt) { return EprOcc(bwt); });
  const FmIndex<RrrWaveletOcc> rrr_index(
      text, [](std::span<const std::uint8_t> bwt) {
        return RrrWaveletOcc(bwt, RrrParams{15, 50});
      });
  Xoshiro256 rng(22);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t len = 4 + rng.below(20);
    const std::size_t start = rng.below(text.size() - len);
    const std::span<const std::uint8_t> pattern(text.data() + start, len);
    EXPECT_EQ(epr_index.count(pattern).count(), rrr_index.count(pattern).count());
    EXPECT_EQ(epr_index.locate(pattern), rrr_index.locate(pattern));
  }
}

TEST(EprOcc, EmptyTextIsWellFormed) {
  const EprOcc occ(std::span<const std::uint8_t>{});
  EXPECT_EQ(occ.size(), 0u);
  for (std::uint8_t c = 0; c < 4; ++c) EXPECT_EQ(occ.rank(c, 0), 0u);
}

}  // namespace
}  // namespace bwaver
