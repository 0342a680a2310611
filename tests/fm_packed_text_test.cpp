// PackedText: the 2-bit reference text the v6 archive stores and the sweep
// compares against, and the IntVector packing the v6 suffix array uses.
#include "fmindex/packed_text.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fmindex/suffix_array.hpp"
#include "succinct/int_vector.hpp"
#include "test_util.hpp"

namespace bwaver {
namespace {

TEST(PackedText, PacksAndUnpacksEveryLength) {
  const auto codes = testing::random_symbols(200, 4, 3);
  for (std::size_t n = 0; n <= codes.size(); ++n) {
    const std::span<const std::uint8_t> prefix(codes.data(), n);
    const PackedText text(prefix);
    ASSERT_EQ(text.size(), n);
    EXPECT_EQ(text.size_in_bytes(), 8 * ((n + 31) / 32));
    EXPECT_EQ(text.unpack(), std::vector<std::uint8_t>(prefix.begin(), prefix.end()));
    EXPECT_EQ(text, prefix);
  }
}

TEST(PackedText, AppendAtAnyOffsetEqualsOnePack) {
  const auto codes = testing::random_symbols(300, 4, 5);
  for (const std::size_t cut : {0u, 1u, 31u, 32u, 33u, 64u, 100u, 299u, 300u}) {
    PackedText text(std::span<const std::uint8_t>(codes.data(), cut));
    text.append(std::span<const std::uint8_t>(codes.data() + cut, codes.size() - cut));
    EXPECT_EQ(text, PackedText(codes)) << "cut " << cut;
  }
}

TEST(PackedText, WindowReadsThirtyTwoCodesAtAnyOffset) {
  const auto codes = testing::random_symbols(150, 4, 7);
  const PackedText text(codes);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const std::uint64_t window = text.window(i);
    for (std::size_t j = 0; j < 32; ++j) {
      const std::uint8_t want = i + j < codes.size() ? codes[i + j] : 0;
      ASSERT_EQ((window >> (2 * j)) & 3, want) << "offset " << i << " code " << j;
    }
  }
}

TEST(PackedText, MatchesAgreesWithAByteCompare) {
  const auto codes = testing::random_symbols(400, 4, 9);
  const PackedText text(codes);
  for (std::size_t pos = 0; pos < codes.size(); pos += 7) {
    for (const std::size_t count : {1u, 7u, 8u, 31u, 32u, 33u, 64u, 100u}) {
      if (pos + count > codes.size()) continue;
      std::vector<std::uint8_t> pattern(codes.begin() + pos, codes.begin() + pos + count);
      EXPECT_TRUE(text.matches(pos, pattern.data(), count));
      // One changed code anywhere is a miss, including in a partial word.
      for (const std::size_t at : {std::size_t{0}, count / 2, count - 1}) {
        auto changed = pattern;
        changed[at] = static_cast<std::uint8_t>((changed[at] + 1) & 3);
        EXPECT_FALSE(text.matches(pos, changed.data(), count)) << pos << "+" << count;
      }
    }
  }
}

TEST(PackedText, FlatLayoutRoundTripsCopiedAndAdopted) {
  const auto codes = testing::random_symbols(1000, 4, 11);
  const PackedText text(codes);
  ByteWriter writer;
  text.save_flat(writer);
  for (const bool adopt : {false, true}) {
    ByteReader reader(writer.data());
    const PackedText loaded = PackedText::load_flat(reader, adopt);
    EXPECT_TRUE(reader.done());
    EXPECT_EQ(loaded, text);
    EXPECT_EQ(loaded.heap_size_in_bytes() == 0, adopt);
  }
  // Any other width is refused.
  auto bytes = writer.data();
  bytes[8] = 3;
  ByteReader reader(bytes);
  EXPECT_THROW(PackedText::load_flat(reader, false), IoError);
}

TEST(SuffixArrayWidth, IsTheBitsOfTheLargestEntry) {
  EXPECT_EQ(suffix_array_width(0), 1u);
  EXPECT_EQ(suffix_array_width(1), 1u);
  EXPECT_EQ(suffix_array_width(2), 2u);
  EXPECT_EQ(suffix_array_width(4'641'652), 23u);   // E. coli K-12
  EXPECT_EQ(suffix_array_width(46'709'983), 26u);  // chr21
  EXPECT_EQ(suffix_array_width((std::size_t{1} << 23) - 1), 23u);
  EXPECT_EQ(suffix_array_width(std::size_t{1} << 23), 24u);
}

TEST(IntVectorPack, EqualsElementwiseSetAndUnpacks) {
  const auto text = testing::random_symbols(5000, 4, 13);
  const auto sa = build_suffix_array(text);
  const unsigned width = suffix_array_width(text.size());
  const IntVector packed = IntVector::pack(sa, width);
  IntVector set(sa.size(), width);
  for (std::size_t i = 0; i < sa.size(); ++i) set.set(i, sa[i]);
  EXPECT_EQ(packed, set);
  EXPECT_EQ(packed.unpack_u32(), sa);
  const IntVector view = IntVector::view_of(packed);
  EXPECT_EQ(view, packed);
  EXPECT_EQ(view.heap_size_in_bytes(), 0u);
}

TEST(IntVectorPack, ConsumingPackEqualsPackAcrossReleasedPages) {
  // Large enough that whole pages of the 4-byte array are handed back
  // mid-pass (2^16-entry chunks, 256 KiB each), at several sizes so the
  // last chunk and the last word are partial.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{65'536},
                              std::size_t{300'001}}) {
    std::vector<std::uint32_t> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<std::uint32_t>((i * 2654435761u) % 300'007);
    const unsigned width = suffix_array_width(300'007);
    const IntVector expected = IntVector::pack(values, width);
    std::vector<std::uint32_t> consumed = values;
    EXPECT_EQ(IntVector::pack_consuming(std::move(consumed), width), expected) << "n=" << n;
    EXPECT_TRUE(consumed.empty());
  }
  std::vector<std::uint32_t> wide{1, 1u << 10};
  EXPECT_THROW(IntVector::pack_consuming(std::move(wide), 10), std::invalid_argument);
}

TEST(IntVectorPack, RefusesAValueWiderThanTheWidth) {
  // Cutting it to its low bits would store a different value.
  const std::vector<std::uint32_t> values{1, 2, (1u << 10) | 3, 4};
  EXPECT_THROW(IntVector::pack(values, 10), std::invalid_argument);
  EXPECT_EQ(IntVector::pack(values, 11).unpack_u32(), values);
  const std::vector<std::uint32_t> full{0xFFFFFFFFu, 0};
  EXPECT_EQ(IntVector::pack(full, 32).unpack_u32(), full);
}

TEST(IntVectorResize, GrownEntriesReadZero) {
  const std::vector<std::uint32_t> values{5, 6, 7, 1, 2, 3, 4};
  IntVector v = IntVector::pack(values, 23);  // 161 bits: a partial last word
  v.resize(100);
  for (std::size_t i = 0; i < values.size(); ++i) ASSERT_EQ(v.get(i), values[i]) << i;
  for (std::size_t i = values.size(); i < 100; ++i) ASSERT_EQ(v.get(i), 0u) << i;
  EXPECT_EQ(v.size_in_bytes(), 8 * ((100 * 23 + 63) / 64));
  // A view detaches before it grows; the words it borrowed are untouched.
  const IntVector owner = IntVector::pack(values, 23);
  IntVector view = IntVector::view_of(owner);
  view.resize(8);
  EXPECT_EQ(view.get(7), 0u);
  EXPECT_EQ(owner.unpack_u32(), values);
}

}  // namespace
}  // namespace bwaver
