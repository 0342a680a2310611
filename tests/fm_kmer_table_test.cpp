// K-mer seed table properties: the size cap and the byte-budget rule, the
// boundary array against the two-array construction it replaced (kept here
// as the oracle) for every code, both archive layouts, and the load-bearing
// invariant of the whole seeding design — seeded and unseeded searches
// return identical intervals and positions for every read shape (random,
// mutated, N-substituted, shorter than k).
#include "fmindex/kmer_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "fmindex/dna.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/occ_backends.hpp"
#include "fmindex/reference_set.hpp"
#include "fmindex/suffix_array.hpp"
#include "io/byte_io.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace bwaver {
namespace {

FmIndex<RrrWaveletOcc> make_index(std::span<const std::uint8_t> text) {
  return FmIndex<RrrWaveletOcc>(text, [](std::span<const std::uint8_t> bwt) {
    return RrrWaveletOcc(bwt, RrrParams{15, 50});
  });
}

/// The two-array construction the boundary array replaced: one SA scan
/// recording each k-mer's run as [lo, hi), absent k-mers left [0, 0).
std::vector<SaInterval> two_array_oracle(std::span<const std::uint8_t> text,
                                         std::span<const std::uint32_t> sa, unsigned k) {
  std::vector<SaInterval> intervals(std::size_t{1} << (2 * k));
  std::uint64_t prev = ~std::uint64_t{0};
  for (std::size_t row = 0; row < sa.size(); ++row) {
    const std::size_t pos = sa[row];
    if (pos + k > text.size()) continue;
    std::uint32_t code = 0;
    for (unsigned i = 0; i < k; ++i) code = (code << 2) | text[pos + i];
    if (code != prev) {
      intervals[code].lo = static_cast<std::uint32_t>(row);
      prev = code;
    }
    intervals[code].hi = static_cast<std::uint32_t>(row + 1);
  }
  return intervals;
}

/// Every code of `table` gives the oracle's interval, or an empty one
/// where the oracle has none.
void expect_matches_oracle(const KmerSeedTable& table, std::span<const std::uint8_t> text,
                           std::span<const std::uint32_t> sa, const std::string& what) {
  ASSERT_TRUE(table.enabled()) << what;
  const auto oracle = two_array_oracle(text, sa, table.k());
  ASSERT_EQ(table.entries(), oracle.size()) << what;
  for (std::uint32_t code = 0; code < oracle.size(); ++code) {
    const SaInterval got = table.interval(code);
    if (oracle[code].empty()) {
      ASSERT_TRUE(got.empty()) << what << " code " << code;
      ASSERT_LE(got.lo, sa.size()) << what << " code " << code;
    } else {
      ASSERT_EQ(got, oracle[code]) << what << " code " << code;
    }
  }
}

/// The SA-scan construction the k-mer count replaced: each run's first row,
/// then every code without a run filled from its successor. Serialized in
/// the v5 layout, for a byte comparison with KmerSeedTable::save_flat.
std::vector<std::uint8_t> scanned_table_bytes(std::span<const std::uint8_t> text,
                                              std::span<const std::uint32_t> sa, unsigned k) {
  const std::size_t n = text.size();
  const std::size_t entries = std::size_t{1} << (2 * k);
  std::vector<std::uint32_t> bounds(entries + 1, 0);
  std::uint64_t prev = ~std::uint64_t{0};
  for (std::size_t row = 0; row < sa.size(); ++row) {
    const std::size_t pos = sa[row];
    if (pos + k > n) continue;
    std::uint32_t code = 0;
    for (unsigned i = 0; i < k; ++i) code = (code << 2) | text[pos + i];
    if (code != prev) {
      bounds[code] = static_cast<std::uint32_t>(row);
      prev = code;
    }
  }
  std::vector<std::uint32_t> short_codes;  // suffixes of length j < k, padded with A
  for (unsigned j = 1; j < k; ++j) {
    std::uint32_t code = 0;
    for (std::size_t i = n - j; i < n; ++i) code = (code << 2) | text[i];
    short_codes.push_back(code << (2 * (k - j)));
  }
  bounds[entries] = static_cast<std::uint32_t>(sa.size());
  for (std::size_t x = entries; x-- > 0;) {
    if (bounds[x] != 0) continue;
    const auto shorts = std::count(short_codes.begin(), short_codes.end(), x + 1);
    bounds[x] = bounds[x + 1] - static_cast<std::uint32_t>(shorts);
  }
  ByteWriter writer;
  writer.u32(k);
  writer.u64(bounds.size());
  writer.pad_to(64);
  writer.raw_u32(bounds);
  return writer.take();
}

/// The counted table of `text`, from its bytes and from its 2-bit form, is
/// the SA scan's byte for byte.
void expect_counted_matches_scan(const KmerSeedTable& table, std::span<const std::uint8_t> text,
                                 std::span<const std::uint32_t> sa,
                                 std::optional<unsigned> requested_k, const std::string& what) {
  ASSERT_TRUE(table.enabled()) << what;
  ByteWriter counted;
  table.save_flat(counted);
  EXPECT_EQ(counted.data(), scanned_table_bytes(text, sa, table.k())) << what;
  ByteWriter packed;
  KmerSeedTable::build(PackedText(text), requested_k).save_flat(packed);
  EXPECT_EQ(packed.data(), counted.data()) << what;
}

std::vector<std::uint8_t> with_tail(std::vector<std::uint8_t> text, std::uint8_t base,
                                    std::size_t run) {
  text.insert(text.end(), run, base);
  return text;
}

TEST(KmerTableTest, CappedKRespectsSizeBudgetAndRequest) {
  EXPECT_EQ(KmerSeedTable::capped_k(0, 1'000'000), 0u);
  // Never above the request or the hard maximum.
  EXPECT_EQ(KmerSeedTable::capped_k(3, 1'000'000'000), 3u);
  EXPECT_EQ(KmerSeedTable::capped_k(99, 1'000'000'000), KmerSeedTable::kMaxK);
  for (const std::size_t length :
       {std::size_t{10}, std::size_t{1000}, std::size_t{100'000},
        std::size_t{5'000'000}}) {
    const unsigned k = KmerSeedTable::capped_k(12, length);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 12u);
    // 4^k entries stay within max(4096, 16 * length).
    const std::size_t budget = std::max<std::size_t>(4096, 16 * length);
    EXPECT_LE(std::size_t{1} << (2 * k), budget) << "length " << length;
  }
  // Monotone in the text length.
  EXPECT_LE(KmerSeedTable::capped_k(12, 100), KmerSeedTable::capped_k(12, 100'000));
  // E. coli scale affords an explicit k = 12.
  EXPECT_EQ(KmerSeedTable::capped_k(12, 4'600'000), 12u);
}

TEST(KmerTableTest, BudgetKKeepsTheTableAtTwoBytesPerBase) {
  // E. coli: 4^10 boundaries (4 MiB, 0.90 B/base); 4^11 would be 3.6 B/base.
  EXPECT_EQ(KmerSeedTable::budget_k(4'641'652), 10u);
  // chr21 (and the chr21-like benchmark reference): the 4^12 ceiling.
  EXPECT_EQ(KmerSeedTable::budget_k(40'088'619), 12u);
  EXPECT_EQ(KmerSeedTable::budget_k(46'709'983), 12u);
  EXPECT_EQ(KmerSeedTable::budget_k(3'000'000'000), KmerSeedTable::kMaxBudgetK);
  for (const std::size_t length : {std::size_t{100'000}, std::size_t{4'641'652},
                                   std::size_t{24'000'000}, std::size_t{40'088'619}}) {
    const unsigned k = KmerSeedTable::budget_k(length);
    EXPECT_LE(KmerSeedTable::table_bytes(k), 2 * length + 4) << "length " << length;
    if (k < KmerSeedTable::kMaxBudgetK) {
      EXPECT_GT(KmerSeedTable::table_bytes(k + 1), 2 * length + 4) << "length " << length;
    }
  }
  // Tiny references keep capped_k's 4096-entry floor.
  for (const std::size_t length : {std::size_t{10}, std::size_t{1000}, std::size_t{8192}}) {
    EXPECT_EQ(KmerSeedTable::budget_k(length), 6u) << "length " << length;
    EXPECT_EQ(KmerSeedTable::budget_k(length), KmerSeedTable::capped_k(6, length));
  }
  // No request means the budget; an explicit k is honoured (capped as
  // before), and 0 disables.
  EXPECT_EQ(KmerSeedTable::resolve_k(std::nullopt, 4'641'652), 10u);
  EXPECT_EQ(KmerSeedTable::resolve_k(12u, 4'641'652), 12u);
  EXPECT_EQ(KmerSeedTable::resolve_k(8u, 40'088'619), 8u);
  EXPECT_EQ(KmerSeedTable::resolve_k(0u, 4'641'652), 0u);
  EXPECT_EQ(KmerSeedTable::resolve_k(12u, 1000), KmerSeedTable::capped_k(12, 1000));
  EXPECT_EQ(KmerSeedTable::table_bytes(0), 0u);
  EXPECT_EQ(KmerSeedTable::table_bytes(10), 4u * ((1u << 20) + 1));
}

TEST(KmerTableTest, BoundaryArrayMatchesTheTwoArrayOracleForEveryCode) {
  for (unsigned k = 1; k <= 8; ++k) {
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> texts;
    texts.emplace_back("random", testing::random_symbols(5000, 4, 100 + k));
    texts.emplace_back("two-symbol", testing::random_symbols(4500, 2, 200 + k));
    // Suffixes shorter than k that are all A, or all T, pile up at one
    // code (A) or sit at the top of the code range (T).
    texts.emplace_back("A-run", with_tail(testing::random_symbols(4200, 4, 300 + k), 0, 20));
    texts.emplace_back("T-run", with_tail(testing::random_symbols(4300, 4, 400 + k), 3, 20));
    texts.emplace_back("CA-tail", with_tail(testing::random_symbols(4400, 4, 500 + k), 1, 1));
    texts.emplace_back("all-A", std::vector<std::uint8_t>(4100, 0));
    texts.emplace_back("exactly-k", testing::random_symbols(k, 4, 600 + k));
    // A multi-sequence reference is indexed over its concatenation.
    ReferenceSet reference;
    reference.add("chrA", with_tail(testing::random_symbols(1500, 4, 700 + k), 0, 9));
    reference.add("chrB", testing::random_symbols(2100, 4, 800 + k));
    reference.add("chrC", with_tail(testing::random_symbols(900, 4, 900 + k), 3, 7));
    texts.emplace_back("multi-sequence", reference.concatenated().unpack());

    for (const auto& [name, text] : texts) {
      const auto sa = build_suffix_array(text);
      const KmerSeedTable table = KmerSeedTable::build(text, k);
      const std::string what = name + " k " + std::to_string(k);
      // capped_k shrinks k = 7, 8 on the k-base text to 6.
      ASSERT_EQ(table.k(), KmerSeedTable::capped_k(k, text.size())) << what;
      expect_matches_oracle(table, text, sa, what);
      expect_counted_matches_scan(table, text, sa, k, what);
    }

    // Shorter than the capped k (at most 6 on a text this short): no table.
    if (k > 1) {
      const auto text = testing::random_symbols(std::min(k, 6u) - 1, 4, 1000 + k);
      EXPECT_FALSE(KmerSeedTable::build(text, k).enabled());
      EXPECT_FALSE(KmerSeedTable::build(PackedText(text), k).enabled());
    }
  }
}

TEST(KmerTableTest, EveryTextKmerResolvesToTheUnseededInterval) {
  const auto text = testing::random_symbols(5000, 4, 71);
  auto index = make_index(text);
  index.build_seed_table(text, 8);
  ASSERT_NE(index.seed_table(), nullptr);
  const KmerSeedTable& table = *index.seed_table();
  const unsigned k = table.k();
  ASSERT_GE(k, 1u);

  for (std::size_t pos = 0; pos + k <= text.size(); ++pos) {
    const std::span<const std::uint8_t> kmer(text.data() + pos, k);
    const auto seed = table.lookup(kmer);
    ASSERT_TRUE(seed.has_value());
    const SaInterval expected = index.count_unseeded(kmer);
    EXPECT_EQ(seed->lo, expected.lo) << "pos " << pos;
    EXPECT_EQ(seed->hi, expected.hi) << "pos " << pos;
    // And the interval really holds every occurrence.
    auto located = index.locate(*seed);
    std::sort(located.begin(), located.end());
    EXPECT_EQ(located, testing::naive_find_all(text, kmer));
  }
}

TEST(KmerTableTest, AbsentKmersAreEmptyAndOutOfAlphabetIsNullopt) {
  // A two-symbol text leaves most of the 4^k codes absent.
  const auto text = testing::random_symbols(2000, 2, 5);
  auto index = make_index(text);
  index.build_seed_table(text, 6);
  const KmerSeedTable& table = *index.seed_table();
  const unsigned k = table.k();

  std::vector<std::uint8_t> absent(k, 3);  // 'T' never occurs in the text
  const auto miss = table.lookup(absent);
  ASSERT_TRUE(miss.has_value());
  EXPECT_TRUE(miss->empty());
  EXPECT_TRUE(index.count(absent).empty());

  std::vector<std::uint8_t> invalid(k, 0);
  invalid[k / 2] = 4;  // un-substituted N
  EXPECT_FALSE(table.lookup(invalid).has_value());

  std::vector<std::uint8_t> wrong_length(k + 1, 0);
  EXPECT_FALSE(table.lookup(wrong_length).has_value());
}

TEST(KmerTableTest, SeededSearchIsByteIdenticalToUnseeded) {
  // Randomized references and reads, including mutated reads that stop
  // matching mid-search and reads shorter than k.
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const std::size_t length = 1000 + 3000 * static_cast<std::size_t>(seed % 3);
    const auto text = testing::random_symbols(length, 4, seed);
    auto index = make_index(text);
    index.build_seed_table(text, 10);
    const unsigned k = index.seed_table()->k();

    Xoshiro256 rng(seed * 97);
    for (int trial = 0; trial < 300; ++trial) {
      const std::size_t len = 1 + rng.below(60);
      std::vector<std::uint8_t> pattern;
      if (trial % 3 == 0) {
        // Pure random pattern (usually absent for long lengths).
        for (std::size_t i = 0; i < len; ++i) {
          pattern.push_back(static_cast<std::uint8_t>(rng.below(4)));
        }
      } else {
        // Substring of the text, sometimes with a point mutation.
        const std::size_t start = rng.below(text.size() - std::min(len, text.size()) + 1);
        const std::size_t n = std::min(len, text.size() - start);
        pattern.assign(text.begin() + start, text.begin() + start + n);
        if (trial % 3 == 2 && !pattern.empty()) {
          const std::size_t at = rng.below(pattern.size());
          pattern[at] = static_cast<std::uint8_t>((pattern[at] + 1 + rng.below(3)) % 4);
        }
      }
      const SaInterval seeded = index.count(pattern);
      const SaInterval unseeded = index.count_unseeded(pattern);
      ASSERT_EQ(seeded.lo, unseeded.lo) << "seed " << seed << " trial " << trial
                                        << " len " << len << " k " << k;
      ASSERT_EQ(seeded.hi, unseeded.hi) << "seed " << seed << " trial " << trial;
      ASSERT_EQ(index.locate(seeded), index.locate(unseeded));
    }
  }
}

TEST(KmerTableTest, NSubstitutedReadsSearchIdentically) {
  // Reads with Ns get deterministic substitute codes at FASTQ decode; the
  // seeded path must agree with the unseeded one on them too.
  const auto text = testing::random_symbols(4000, 4, 40);
  auto index = make_index(text);
  index.build_seed_table(text, 8);

  const std::string with_n = "ACGTNNACGTACNGTACGTTGCANACGTACGT";
  const auto codes = dna_encode_string(with_n, /*substitute_invalid=*/true);
  EXPECT_EQ(index.count(codes), index.count_unseeded(codes));

  const std::string shorter_than_k = "ACN";
  const auto short_codes = dna_encode_string(shorter_than_k, true);
  EXPECT_EQ(index.count(short_codes), index.count_unseeded(short_codes));
}

TEST(KmerTableTest, SaveLoadRoundTripsExactly) {
  // A T-run tail puts short-suffix rows inside the code range.
  const auto text = with_tail(testing::random_symbols(3000, 4, 77), 3, 5);
  const auto index = make_index(text);
  const KmerSeedTable table = KmerSeedTable::build(text, 7);
  ASSERT_TRUE(table.enabled());

  const auto expect_same = [&](const KmerSeedTable& loaded, const char* layout) {
    ASSERT_EQ(loaded.k(), table.k()) << layout;
    ASSERT_EQ(loaded.entries(), table.entries()) << layout;
    for (std::uint32_t code = 0; code < table.entries(); ++code) {
      ASSERT_EQ(loaded.interval(code), table.interval(code)) << layout << " code " << code;
    }
  };

  // v5 boundaries, copied and adopted.
  ByteWriter flat;
  table.save_flat(flat);
  EXPECT_EQ(flat.data().size(), 64 + KmerSeedTable::table_bytes(table.k()));
  for (const bool adopt : {false, true}) {
    ByteReader reader(flat.data());
    const KmerSeedTable loaded = KmerSeedTable::load_flat(reader, adopt, PackedText(text));
    EXPECT_TRUE(reader.done());
    expect_same(loaded, adopt ? "boundaries (adopt)" : "boundaries (copy)");
    EXPECT_EQ(loaded.heap_size_in_bytes() < loaded.size_in_bytes(), adopt);
  }

  // The v2 stream and v3/v4 flat two-array layouts convert back exactly.
  for (const bool flat_intervals : {false, true}) {
    ByteWriter writer;
    table.save_intervals(writer, flat_intervals);
    ByteReader reader(writer.data());
    const KmerSeedTable loaded =
        KmerSeedTable::load_intervals(reader, flat_intervals, PackedText(text));
    EXPECT_TRUE(reader.done());
    expect_same(loaded, flat_intervals ? "flat intervals" : "stream intervals");
  }
}

TEST(KmerTableTest, LoadRejectsInconsistentBoundaries) {
  const auto text = with_tail(testing::random_symbols(3000, 4, 78), 0, 4);
  const KmerSeedTable table = KmerSeedTable::build(text, 6);
  ByteWriter writer;
  table.save_flat(writer);
  const std::vector<std::uint8_t> good = writer.data();
  const std::size_t entries = table.entries();

  const auto load_with = [&](std::size_t index, std::uint32_t value) {
    std::vector<std::uint8_t> bytes = good;
    std::memcpy(bytes.data() + 64 + 4 * index, &value, sizeof value);
    ByteReader reader(bytes);
    return KmerSeedTable::load_flat(reader, /*adopt=*/false, PackedText(text));
  };
  const auto boundary = [&](std::size_t index) {
    std::uint32_t value = 0;
    std::memcpy(&value, good.data() + 64 + 4 * index, sizeof value);
    return value;
  };
  EXPECT_NO_THROW(load_with(5, boundary(5)));
  // A boundary past the SA, one that decreases, a last boundary that is not
  // the row count, and a first one that swallows the sentinel row.
  EXPECT_THROW(load_with(entries / 2, 0xFFFFFF00u), IoError);
  EXPECT_THROW(load_with(entries / 2, boundary(entries / 2 - 1) - 1), IoError);
  EXPECT_THROW(load_with(entries, static_cast<std::uint32_t>(text.size() + 2)), IoError);
  EXPECT_THROW(load_with(0, 0), IoError);
  // The text ends in xAAAA (x != A): four short suffixes sort before the
  // run of code 0, so B[0] must leave them room beside the sentinel row.
  ASSERT_NE(text[text.size() - 5], 0);
  EXPECT_EQ(boundary(0), 5u);
  EXPECT_THROW(load_with(0, 4), IoError);
  // A k that does not fit the text, and an out-of-range k.
  for (const std::uint32_t bad_k : {16u, 7u}) {
    std::vector<std::uint8_t> bytes = good;
    std::memcpy(bytes.data(), &bad_k, sizeof bad_k);
    ByteReader reader(bytes);
    EXPECT_THROW(KmerSeedTable::load_flat(
                     reader, false, PackedText(std::span(text).first(bad_k == 7u ? 6 : 3000))),
                 IoError)
        << "k " << bad_k;
  }
}

// The counted table must be exactly the one an ordered SA scan records —
// serialized bytes and all, since the archive byte-identity guarantee
// rests on it — at every k the budget rule or a request picks.
TEST(KmerTableTest, CountedTableMatchesTheSuffixArrayScan) {
  for (const std::optional<unsigned> requested_k :
       {std::optional<unsigned>{3u}, std::optional<unsigned>{5u},
        std::optional<unsigned>{12u}, std::optional<unsigned>{}}) {
    const auto text = testing::random_symbols(2000, 4, 17 + requested_k.value_or(0));
    const auto index = make_index(text);
    const KmerSeedTable table = KmerSeedTable::build(text, requested_k);
    expect_counted_matches_scan(table, text, index.suffix_array().unpack_u32(), requested_k,
                                "k " + std::to_string(requested_k.value_or(0)));
  }
}

TEST(KmerTableTest, ShortTextBuildsNoTable) {
  const auto text = testing::random_symbols(5, 4, 3);
  // The capped k still exceeds the text.
  EXPECT_FALSE(KmerSeedTable::build(text, 8).enabled());
  EXPECT_FALSE(KmerSeedTable::build(PackedText(text), 8).enabled());
}

TEST(KmerTableTest, ZeroKDisablesSeeding) {
  const auto text = testing::random_symbols(1000, 4, 9);
  auto index = make_index(text);
  index.build_seed_table(text, 0);
  EXPECT_EQ(index.seed_table(), nullptr);

  const KmerSeedTable empty = KmerSeedTable::build(text, 0);
  EXPECT_FALSE(empty.enabled());
  EXPECT_EQ(empty.entries(), 0u);
}

}  // namespace
}  // namespace bwaver
