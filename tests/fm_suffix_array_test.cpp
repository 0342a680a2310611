#include "fmindex/suffix_array.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "test_util.hpp"

namespace bwaver {
namespace {

// The previous SA-IS, kept as an oracle for large inputs where the naive
// sort is too slow: it holds the text as 4-byte symbols and keeps its names
// and reduced strings in arrays of their own.
constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();

void oracle_sais(const std::vector<std::uint32_t>& s, std::vector<std::uint32_t>& sa,
                 std::uint32_t alphabet) {
  const std::size_t n = s.size();
  sa.assign(n, kEmpty);
  if (n == 0) return;
  if (n == 1) {
    sa[0] = 0;
    return;
  }
  std::vector<std::uint8_t> type(n);
  type[n - 1] = 1;
  for (std::size_t i = n - 1; i-- > 0;) {
    type[i] = (s[i] < s[i + 1] || (s[i] == s[i + 1] && type[i + 1])) ? 1 : 0;
  }
  auto is_lms = [&](std::size_t i) { return i > 0 && type[i] && !type[i - 1]; };

  std::vector<std::uint32_t> count(alphabet, 0);
  for (std::uint32_t c : s) ++count[c];
  std::vector<std::uint32_t> head(alphabet), tail(alphabet);
  auto reset_heads = [&] {
    std::uint32_t sum = 0;
    for (std::uint32_t c = 0; c < alphabet; ++c) {
      head[c] = sum;
      sum += count[c];
    }
  };
  auto reset_tails = [&] {
    std::uint32_t sum = 0;
    for (std::uint32_t c = 0; c < alphabet; ++c) {
      sum += count[c];
      tail[c] = sum;
    }
  };
  auto induce = [&] {
    reset_heads();
    for (std::size_t i = 0; i < n; ++i) {
      if (sa[i] == kEmpty || sa[i] == 0) continue;
      const std::size_t j = sa[i] - 1;
      if (!type[j]) sa[head[s[j]]++] = static_cast<std::uint32_t>(j);
    }
    reset_tails();
    for (std::size_t i = n; i-- > 0;) {
      if (sa[i] == kEmpty || sa[i] == 0) continue;
      const std::size_t j = sa[i] - 1;
      if (type[j]) sa[--tail[s[j]]] = static_cast<std::uint32_t>(j);
    }
  };

  reset_tails();
  for (std::size_t i = 1; i < n; ++i) {
    if (is_lms(i)) sa[--tail[s[i]]] = static_cast<std::uint32_t>(i);
  }
  induce();

  std::vector<std::uint32_t> lms_sorted;
  for (std::size_t i = 0; i < n; ++i) {
    if (sa[i] != kEmpty && is_lms(sa[i])) lms_sorted.push_back(sa[i]);
  }
  const std::size_t num_lms = lms_sorted.size();
  std::vector<std::uint32_t> name(n, kEmpty);
  std::uint32_t last_name = 0;
  std::uint32_t prev = kEmpty;
  for (std::uint32_t pos : lms_sorted) {
    if (prev != kEmpty) {
      bool same = true;
      for (std::size_t d = 0;; ++d) {
        const bool lms_p = is_lms(prev + d);
        const bool lms_q = is_lms(pos + d);
        if (d > 0 && (lms_p || lms_q)) {
          same = lms_p && lms_q;
          break;
        }
        if (s[prev + d] != s[pos + d] || type[prev + d] != type[pos + d]) {
          same = false;
          break;
        }
      }
      if (!same) ++last_name;
    }
    name[pos] = last_name;
    prev = pos;
  }
  const std::uint32_t distinct = num_lms == 0 ? 0 : last_name + 1;

  std::vector<std::uint32_t> lms_pos;
  for (std::size_t i = 1; i < n; ++i) {
    if (is_lms(i)) lms_pos.push_back(static_cast<std::uint32_t>(i));
  }
  if (distinct < num_lms) {
    std::vector<std::uint32_t> reduced;
    for (std::uint32_t pos : lms_pos) reduced.push_back(name[pos]);
    std::vector<std::uint32_t> reduced_sa;
    oracle_sais(reduced, reduced_sa, distinct);
    for (std::size_t k = 0; k < num_lms; ++k) lms_sorted[k] = lms_pos[reduced_sa[k]];
  } else {
    for (std::uint32_t pos : lms_pos) lms_sorted[name[pos]] = pos;
  }

  std::fill(sa.begin(), sa.end(), kEmpty);
  reset_tails();
  for (std::size_t k = num_lms; k-- > 0;) {
    const std::uint32_t pos = lms_sorted[k];
    sa[--tail[s[pos]]] = pos;
  }
  induce();
}

std::vector<std::uint32_t> oracle_suffix_array(std::span<const std::uint8_t> text,
                                               unsigned alphabet_size = 4) {
  std::vector<std::uint32_t> s;
  s.reserve(text.size() + 1);
  for (std::uint8_t c : text) s.push_back(static_cast<std::uint32_t>(c) + 1);
  s.push_back(0);
  std::vector<std::uint32_t> sa;
  oracle_sais(s, sa, alphabet_size + 1);
  return sa;
}

void expect_valid_suffix_array(std::span<const std::uint8_t> text,
                               std::span<const std::uint32_t> sa) {
  const std::size_t n = text.size();
  ASSERT_EQ(sa.size(), n + 1);
  ASSERT_EQ(sa[0], n);  // sentinel suffix is always smallest

  // Permutation check.
  std::vector<bool> seen(n + 1, false);
  for (std::uint32_t s : sa) {
    ASSERT_LE(s, n);
    ASSERT_FALSE(seen[s]) << "duplicate suffix index " << s;
    seen[s] = true;
  }

  // Adjacent suffixes must be strictly increasing (sentinel-terminated
  // suffixes are never equal).
  auto suffix_less = [&](std::uint32_t a, std::uint32_t b) {
    while (a < n && b < n) {
      if (text[a] != text[b]) return text[a] < text[b];
      ++a;
      ++b;
    }
    return a == n;  // shorter (sentinel-reaching) suffix is smaller
  };
  for (std::size_t i = 1; i < sa.size(); ++i) {
    ASSERT_TRUE(suffix_less(sa[i - 1], sa[i])) << "order violated at " << i;
  }
}

TEST(SuffixArray, EmptyText) {
  const auto sa = build_suffix_array({});
  ASSERT_EQ(sa.size(), 1u);
  EXPECT_EQ(sa[0], 0u);
}

TEST(SuffixArray, SingleCharacter) {
  const std::vector<std::uint8_t> text = {2};
  const auto sa = build_suffix_array(text);
  ASSERT_EQ(sa.size(), 2u);
  EXPECT_EQ(sa[0], 1u);
  EXPECT_EQ(sa[1], 0u);
}

TEST(SuffixArray, KnownBanannaLikeCase) {
  // "banana" over alphabet {a=0, b=1, n=2}: SA of banana$ is
  // $ a$ ana$ anana$ banana$ na$ nana$ -> 6 5 3 1 0 4 2.
  const std::vector<std::uint8_t> text = {1, 0, 2, 0, 2, 0};
  const auto sa = build_suffix_array(text, 3);
  const std::vector<std::uint32_t> expected = {6, 5, 3, 1, 0, 4, 2};
  EXPECT_EQ(sa, expected);
}

TEST(SuffixArray, MatchesNaiveOnRandomDna) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const std::size_t size = 1 + (seed * 97) % 600;
    const auto text = testing::random_symbols(size, 4, seed + 1000);
    ASSERT_EQ(build_suffix_array(text), build_suffix_array_naive(text))
        << "seed=" << seed << " size=" << size;
  }
}

TEST(SuffixArray, AllSameCharacter) {
  for (std::size_t n : {1u, 2u, 10u, 100u, 1000u}) {
    const std::vector<std::uint8_t> text(n, 3);
    const auto sa = build_suffix_array(text);
    // Suffixes of T^n$ sort by decreasing start position.
    for (std::size_t i = 0; i <= n; ++i) {
      ASSERT_EQ(sa[i], n - i) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SuffixArray, PeriodicText) {
  std::vector<std::uint8_t> text;
  for (int i = 0; i < 200; ++i) text.push_back(static_cast<std::uint8_t>(i % 3));
  EXPECT_EQ(build_suffix_array(text), build_suffix_array_naive(text));
}

TEST(SuffixArray, FibonacciLikeText) {
  // Fibonacci words stress LMS recursion depth.
  std::vector<std::uint8_t> a = {0}, b = {0, 1};
  for (int i = 0; i < 10; ++i) {
    std::vector<std::uint8_t> next = b;
    next.insert(next.end(), a.begin(), a.end());
    a = std::move(b);
    b = std::move(next);
  }
  EXPECT_EQ(build_suffix_array(b, 2), build_suffix_array_naive(b));
}

TEST(SuffixArray, ValidOnLargerRandomInput) {
  const auto text = testing::random_symbols(50000, 4, 777);
  const auto sa = build_suffix_array(text);
  expect_valid_suffix_array(text, sa);
}

TEST(SuffixArray, ValidOnRepeatRichInput) {
  auto text = testing::random_symbols(5000, 4, 778);
  // Duplicate a large chunk to force shared LMS substrings and recursion.
  text.insert(text.end(), text.begin(), text.begin() + 2500);
  text.insert(text.end(), text.begin(), text.begin() + 2500);
  const auto sa = build_suffix_array(text);
  expect_valid_suffix_array(text, sa);
}

TEST(SuffixArray, MatchesNaiveOnEveryTextUpToLengthThree) {
  for (std::size_t n = 0; n <= 3; ++n) {
    std::size_t texts = 1;
    for (std::size_t i = 0; i < n; ++i) texts *= 4;
    for (std::size_t code = 0; code < texts; ++code) {
      std::vector<std::uint8_t> text(n);
      for (std::size_t i = 0, rest = code; i < n; ++i, rest /= 4) {
        text[i] = static_cast<std::uint8_t>(rest % 4);
      }
      ASSERT_EQ(build_suffix_array(text), build_suffix_array_naive(text))
          << "n=" << n << " code=" << code;
    }
  }
}

TEST(SuffixArray, MatchesNaiveOnPeriodicRuns) {
  for (const std::vector<std::uint8_t>& period :
       {std::vector<std::uint8_t>{0, 1}, std::vector<std::uint8_t>{2, 1},
        std::vector<std::uint8_t>{0, 1, 2}, std::vector<std::uint8_t>{3, 0, 0},
        std::vector<std::uint8_t>{1, 1, 0}}) {
    for (std::size_t n : {2u, 5u, 64u, 301u, 1000u}) {
      std::vector<std::uint8_t> text(n);
      for (std::size_t i = 0; i < n; ++i) text[i] = period[i % period.size()];
      ASSERT_EQ(build_suffix_array(text), build_suffix_array_naive(text))
          << "period " << period.size() << " n=" << n;
    }
  }
}

TEST(SuffixArray, MatchesNaiveOnALongRunThenRandomBases) {
  for (std::uint8_t c = 0; c < 4; ++c) {
    std::vector<std::uint8_t> text(700, c);
    const auto tail = testing::random_symbols(300, 4, 40 + c);
    text.insert(text.end(), tail.begin(), tail.end());
    ASSERT_EQ(build_suffix_array(text), build_suffix_array_naive(text)) << "run of " << int(c);
  }
}

TEST(SuffixArray, MatchesNaiveOnTwoSymbolTexts) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto text = testing::random_symbols(1 + seed * 83, 2, 500 + seed);
    ASSERT_EQ(build_suffix_array(text, 2), build_suffix_array_naive(text)) << "seed=" << seed;
    // The same two symbols inside the DNA alphabet.
    std::vector<std::uint8_t> shifted(text);
    for (auto& c : shifted) c = static_cast<std::uint8_t>(c * 3);
    ASSERT_EQ(build_suffix_array(shifted), build_suffix_array_naive(shifted))
        << "seed=" << seed;
  }
}

TEST(SuffixArray, MatchesNaiveOnAThreeSequenceConcatenation) {
  // Three sequences packed end to end, as a ReferenceSet concatenates them;
  // the third repeats the first so suffixes cross sequence boundaries alike.
  const auto a = testing::random_symbols(400, 4, 61);
  const auto b = testing::random_symbols(250, 4, 62);
  std::vector<std::uint8_t> text(a);
  text.insert(text.end(), b.begin(), b.end());
  text.insert(text.end(), a.begin(), a.end());
  EXPECT_EQ(build_suffix_array(text), build_suffix_array_naive(text));
}

TEST(SuffixArray, MatchesNaiveOnRandomTextsUpToTwoKbp) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    for (std::size_t n : {17u, 255u, 1024u, 2048u}) {
      const auto text = testing::random_symbols(n, 4, seed * 7919 + n);
      ASSERT_EQ(build_suffix_array(text), build_suffix_array_naive(text))
          << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(SuffixArray, PackedTextBuildsTheSameArray) {
  // The 2-bit text is read in place; every length class and run shape the
  // byte overload sees must give the same array.
  for (std::size_t n : {0u, 1u, 2u, 3u, 31u, 32u, 33u, 64u, 65u, 1000u, 4097u}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const auto text = testing::random_symbols(n, 4, 900 + seed * 31 + n);
      ASSERT_EQ(build_suffix_array(PackedText(text)), build_suffix_array(text))
          << "n=" << n << " seed=" << seed;
    }
  }
  const std::vector<std::uint8_t> run(3000, 2);
  EXPECT_EQ(build_suffix_array(PackedText(run)), build_suffix_array(run));
}

TEST(SuffixArray, MatchesTheOracleOnOneMbpRandomText) {
  for (std::uint64_t seed : {3u, 4u}) {
    const auto text = testing::random_symbols(1'000'000, 4, seed);
    const auto sa = build_suffix_array(text);
    ASSERT_EQ(sa, oracle_suffix_array(text)) << "seed=" << seed;
    ASSERT_EQ(build_suffix_array(PackedText(text)), sa) << "seed=" << seed;
  }
}

TEST(SuffixArray, MatchesTheOracleOnOneMbpRepeatRichText) {
  // Long exact repeats and a low-entropy stretch drive the recursion deep:
  // a 20 kbp unit copied with rare point changes, then a period-7 run.
  const auto unit = testing::random_symbols(20'000, 4, 71);
  const auto noise = testing::random_symbols(1'000'000, 4, 72);
  std::vector<std::uint8_t> text;
  text.reserve(1'000'000);
  while (text.size() < 900'000) {
    for (std::size_t i = 0; i < unit.size(); ++i) {
      const std::size_t at = text.size();
      text.push_back(at % 9973 == 0 ? noise[at] : unit[i]);
    }
  }
  while (text.size() < 1'000'000) text.push_back(static_cast<std::uint8_t>(text.size() % 7 % 4));
  const auto sa = build_suffix_array(text);
  ASSERT_EQ(sa, oracle_suffix_array(text));
  ASSERT_EQ(build_suffix_array(PackedText(text)), sa);
}

TEST(SuffixArray, RejectsOutOfRangeSymbols) {
  const std::vector<std::uint8_t> text = {0, 1, 4};
  EXPECT_THROW(build_suffix_array(text, 4), std::invalid_argument);
}

TEST(SuffixArray, LargerAlphabet) {
  const auto text = testing::random_symbols(2000, 100, 9);
  EXPECT_EQ(build_suffix_array(text, 100), build_suffix_array_naive(text));
  const auto bytes = testing::random_symbols(3000, 256, 10);
  EXPECT_EQ(build_suffix_array(bytes, 256), oracle_suffix_array(bytes, 256));
}

}  // namespace
}  // namespace bwaver
