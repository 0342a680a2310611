#include "fmindex/suffix_array.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace bwaver {

namespace {

constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();

/// The level-0 string: the byte text shifted up by one, then a virtual
/// sentinel 0 at index n (never stored).
struct ByteLevel {
  const std::uint8_t* text;
  std::uint32_t n;  ///< text length; the string has n + 1 symbols
  std::uint32_t operator()(std::uint32_t i) const noexcept {
    return i < n ? std::uint32_t{text[i]} + 1 : 0;
  }
};

/// The level-0 string read from 2-bit codes in place, as ByteLevel reads
/// bytes.
struct PackedLevel {
  const std::uint64_t* words;
  std::uint32_t n;
  std::uint32_t operator()(std::uint32_t i) const noexcept {
    return i < n ? static_cast<std::uint32_t>((words[i >> 5] >> (2 * (i & 31))) & 3) + 1 : 0;
  }
};

/// A reduced string of LMS-substring names, held in the SA's tail; its last
/// symbol is the sentinel's name 0, which occurs nowhere else.
struct NameLevel {
  const std::uint32_t* names;
  std::uint32_t operator()(std::uint32_t i) const noexcept { return names[i]; }
};

/// Suffix types, one bit each: set = S-type (smaller than its successor).
class TypeBits {
 public:
  explicit TypeBits(std::uint32_t n) : words_((std::size_t{n} + 63) / 64, 0) {}
  bool s_type(std::uint32_t i) const noexcept { return (words_[i >> 6] >> (i & 63)) & 1; }
  void set_s(std::uint32_t i) noexcept { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  bool lms(std::uint32_t i) const noexcept { return i > 0 && s_type(i) && !s_type(i - 1); }

 private:
  std::vector<std::uint64_t> words_;
};

/// Bucket heads (`end` false) or ends (`end` true) of every symbol of s.
template <typename String>
void fill_buckets(const String& s, std::uint32_t n, std::uint32_t* bucket, std::uint32_t k,
                  bool end) {
  std::fill(bucket, bucket + k, 0);
  for (std::uint32_t i = 0; i < n; ++i) ++bucket[s(i)];
  std::uint32_t sum = 0;
  for (std::uint32_t c = 0; c < k; ++c) {
    sum += bucket[c];
    bucket[c] = end ? sum : sum - bucket[c];
  }
}

/// Induced sorting: L-type suffixes left to right from bucket heads, then
/// S-type right to left from bucket ends. `j < n` skips both empty slots
/// and position 0 (whose predecessor would wrap), as one unsigned compare.
template <typename String>
void induce(const String& s, const TypeBits& types, std::uint32_t* sa, std::uint32_t n,
            std::uint32_t* bucket, std::uint32_t k) {
  fill_buckets(s, n, bucket, k, /*end=*/false);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t j = sa[i] - 1;
    if (j < n && !types.s_type(j)) sa[bucket[s(j)]++] = j;
  }
  fill_buckets(s, n, bucket, k, /*end=*/true);
  for (std::uint32_t i = n; i-- > 0;) {
    const std::uint32_t j = sa[i] - 1;
    if (j < n && types.s_type(j)) sa[--bucket[s(j)]] = j;
  }
}

/// SA-IS (Nong, Zhang & Chan) over s[0, n), whose last symbol is a unique
/// minimum, into sa[0, n). Symbols lie in [0, k). `spare` is scratch that
/// nothing else uses while this level runs; the bucket array lives there
/// when it fits. The LMS names and the reduced string are kept in sa's own
/// free space, so the only O(n) allocation of a level is its type bitmap
/// (n/8 bytes).
template <typename String>
void sais(const String& s, std::uint32_t* sa, std::uint32_t n, std::uint32_t k,
          std::span<std::uint32_t> spare) {
  if (n == 1) {
    sa[0] = 0;
    return;
  }
  TypeBits types(n);
  types.set_s(n - 1);  // the sentinel; n - 2 is L-type since s[n - 1] is minimal
  for (std::uint32_t i = n - 2; i-- > 0;) {
    const std::uint32_t a = s(i);
    const std::uint32_t b = s(i + 1);
    if (a < b || (a == b && types.s_type(i + 1))) types.set_s(i);
  }

  // The bucket array: in `spare` when it fits, else on the heap, released
  // while a deeper level runs.
  std::vector<std::uint32_t> heap_bucket;
  const auto bucket_array = [&]() -> std::uint32_t* {
    if (spare.size() >= k) return spare.data();
    heap_bucket.resize(k);
    return heap_bucket.data();
  };

  // Stage 1: LMS suffixes at their bucket ends, in any order; inducing from
  // them sorts the LMS substrings.
  std::uint32_t* bucket = bucket_array();
  std::fill(sa, sa + n, kEmpty);
  fill_buckets(s, n, bucket, k, /*end=*/true);
  for (std::uint32_t i = 1; i < n; ++i) {
    if (types.lms(i)) sa[--bucket[s(i)]] = i;
  }
  induce(s, types, sa, n, bucket, k);

  // Compact the sorted LMS substrings into sa[0, n1); n1 <= n / 2.
  std::uint32_t n1 = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t pos = sa[i];
    if (pos < n && types.lms(pos)) sa[n1++] = pos;
  }

  // Name them in sorted order. Two LMS positions are at least 2 apart, so
  // position p's name fits at sa[n1 + p / 2] without collisions.
  std::fill(sa + n1, sa + n, kEmpty);
  std::uint32_t names = 0;
  std::uint32_t prev = kEmpty;
  for (std::uint32_t i = 0; i < n1; ++i) {
    const std::uint32_t pos = sa[i];
    bool differs = prev == kEmpty;
    for (std::uint32_t d = 0; !differs; ++d) {
      // The unique sentinel ends every comparison inside the string.
      if (s(pos + d) != s(prev + d) || types.s_type(pos + d) != types.s_type(prev + d)) {
        differs = true;
      } else if (d > 0 && (types.lms(pos + d) || types.lms(prev + d))) {
        break;
      }
    }
    if (differs) {
      ++names;
      prev = pos;
    }
    sa[n1 + pos / 2] = names - 1;
  }
  // The reduced string, in text order, at the tail: s1 = sa[n - n1, n).
  for (std::uint32_t i = n, j = n; i-- > n1;) {
    if (sa[i] != kEmpty) sa[--j] = sa[i];
  }
  std::uint32_t* s1 = sa + (n - n1);

  // Stage 2: order the LMS suffixes. Distinct names already do; otherwise
  // recurse on s1 into sa[0, n1), lending it the gap between the two (or
  // this level's own spare, if larger) for its buckets.
  if (names < n1) {
    heap_bucket = {};
    std::span<std::uint32_t> gap(sa + n1, n - 2 * n1);
    sais(NameLevel{s1}, sa, n1, names, gap.size() >= spare.size() ? gap : spare);
  } else {
    for (std::uint32_t i = 0; i < n1; ++i) sa[s1[i]] = i;
  }

  // Stage 3: map ranks back to positions (s1 becomes the LMS position
  // list), put the sorted LMS suffixes at their bucket ends in reverse
  // order, and induce the final array. Each one moves right or stays.
  for (std::uint32_t i = 1, j = 0; i < n; ++i) {
    if (types.lms(i)) s1[j++] = i;
  }
  for (std::uint32_t i = 0; i < n1; ++i) sa[i] = s1[sa[i]];
  std::fill(sa + n1, sa + n, kEmpty);
  bucket = bucket_array();
  fill_buckets(s, n, bucket, k, /*end=*/true);
  for (std::uint32_t i = n1; i-- > 0;) {
    const std::uint32_t pos = sa[i];
    sa[i] = kEmpty;
    sa[--bucket[s(pos)]] = pos;
  }
  induce(s, types, sa, n, bucket, k);
}

void check_length(std::size_t n) {
  if (n >= std::numeric_limits<std::uint32_t>::max() - 1) {
    throw std::length_error("build_suffix_array: text too long for 32-bit indices");
  }
}

}  // namespace

namespace detail {

std::vector<std::uint32_t> packed_suffix_array(const PackedText& text) {
  check_length(text.size());
  const auto n = static_cast<std::uint32_t>(text.size());
  std::vector<std::uint32_t> sa(std::size_t{n} + 1);
  sais(PackedLevel{text.words().data(), n}, sa.data(), n + 1, 5, {});
  return sa;
}

}  // namespace detail

std::vector<std::uint32_t> build_suffix_array(std::span<const std::uint8_t> text,
                                              unsigned alphabet_size) {
  check_length(text.size());
  if (std::any_of(text.begin(), text.end(),
                  [alphabet_size](std::uint8_t c) { return c >= alphabet_size; })) {
    throw std::invalid_argument("build_suffix_array: symbol out of range");
  }
  const auto n = static_cast<std::uint32_t>(text.size());
  std::vector<std::uint32_t> sa(std::size_t{n} + 1);
  // Byte symbols need at most 256 buckets, plus one for the sentinel.
  sais(ByteLevel{text.data(), n}, sa.data(), n + 1, std::min(alphabet_size, 256u) + 1, {});
  return sa;
}

std::vector<std::uint32_t> build_suffix_array_naive(std::span<const std::uint8_t> text) {
  const std::size_t n = text.size();
  std::vector<std::uint32_t> shifted(n + 1);
  for (std::size_t i = 0; i < n; ++i) shifted[i] = static_cast<std::uint32_t>(text[i]) + 1;
  shifted[n] = 0;

  std::vector<std::uint32_t> sa(n + 1);
  for (std::size_t i = 0; i <= n; ++i) sa[i] = static_cast<std::uint32_t>(i);
  std::sort(sa.begin(), sa.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::lexicographical_compare(shifted.begin() + a, shifted.end(),
                                        shifted.begin() + b, shifted.end());
  });
  return sa;
}

IntVector pack_stored_suffix_array(std::span<const std::uint32_t> sa, std::size_t n) {
  const unsigned width = suffix_array_width(n);
  try {
    return IntVector::pack(sa, width);
  } catch (const std::invalid_argument&) {
    throw IoError("suffix array: an entry does not fit in " + std::to_string(width) +
                  " bits (a text of " + std::to_string(n) + " bases)");
  }
}

}  // namespace bwaver
