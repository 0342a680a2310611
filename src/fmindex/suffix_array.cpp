#include "fmindex/suffix_array.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace bwaver {

namespace detail {

namespace {
constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
}  // namespace

void sais(const std::vector<std::uint32_t>& s, std::vector<std::uint32_t>& sa,
          std::uint32_t alphabet) {
  const std::size_t n = s.size();
  sa.assign(n, kEmpty);
  if (n == 0) return;
  if (n == 1) {
    sa[0] = 0;
    return;
  }

  // Suffix types: 1 = S-type (smaller than successor), 0 = L-type.
  std::vector<std::uint8_t> type(n);
  type[n - 1] = 1;  // the sentinel suffix is S-type by definition
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

  // Induced sorting: L-type suffixes left-to-right from bucket heads, then
  // S-type right-to-left from bucket tails.
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

  // Stage 1: drop LMS suffixes at their bucket tails (any order) and induce
  // to obtain the relative order of all LMS *substrings*.
  reset_tails();
  for (std::size_t i = 1; i < n; ++i) {
    if (is_lms(i)) sa[--tail[s[i]]] = static_cast<std::uint32_t>(i);
  }
  induce();

  // Stage 2: name LMS substrings in their sorted order.
  std::vector<std::uint32_t> lms_sorted;
  lms_sorted.reserve(n / 2 + 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (sa[i] != kEmpty && is_lms(sa[i])) lms_sorted.push_back(sa[i]);
  }
  const std::size_t num_lms = lms_sorted.size();

  std::vector<std::uint32_t> name(n, kEmpty);
  std::uint32_t last_name = 0;
  std::uint32_t prev = kEmpty;
  for (std::uint32_t pos : lms_sorted) {
    if (prev != kEmpty) {
      // Compare the LMS substrings starting at prev and pos. The unique
      // sentinel guarantees comparisons never run past the end.
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

  // Stage 3: order the LMS *suffixes*. If all names are distinct the
  // substring order is already the suffix order; otherwise recurse on the
  // reduced string of names (in text order).
  std::vector<std::uint32_t> lms_pos;
  lms_pos.reserve(num_lms);
  for (std::size_t i = 1; i < n; ++i) {
    if (is_lms(i)) lms_pos.push_back(static_cast<std::uint32_t>(i));
  }

  if (distinct < num_lms) {
    std::vector<std::uint32_t> reduced;
    reduced.reserve(num_lms);
    for (std::uint32_t pos : lms_pos) reduced.push_back(name[pos]);
    std::vector<std::uint32_t> reduced_sa;
    sais(reduced, reduced_sa, distinct);
    for (std::size_t k = 0; k < num_lms; ++k) {
      lms_sorted[k] = lms_pos[reduced_sa[k]];
    }
  } else {
    for (std::uint32_t pos : lms_pos) lms_sorted[name[pos]] = pos;
  }

  // Stage 4: place the sorted LMS suffixes at bucket tails (reverse order so
  // ties fill tail-first) and induce the final array.
  std::fill(sa.begin(), sa.end(), kEmpty);
  reset_tails();
  for (std::size_t k = num_lms; k-- > 0;) {
    const std::uint32_t pos = lms_sorted[k];
    sa[--tail[s[pos]]] = pos;
  }
  induce();
}

}  // namespace detail

std::vector<std::uint32_t> build_suffix_array(std::span<const std::uint8_t> text,
                                              unsigned alphabet_size) {
  if (text.size() >= std::numeric_limits<std::uint32_t>::max() - 1) {
    throw std::length_error("build_suffix_array: text too long for 32-bit indices");
  }
  std::vector<std::uint32_t> s;
  s.reserve(text.size() + 1);
  for (std::uint8_t c : text) {
    if (c >= alphabet_size) {
      throw std::invalid_argument("build_suffix_array: symbol out of range");
    }
    s.push_back(static_cast<std::uint32_t>(c) + 1);  // shift to make room for '$' = 0
  }
  s.push_back(0);

  std::vector<std::uint32_t> sa;
  detail::sais(s, sa, alphabet_size + 1);
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
