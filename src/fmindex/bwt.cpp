#include "fmindex/bwt.hpp"

#include <array>
#include <stdexcept>

#include "fmindex/suffix_array.hpp"

namespace bwaver {

namespace {

template <typename Text, typename SuffixArray>
Bwt bwt_from(const Text& text, const SuffixArray& sa) {
  const std::size_t n = text.size();
  if (sa.size() != n + 1) {
    throw std::invalid_argument("build_bwt: suffix array size must be text size + 1");
  }
  Bwt bwt;
  bwt.text_length = static_cast<std::uint32_t>(n);
  std::vector<std::uint8_t> symbols;
  symbols.reserve(n);
  for (std::size_t row = 0; row <= n; ++row) {
    const auto suffix = static_cast<std::uint32_t>(sa[row]);
    if (suffix == 0) {
      bwt.primary = static_cast<std::uint32_t>(row);  // char before suffix 0 is '$'
    } else {
      symbols.push_back(text[suffix - 1]);
    }
  }
  bwt.symbols = std::move(symbols);
  return bwt;
}

}  // namespace

Bwt build_bwt(std::span<const std::uint8_t> text, std::span<const std::uint32_t> sa) {
  return bwt_from(text, sa);
}

Bwt build_bwt(const PackedText& text, std::span<const std::uint32_t> sa) {
  return bwt_from(text, sa);
}

Bwt build_bwt(const PackedText& text, const IntVector& sa) {
  return bwt_from(text, sa);
}

Bwt build_bwt(std::span<const std::uint8_t> text) {
  const auto sa = build_suffix_array(text);
  return build_bwt(text, sa);
}

std::array<std::uint32_t, 4> c_table_of(const Bwt& bwt) {
  std::array<std::uint32_t, 4> counts{};
  for (const std::uint8_t c : bwt.symbols) ++counts[c];
  std::array<std::uint32_t, 4> c_table{};
  std::uint32_t sum = 1;  // the sentinel precedes every base
  for (unsigned c = 0; c < 4; ++c) {
    c_table[c] = sum;
    sum += counts[c];
  }
  return c_table;
}

std::vector<std::uint8_t> inverse_bwt(const Bwt& bwt) {
  const std::size_t n = bwt.text_length;
  const std::size_t rows = n + 1;

  // Counting-sort pass to compute LF: lf[row] = C[column(row)] + occurrences
  // of column(row) before row. The sentinel sorts before every base.
  std::array<std::size_t, 5> counts{};  // index: 0=$ then codes 0..3 shifted by 1
  for (std::size_t row = 0; row < rows; ++row) {
    const std::uint8_t c = bwt.column(row);
    ++counts[c == 4 ? 0 : c + 1];
  }
  std::array<std::size_t, 5> start{};
  std::size_t sum = 0;
  for (std::size_t c = 0; c < 5; ++c) {
    start[c] = sum;
    sum += counts[c];
  }
  std::vector<std::uint32_t> lf(rows);
  std::array<std::size_t, 5> seen{};
  for (std::size_t row = 0; row < rows; ++row) {
    const std::uint8_t c = bwt.column(row);
    const std::size_t bucket = (c == 4) ? 0 : c + 1;
    lf[row] = static_cast<std::uint32_t>(start[bucket] + seen[bucket]++);
  }

  // Row 0 is "$T"; its last column is T[n-1]. Walking LF yields T backwards.
  std::vector<std::uint8_t> text(n);
  std::size_t row = 0;
  for (std::size_t k = n; k-- > 0;) {
    text[k] = bwt.column(row);
    row = lf[row];
  }
  return text;
}

}  // namespace bwaver
