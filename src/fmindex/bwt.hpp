// Burrows-Wheeler transform over 2-bit DNA codes.
//
// Following the paper (Sec. III-B), the sentinel '$' is NOT stored in the
// transformed sequence: `symbols` holds the BWT column with the sentinel
// squeezed out (length n), and `primary` records the row index where the
// sentinel would sit. Rank queries over the original (n+1)-row column are
// answered on the squeezed sequence with a one-position adjustment past
// `primary` (see FmIndex::occ).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "fmindex/packed_text.hpp"
#include "succinct/int_vector.hpp"
#include "util/flat_array.hpp"

namespace bwaver {

struct Bwt {
  FlatArray<std::uint8_t> symbols;    ///< squeezed BWT, codes 0..3, length n
  std::uint32_t primary = 0;          ///< row of the sentinel in the full column
  std::uint32_t text_length = 0;      ///< n

  /// Symbol of the full (n+1)-row BWT column at `row`, where the sentinel
  /// row yields 4 (a pseudo-code outside the DNA alphabet).
  std::uint8_t column(std::size_t row) const noexcept {
    if (row == primary) return 4;
    return symbols[row < primary ? row : row - 1];
  }
};

/// Builds the BWT of `text` from its (n+1)-entry suffix array.
Bwt build_bwt(std::span<const std::uint8_t> text, std::span<const std::uint32_t> sa);

/// The same over a packed text.
Bwt build_bwt(const PackedText& text, std::span<const std::uint32_t> sa);

/// The same from a packed suffix array (the lean build's order: the 4-byte
/// array is packed and freed before the BWT is drawn).
Bwt build_bwt(const PackedText& text, const IntVector& sa);

/// Convenience: SA construction + BWT in one call.
Bwt build_bwt(std::span<const std::uint8_t> text);

/// Inverts the transform, reconstructing the original text. Used by the
/// round-trip property tests.
std::vector<std::uint8_t> inverse_bwt(const Bwt& bwt);

/// C table over the squeezed BWT: c_table[c] = number of full-column rows
/// whose first character sorts before code c — 1 for the sentinel plus the
/// counts of all smaller codes. Shared by the archive writer and the
/// blockwise merge (where it doubles as the rank base over partial BWTs).
std::array<std::uint32_t, 4> c_table_of(const Bwt& bwt);

}  // namespace bwaver
