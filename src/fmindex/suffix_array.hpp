// Suffix array construction.
//
// The paper's pipeline step 1 ("BWT and SA computation") needs the full
// suffix array of reference-plus-sentinel: the FPGA returns SA intervals and
// the host resolves them to positions through SA. We build it with SA-IS
// (Nong, Zhang & Chan) — linear time — plus a naive O(n^2 log n) comparator
// used as the oracle in tests.
//
// The only large array is the SA itself. The level-0 text is read as it is
// held (bytes, or 2-bit codes in place) with a virtual sentinel; suffix
// types are one bit each; the LMS names and
// the reduced string of every recursion level live in the SA's free space,
// and a deeper level keeps its buckets in the gap between its SA and its
// string. Workspace: 4(n + 1) bytes of SA + n/8 of type bits (+ n/16 for
// the first reduced level, and so on), beside the text.
//
// Convention: for a text T of length n the returned array has n+1 entries
// and orders the suffixes of T$ where '$' is a unique sentinel smaller than
// every symbol; SA[0] == n always (the empty/sentinel suffix).
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "fmindex/packed_text.hpp"
#include "succinct/int_vector.hpp"

namespace bwaver {

/// Bits per suffix-array entry for a text of n bases: entries run 0..n, so
/// ceil(log2(n + 1)) bits (23 for E. coli, 26 for chr21), at least 1.
inline unsigned suffix_array_width(std::size_t n) noexcept {
  return std::max(1u, static_cast<unsigned>(std::bit_width(n)));
}

/// A stored 4-byte suffix array of a text of n bases (archive formats
/// v1..v5, the legacy index file) at suffix_array_width(n) bits per entry.
/// An entry too wide for that width would keep only its low bits, a wrong
/// position that may fall inside the text, so it is refused with IoError;
/// one that fits but lies past the text is bounded where it is used, as a
/// v6 entry is. The check rides on the packing pass.
IntVector pack_stored_suffix_array(std::span<const std::uint32_t> sa, std::size_t n);

/// SA-IS. `text` holds symbols in [0, alphabet_size); length must fit in
/// 32-bit indices. Returns the (n+1)-entry suffix array of T$, the one O(n)
/// allocation of the build besides n/8 bytes of type bits.
std::vector<std::uint32_t> build_suffix_array(std::span<const std::uint8_t> text,
                                              unsigned alphabet_size = 4);

namespace detail {
/// SA-IS reading the 2-bit codes where they lie: no byte copy of the text.
std::vector<std::uint32_t> packed_suffix_array(const PackedText& text);
}  // namespace detail

/// SA-IS over a packed text, read in place (so the build holds the SA, its
/// type bits and the 0.25 B/base text, nothing else of size n). A template
/// only so that `build_suffix_array({})` still names the span overload.
template <std::same_as<PackedText> Text>
std::vector<std::uint32_t> build_suffix_array(const Text& text) {
  return detail::packed_suffix_array(text);
}

/// Brute-force comparison-sort construction (test oracle; small inputs only).
std::vector<std::uint32_t> build_suffix_array_naive(std::span<const std::uint8_t> text);

}  // namespace bwaver
