// 2-bit DNA alphabet codec: A=0, C=1, G=2, T(=U)=3. The paper's structure
// is optimized for this 4-symbol alphabet ({A,C,G,T||U}); the sentinel '$'
// is handled out-of-band by the FM-index.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bwaver {

inline constexpr unsigned kDnaAlphabetSize = 4;
inline constexpr std::uint8_t kDnaInvalid = 0xff;

/// The code of every byte: 0-3 for ACGTU in either case, kDnaInvalid for
/// anything else. Read packers index it inline and OR the codes they write,
/// so one pass both packs a read and tells whether it had an invalid base.
inline constexpr std::array<std::uint8_t, 256> kDnaCodeTable = [] {
  std::array<std::uint8_t, 256> table{};
  for (auto& entry : table) entry = kDnaInvalid;
  table['A'] = table['a'] = 0;
  table['C'] = table['c'] = 1;
  table['G'] = table['g'] = 2;
  table['T'] = table['t'] = 3;
  table['U'] = table['u'] = 3;
  return table;
}();

/// Code for one base; kDnaInvalid for anything outside ACGTU (case-insensitive).
inline std::uint8_t dna_encode(char base) noexcept {
  return kDnaCodeTable[static_cast<unsigned char>(base)];
}

/// Base character for a 2-bit code (code & 3).
char dna_decode(std::uint8_t code) noexcept;

/// Complement of a 2-bit code (A<->T, C<->G).
inline constexpr std::uint8_t dna_complement(std::uint8_t code) noexcept {
  return static_cast<std::uint8_t>(3 - (code & 3));
}

/// The code that stands in for an invalid character (e.g. N) at
/// `position`: a pseudo-random base seeded from the position alone.
std::uint8_t dna_substitute(std::size_t position) noexcept;

/// Encodes a string of bases. Throws std::invalid_argument on the first
/// non-ACGTU character unless `substitute_invalid` is true, in which case
/// invalid characters are replaced by dna_substitute(position) — the
/// standard trick for feeding ambiguous reference bases to a 2-bit index.
std::vector<std::uint8_t> dna_encode_string(std::string_view bases,
                                            bool substitute_invalid = false);

/// Decodes a code sequence back to an ACGT string.
std::string dna_decode_string(std::span<const std::uint8_t> codes);

/// Reverse complement of a code sequence.
std::vector<std::uint8_t> dna_reverse_complement(std::span<const std::uint8_t> codes);

/// Reverse complement of a base string (ACGTU only).
std::string dna_reverse_complement_string(std::string_view bases);

}  // namespace bwaver
