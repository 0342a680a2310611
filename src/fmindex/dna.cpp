#include "fmindex/dna.hpp"

#include <stdexcept>

namespace bwaver {

namespace {
constexpr char kDecodeTable[4] = {'A', 'C', 'G', 'T'};
}  // namespace

char dna_decode(std::uint8_t code) noexcept { return kDecodeTable[code & 3]; }

std::uint8_t dna_substitute(std::size_t position) noexcept {
  // Deterministic position-seeded substitution (splitmix-style hash).
  std::uint64_t h = (position + 1) * 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return static_cast<std::uint8_t>((h >> 61) & 3);
}

std::vector<std::uint8_t> dna_encode_string(std::string_view bases,
                                            bool substitute_invalid) {
  std::vector<std::uint8_t> codes;
  codes.reserve(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    std::uint8_t code = dna_encode(bases[i]);
    if (code == kDnaInvalid) {
      if (!substitute_invalid) {
        throw std::invalid_argument("dna_encode_string: invalid base '" +
                                    std::string(1, bases[i]) + "' at position " +
                                    std::to_string(i));
      }
      code = dna_substitute(i);
    }
    codes.push_back(code);
  }
  return codes;
}

std::string dna_decode_string(std::span<const std::uint8_t> codes) {
  std::string bases;
  bases.reserve(codes.size());
  for (std::uint8_t code : codes) bases.push_back(dna_decode(code));
  return bases;
}

std::vector<std::uint8_t> dna_reverse_complement(std::span<const std::uint8_t> codes) {
  std::vector<std::uint8_t> rc;
  rc.reserve(codes.size());
  for (std::size_t i = codes.size(); i-- > 0;) {
    rc.push_back(dna_complement(codes[i]));
  }
  return rc;
}

std::string dna_reverse_complement_string(std::string_view bases) {
  auto codes = dna_encode_string(bases);
  return dna_decode_string(dna_reverse_complement(codes));
}

}  // namespace bwaver
