// Minimal SAM output for mapping results: header plus one line per reported
// occurrence (exact matches only, so CIGAR is always <len>M). This is the
// "results made available for download" artifact of the paper's pipeline.
// Multi-sequence references emit one @SQ line per chromosome/contig.
//
// The line writers print into a caller-sized buffer: the mapper sizes it
// once for a whole batch from kSamLineBytes and the name lengths, then
// writes every line without a further allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace bwaver {

struct SamSequence {
  std::string name;
  std::uint64_t length = 0;
};

/// Renders the @HD/@SQ/@PG header.
std::string format_sam_header(std::span<const SamSequence> sequences);

/// Bytes an alignment line needs beyond its QNAME and RNAME: the tabs, the
/// newline and the widest FLAG, POS, MAPQ, CIGAR and fixed fields.
inline constexpr std::size_t kSamLineBytes = 64;

/// Writes the line of an exact hit of a `length`-base read at 0-based
/// `position` of `rname` (printed 1-based) to `out`; returns its end.
char* write_sam_mapped(char* out, std::string_view qname, bool reverse,
                       std::string_view rname, std::uint32_t position,
                       std::uint32_t length) noexcept;

/// Writes the line of an unmapped read to `out`; returns its end.
char* write_sam_unmapped(char* out, std::string_view qname) noexcept;

}  // namespace bwaver
