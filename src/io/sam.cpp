#include "io/sam.hpp"

#include <charconv>
#include <cstring>

namespace bwaver {

namespace {

char* put(char* out, std::string_view text) noexcept {
  std::memcpy(out, text.data(), text.size());
  return out + text.size();
}

char* put_uint(char* out, std::uint64_t value) noexcept {
  return std::to_chars(out, out + 20, value).ptr;
}

}  // namespace

std::string format_sam_header(std::span<const SamSequence> sequences) {
  std::string out = "@HD\tVN:1.6\tSO:unsorted\n";
  for (const SamSequence& seq : sequences) {
    out += "@SQ\tSN:" + seq.name + "\tLN:" + std::to_string(seq.length) + "\n";
  }
  out += "@PG\tID:bwaver\tPN:bwaver\tVN:1.0\n";
  return out;
}

char* write_sam_mapped(char* out, std::string_view qname, bool reverse,
                       std::string_view rname, std::uint32_t position,
                       std::uint32_t length) noexcept {
  // QNAME FLAG RNAME POS MAPQ CIGAR RNEXT PNEXT TLEN SEQ QUAL; FLAG 16 marks
  // the reverse strand, MAPQ 60 an exact match.
  out = put(out, qname);
  out = put(out, reverse ? "\t16\t" : "\t0\t");
  out = put(out, rname);
  *out++ = '\t';
  out = put_uint(out, std::uint64_t{position} + 1);
  out = put(out, "\t60\t");
  out = put_uint(out, length);
  return put(out, "M\t*\t0\t0\t*\t*\n");
}

char* write_sam_unmapped(char* out, std::string_view qname) noexcept {
  // FLAG 4: unmapped.
  out = put(out, qname);
  return put(out, "\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*\n");
}

}  // namespace bwaver
