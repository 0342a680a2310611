#include "fmindex/reference_set.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "fmindex/dna.hpp"
#include "io/chunk_reader.hpp"

namespace bwaver {

namespace {

/// Bases past which a concatenation has no 32-bit coordinates left.
constexpr std::uint64_t kMaxBases = std::numeric_limits<std::uint32_t>::max() / 2;

/// A byte of a FASTA sequence line: its 2-bit code, kDnaInvalid for a base
/// outside ACGTU, or kFastaSkip for the spaces, tabs and CRs that are no
/// base at all.
constexpr std::uint8_t kFastaSkip = 0xfe;
constexpr std::array<std::uint8_t, 256> kFastaCodeTable = [] {
  std::array<std::uint8_t, 256> table = kDnaCodeTable;
  table[' '] = table['\t'] = table['\r'] = kFastaSkip;
  return table;
}();

/// parse_fasta's grammar, fed a window at a time and packed as it goes.
/// Lines end at '\n'. A line of nothing but CRs is blank; a line whose
/// first byte is '>' is a header, named by the rest of it less trailing
/// spaces, tabs and CRs; any other line holds bases of the current record.
class FastaPacker {
 public:
  void reserve(std::size_t bases) { text_.reserve(bases); }
  void feed(std::string_view text);
  ReferenceSet finish();

 private:
  enum class Line { kStart, kBlank, kHeader, kBases };

  void end_header();
  void end_record();
  void add_bases(std::string_view bytes);
  void flush();

  Line line_ = Line::kStart;
  std::string header_;  ///< the header line read so far, after its '>'
  std::vector<ReferenceSet::Sequence> sequences_;  ///< the last one is open
  std::uint64_t record_bases_ = 0;
  std::uint64_t total_bases_ = 0;  ///< counted on past kMaxBases
  PackedText text_;
  std::array<std::uint8_t, 4096> codes_{};  ///< codes not yet in text_
  std::size_t pending_ = 0;
};

void FastaPacker::feed(std::string_view text) {
  const char* at = text.data();
  const char* const end = at + text.size();
  while (at < end) {
    if (line_ == Line::kStart || line_ == Line::kBlank) {
      // The first byte that is not a CR decides what the line is.
      const char c = *at;
      if (c == '\n' || c == '\r') {
        line_ = c == '\n' ? Line::kStart : Line::kBlank;
        ++at;
        continue;
      }
      if (c == '>' && line_ == Line::kStart) {
        line_ = Line::kHeader;
        ++at;
        continue;
      }
      if (sequences_.empty()) {
        throw IoError("parse_fasta: sequence data before first '>' header");
      }
      line_ = Line::kBases;
    }
    const auto* eol = static_cast<const char*>(std::memchr(at, '\n', end - at));
    const char* const stop = eol != nullptr ? eol : end;
    const std::string_view bytes(at, static_cast<std::size_t>(stop - at));
    if (line_ == Line::kHeader) {
      header_ += bytes;
    } else {
      add_bases(bytes);
    }
    at = stop;
    if (eol != nullptr) {
      if (line_ == Line::kHeader) end_header();
      line_ = Line::kStart;
      ++at;
    }
  }
}

void FastaPacker::end_header() {
  while (!header_.empty() &&
         (header_.back() == ' ' || header_.back() == '\t' || header_.back() == '\r')) {
    header_.pop_back();
  }
  end_record();
  ReferenceSet::Sequence sequence;
  sequence.name = std::move(header_);
  sequence.offset = static_cast<std::uint32_t>(text_.size());
  sequences_.push_back(std::move(sequence));
  header_.clear();
  record_bases_ = 0;
}

void FastaPacker::end_record() {
  if (sequences_.empty()) return;
  flush();
  if (record_bases_ == 0) {
    throw IoError("parse_fasta: record '" + sequences_.back().name + "' has empty sequence");
  }
  sequences_.back().length = static_cast<std::uint32_t>(record_bases_);
}

void FastaPacker::add_bases(std::string_view bytes) {
  for (const char c : bytes) {
    std::uint8_t code = kFastaCodeTable[static_cast<unsigned char>(c)];
    if (code == kFastaSkip) continue;
    if (code == kDnaInvalid) code = dna_substitute(record_bases_);
    codes_[pending_++] = code;
    ++record_bases_;
    if (pending_ == codes_.size()) flush();
  }
}

void FastaPacker::flush() {
  if (pending_ == 0) return;
  total_bases_ += pending_;
  // Past the limit the text stops growing, but the rest is still parsed:
  // a malformed record later on is reported first, as parse_fasta would.
  if (total_bases_ <= kMaxBases) text_.append({codes_.data(), pending_});
  pending_ = 0;
}

ReferenceSet FastaPacker::finish() {
  if (line_ == Line::kHeader) end_header();  // an unterminated last line
  if (sequences_.empty()) throw IoError("parse_fasta: no records found");
  end_record();
  if (total_bases_ > kMaxBases) {
    throw std::length_error("ReferenceSet: concatenation exceeds 32-bit coordinates");
  }
  return ReferenceSet::from_parts(std::move(sequences_), std::move(text_));
}

}  // namespace

void ReferenceSet::add(const std::string& name, std::span<const std::uint8_t> codes) {
  if (codes.empty()) {
    throw std::invalid_argument("ReferenceSet: empty sequence '" + name + "'");
  }
  if (text_.size() + codes.size() > kMaxBases) {
    throw std::length_error("ReferenceSet: concatenation exceeds 32-bit coordinates");
  }
  Sequence sequence;
  sequence.name = name;
  sequence.offset = static_cast<std::uint32_t>(text_.size());
  sequence.length = static_cast<std::uint32_t>(codes.size());
  sequences_.push_back(std::move(sequence));
  text_.append(codes);
}

ReferenceSet ReferenceSet::from_parts(std::vector<Sequence> sequences, PackedText text) {
  validate_table(sequences, text.size());
  ReferenceSet set;
  set.sequences_ = std::move(sequences);
  set.text_ = std::move(text);
  return set;
}

ReferenceSet::LocalPosition ReferenceSet::resolve(std::uint32_t global_pos) const {
  if (global_pos >= text_.size()) {
    throw std::out_of_range("ReferenceSet::resolve: position past end");
  }
  // Binary search for the last sequence starting at or before global_pos.
  auto it = std::upper_bound(
      sequences_.begin(), sequences_.end(), global_pos,
      [](std::uint32_t pos, const Sequence& seq) { return pos < seq.offset; });
  const std::size_t index = static_cast<std::size_t>(it - sequences_.begin()) - 1;
  return LocalPosition{static_cast<std::uint32_t>(index),
                       global_pos - sequences_[index].offset};
}

bool ReferenceSet::span_within_sequence(std::uint32_t global_pos,
                                        std::uint32_t length) const noexcept {
  if (global_pos + length > text_.size() || length == 0) return false;
  auto it = std::upper_bound(
      sequences_.begin(), sequences_.end(), global_pos,
      [](std::uint32_t pos, const Sequence& seq) { return pos < seq.offset; });
  const Sequence& seq = *(it - 1);
  return global_pos + length <= seq.offset + seq.length;
}

std::optional<ReferenceSet::LocalPosition> ReferenceSet::resolve_span(
    std::uint32_t global_pos, std::uint32_t length) const {
  // span_within_sequence and resolve in one binary search: locate runs this
  // once per reported row.
  if (length == 0 || std::uint64_t{global_pos} + length > text_.size()) return std::nullopt;
  const auto it = std::upper_bound(
      sequences_.begin(), sequences_.end(), global_pos,
      [](std::uint32_t pos, const Sequence& seq) { return pos < seq.offset; });
  const Sequence& seq = *(it - 1);
  if (std::uint64_t{global_pos} + length > std::uint64_t{seq.offset} + seq.length) {
    return std::nullopt;
  }
  return LocalPosition{static_cast<std::uint32_t>(it - sequences_.begin() - 1),
                       global_pos - seq.offset};
}

void ReferenceSet::save(ByteWriter& writer) const {
  save_table(writer);
  writer.vec_u8(text_.unpack());
}

ReferenceSet ReferenceSet::load(ByteReader& reader) {
  ReferenceSet set;
  set.sequences_ = load_table(reader);
  set.text_ = PackedText(reader.vec_u8());
  validate_table(set.sequences_, set.text_.size());
  return set;
}

void ReferenceSet::save_table(ByteWriter& writer) const {
  writer.u64(sequences_.size());
  for (const Sequence& seq : sequences_) {
    writer.str(seq.name);
    writer.u32(seq.offset);
    writer.u32(seq.length);
  }
}

std::vector<ReferenceSet::Sequence> ReferenceSet::load_table(ByteReader& reader) {
  const std::uint64_t count = reader.u64();
  std::vector<Sequence> sequences;
  sequences.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Sequence seq;
    seq.name = reader.str();
    seq.offset = reader.u32();
    seq.length = reader.u32();
    sequences.push_back(std::move(seq));
  }
  return sequences;
}

void ReferenceSet::validate_table(const std::vector<Sequence>& sequences,
                                  std::size_t text_size) {
  // Structural validation: contiguous, ordered, covering the text.
  std::uint64_t cursor = 0;
  for (const Sequence& seq : sequences) {
    if (seq.offset != cursor || seq.length == 0) {
      throw IoError("ReferenceSet::load: corrupt sequence table");
    }
    cursor += seq.length;
  }
  if (cursor != text_size) {
    throw IoError("ReferenceSet::load: sequence table does not cover text");
  }
}

ReferenceSet pack_fasta(ChunkReader& reader) {
  FastaPacker packer;
  for (bool first = true; reader.read_more(); first = false) {
    // The text bounds the bases (gzip's is known after the first window).
    if (first) packer.reserve(reader.bytes_left());
    packer.feed(reader.text());
    reader.consume(reader.text().size());
  }
  return packer.finish();
}

ReferenceSet read_reference(const std::string& path) {
  FileSource file(path);
  ChunkReader reader(file, std::size_t{4} << 20);
  return pack_fasta(reader);
}

}  // namespace bwaver
