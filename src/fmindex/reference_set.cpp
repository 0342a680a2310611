#include "fmindex/reference_set.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace bwaver {

void ReferenceSet::add(const std::string& name, std::span<const std::uint8_t> codes) {
  if (codes.empty()) {
    throw std::invalid_argument("ReferenceSet: empty sequence '" + name + "'");
  }
  if (text_.size() + codes.size() > std::numeric_limits<std::uint32_t>::max() / 2) {
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

}  // namespace bwaver
