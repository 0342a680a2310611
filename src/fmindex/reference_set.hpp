// Multi-sequence reference support.
//
// Real references are sets of chromosomes/contigs. Like BWA, we index their
// plain concatenation — the 2-bit DNA alphabet has no spare separator
// symbol — which means a match can spuriously straddle a boundary between
// two sequences; those hits must be filtered when intervals are resolved to
// positions. ReferenceSet owns the name/offset table, the global->local
// coordinate mapping, and that filter. pack_fasta builds one from FASTA text
// as a ChunkReader hands it out, so an upload or a reference file is never
// held whole, nor at a byte per base.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fmindex/packed_text.hpp"
#include "io/byte_io.hpp"

namespace bwaver {

class ChunkReader;

class ReferenceSet {
 public:
  struct Sequence {
    std::string name;
    std::uint32_t offset = 0;  ///< start in the concatenated text
    std::uint32_t length = 0;
  };

  struct LocalPosition {
    std::uint32_t sequence_index = 0;
    std::uint32_t offset = 0;  ///< 0-based within the sequence
  };

  ReferenceSet() = default;

  /// Assembles a set from a pre-built sequence table and concatenated text
  /// (possibly a zero-copy view into a mapped archive). Performs the same
  /// structural validation as load(); throws IoError on mismatch.
  static ReferenceSet from_parts(std::vector<Sequence> sequences, PackedText text);

  /// Appends a sequence (2-bit codes are appended to the concatenation).
  void add(const std::string& name, std::span<const std::uint8_t> codes);

  std::size_t num_sequences() const noexcept { return sequences_.size(); }
  const std::vector<Sequence>& sequences() const noexcept { return sequences_; }
  const Sequence& sequence(std::size_t i) const { return sequences_.at(i); }

  /// The concatenated text the FM-index is built over, 2 bits per base. May
  /// be a zero-copy view into a mapped archive (heap_size_in_bytes() 0).
  const PackedText& concatenated() const noexcept { return text_; }
  std::size_t total_length() const noexcept { return text_.size(); }

  /// Maps a global position to (sequence, local offset). Throws
  /// std::out_of_range past the end.
  LocalPosition resolve(std::uint32_t global_pos) const;

  /// True iff [global_pos, global_pos + length) lies inside one sequence —
  /// the filter that discards matches straddling a concatenation boundary.
  bool span_within_sequence(std::uint32_t global_pos, std::uint32_t length) const noexcept;

  /// Resolve + filter in one step: nullopt for boundary-straddling spans.
  std::optional<LocalPosition> resolve_span(std::uint32_t global_pos,
                                            std::uint32_t length) const;

  void save(ByteWriter& writer) const;
  static ReferenceSet load(ByteReader& reader);

  /// (De)serializes the name/offset table alone — archive format v3 keeps
  /// the concatenated text in its own flat section (see from_parts).
  void save_table(ByteWriter& writer) const;
  static std::vector<Sequence> load_table(ByteReader& reader);

 private:
  static void validate_table(const std::vector<Sequence>& sequences,
                             std::size_t text_size);

  std::vector<Sequence> sequences_;
  PackedText text_;
};

/// Packs FASTA(.gz) text into a reference as `reader` hands it out, window
/// by window, without holding the text or a byte per base: each record
/// becomes one sequence, its bases 2-bit coded and a base outside ACGTU
/// replaced by dna_substitute(its position in the record). At any chunk size
/// this is the set reference_from_fasta(parse_fasta(<the whole text>))
/// gives, and it throws the IoError (same text) parse_fasta would.
ReferenceSet pack_fasta(ChunkReader& reader);

/// pack_fasta over a FASTA(.gz) file, read in 4 MiB chunks.
ReferenceSet read_reference(const std::string& path);

}  // namespace bwaver
