// Flat, cache-friendly container for a batch of reads (2-bit codes,
// variable length, with their names). Avoids per-read heap allocations: a
// served request's reads are packed straight from the FASTQ body into one
// batch (from_fastq_text), and the engines search runs of it in place
// (ReadSpan).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "io/fastq.hpp"
#include "sim/read_sim.hpp"

namespace bwaver {

class ReadSpan;

class ReadBatch {
 public:
  ReadBatch() {
    offsets_.push_back(0);
    name_offsets_.push_back(0);
  }

  /// Appends an unnamed read.
  void add(std::span<const std::uint8_t> codes) {
    codes_.insert(codes_.end(), codes.begin(), codes.end());
    offsets_.push_back(static_cast<std::uint64_t>(codes_.size()));
    ambiguous_.push_back(0);
    name_offsets_.push_back(static_cast<std::uint64_t>(names_.size()));
  }

  /// Appends a FASTQ read: the name fastq_read_name() takes from `header`,
  /// and `bases` packed in one pass through kDnaCodeTable. A base outside
  /// ACGTU is replaced by dna_substitute(position), which may well match
  /// the reference, so the read is flagged ambiguous() and the mapper
  /// reports it unmapped. Throws IoError for a header with no name.
  void add_fastq(std::string_view header, std::string_view bases);

  std::size_t size() const noexcept { return offsets_.size() - 1; }
  bool empty() const noexcept { return size() == 0; }

  std::span<const std::uint8_t> read(std::size_t i) const noexcept {
    return {codes_.data() + offsets_[i],
            static_cast<std::size_t>(offsets_[i + 1] - offsets_[i])};
  }

  /// The name of read i ("" for reads added without one).
  std::string_view name(std::size_t i) const noexcept {
    return std::string_view(names_).substr(
        name_offsets_[i], static_cast<std::size_t>(name_offsets_[i + 1] - name_offsets_[i]));
  }

  /// Bytes of all read names together.
  std::size_t name_bytes() const noexcept { return names_.size(); }

  /// Reads [first, first + count), viewed in place.
  ReadSpan reads(std::size_t first, std::size_t count) const noexcept;

  std::size_t total_bases() const noexcept { return codes_.size(); }

  /// True iff read i had a base outside ACGTU, substituted when it was
  /// packed: its codes can be searched, but it is never an exact hit.
  bool ambiguous(std::size_t i) const noexcept { return ambiguous_[i] != 0; }

  void reserve(std::size_t reads, std::size_t bases) {
    offsets_.reserve(reads + 1);
    ambiguous_.reserve(reads);
    name_offsets_.reserve(reads + 1);
    codes_.reserve(bases);
  }

  /// Builds a batch from simulated reads (unnamed).
  static ReadBatch from_simulated(std::span<const SimulatedRead> reads);

  /// Builds a batch from FASTQ records through add_fastq: the records
  /// adapter the record-based entry points pack with.
  static ReadBatch from_fastq(std::span<const FastqRecord> records);

  /// Packs every record `scanner` yields, in one pass over its text with no
  /// per-read allocation. Gives the same batch as
  /// from_fastq(<the records parse_fastq would return>) and throws IoError
  /// exactly when that would.
  static ReadBatch from_fastq_text(FastqScanner& scanner);

  /// Packs a FASTQ(.gz) request body: gzip is inflated once, plain text is
  /// scanned in place.
  static ReadBatch from_fastq_bytes(std::span<const std::uint8_t> body);

 private:
  std::vector<std::uint8_t> codes_;
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint8_t> ambiguous_;  ///< one flag per read
  std::string names_;                    ///< every read's name, back to back
  std::vector<std::uint64_t> name_offsets_;
};

/// Consecutive reads of a ReadBatch, viewed in place: what the engines
/// search. Read i of the span is read first + i of the batch, and results
/// are indexed by span position. Valid while the batch is.
class ReadSpan {
 public:
  /// The whole batch; implicit, so a batch goes wherever a span does.
  ReadSpan(const ReadBatch& batch) noexcept : ReadSpan(batch.reads(0, batch.size())) {}

  ReadSpan(const std::uint8_t* codes, const std::uint64_t* offsets, std::size_t size) noexcept
      : codes_(codes), offsets_(offsets), size_(size) {}

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  std::span<const std::uint8_t> read(std::size_t i) const noexcept {
    return {codes_ + offsets_[i], static_cast<std::size_t>(offsets_[i + 1] - offsets_[i])};
  }

  /// The codes of reads [first, first + count), back to back as the batch
  /// stores them: read first + k starts at read(first + k).data().
  std::span<const std::uint8_t> codes(std::size_t first, std::size_t count) const noexcept {
    return {codes_ + offsets_[first],
            static_cast<std::size_t>(offsets_[first + count] - offsets_[first])};
  }

 private:
  const std::uint8_t* codes_;
  const std::uint64_t* offsets_;  ///< size_ + 1 absolute offsets into codes_
  std::size_t size_;
};

inline ReadSpan ReadBatch::reads(std::size_t first, std::size_t count) const noexcept {
  return ReadSpan(codes_.data(), offsets_.data() + first, count);
}

}  // namespace bwaver
