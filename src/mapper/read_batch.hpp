// Flat, cache-friendly container for a batch of reads (2-bit codes,
// variable length). Avoids per-read heap allocations when benchmarking
// millions of reads.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "io/fastq.hpp"
#include "sim/read_sim.hpp"

namespace bwaver {

class ReadBatch {
 public:
  ReadBatch() { offsets_.push_back(0); }

  void add(std::span<const std::uint8_t> codes) {
    codes_.insert(codes_.end(), codes.begin(), codes.end());
    offsets_.push_back(static_cast<std::uint64_t>(codes_.size()));
    ambiguous_.push_back(0);
  }

  std::size_t size() const noexcept { return offsets_.size() - 1; }
  bool empty() const noexcept { return size() == 0; }

  std::span<const std::uint8_t> read(std::size_t i) const noexcept {
    return {codes_.data() + offsets_[i],
            static_cast<std::size_t>(offsets_[i + 1] - offsets_[i])};
  }

  std::size_t total_bases() const noexcept { return codes_.size(); }

  /// True iff read i had a base outside ACGTU, substituted when it was
  /// packed: its codes can be searched, but it is never an exact hit.
  bool ambiguous(std::size_t i) const noexcept { return ambiguous_[i] != 0; }

  void reserve(std::size_t reads, std::size_t bases) {
    offsets_.reserve(reads + 1);
    ambiguous_.reserve(reads);
    codes_.reserve(bases);
  }

  /// Builds a batch from simulated reads.
  static ReadBatch from_simulated(std::span<const SimulatedRead> reads);

  /// Builds a batch from FASTQ records. A base outside ACGTU is replaced by
  /// dna_substitute(position), which may well match the reference, so the
  /// read is flagged ambiguous() and the mapper reports it unmapped.
  static ReadBatch from_fastq(std::span<const FastqRecord> records);

 private:
  std::vector<std::uint8_t> codes_;
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint8_t> ambiguous_;  ///< one flag per read
};

}  // namespace bwaver
