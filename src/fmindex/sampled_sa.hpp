// Sampled suffix array.
//
// The paper keeps the full SA on the host (4 bytes/base). Production
// FM-index mappers instead sample it — store SA[row] only where
// SA[row] % rate == 0 — and recover any entry by walking the LF mapping
// until a sampled row is reached: SA[row] = SA[LF^k(row)] + k. This trades
// locate time (<= rate-1 LF steps) for an SA footprint of ~4/rate
// bytes/base, and is the standard memory-conscious companion to the
// succinct Occ structure (it is what "allow reference sequences longer than
// 100 millions bp", the paper's future work, requires on the host side).
//
// Layout: a bit per row marking sampled rows, a two-level rank directory
// over it, and the sampled values packed at ceil(log2(n+1)) bits each.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "succinct/bitvector.hpp"
#include "succinct/int_vector.hpp"
#include "succinct/rank_support.hpp"
#include "util/bits.hpp"

namespace bwaver {

class SampledSuffixArray {
 public:
  SampledSuffixArray() = default;

  /// Samples a packed suffix array (FmIndex::suffix_array()).
  SampledSuffixArray(const IntVector& sa, unsigned rate)
      : SampledSuffixArray(sa.unpack_u32(), rate) {}

  /// Samples the (n+1)-entry suffix array at `rate` (1 = keep everything).
  SampledSuffixArray(std::span<const std::uint32_t> sa, unsigned rate)
      : rate_(rate), rows_(sa.size()) {
    if (rate == 0) throw std::invalid_argument("SampledSuffixArray: rate must be >= 1");
    std::size_t samples = 0;
    // Heap-allocated so the rank directory's internal pointer stays valid
    // when the SampledSuffixArray itself is moved.
    marks_ = std::make_unique<BitVector>(sa.size(), false);
    for (std::size_t row = 0; row < sa.size(); ++row) {
      if (sa[row] % rate == 0) {
        marks_->set(row, true);
        ++samples;
      }
    }
    rank_ = RankSupport(*marks_);
    values_ = IntVector(samples, std::max(1u, ceil_log2(sa.size() + 1)));
    std::size_t cursor = 0;
    for (std::size_t row = 0; row < sa.size(); ++row) {
      if (marks_->get(row)) values_.set(cursor++, sa[row]);
    }
  }

  unsigned rate() const noexcept { return rate_; }
  std::size_t rows() const noexcept { return rows_; }

  bool is_sampled(std::uint32_t row) const noexcept { return marks_->get(row); }

  /// Recovers SA[row] through the index's LF mapping. The walk terminates
  /// within `rate` steps because every residue class 0 (mod rate) of text
  /// positions is sampled, and each LF step decrements the text position.
  template <typename Index>
  std::uint32_t lookup(const Index& index, std::uint32_t row) const {
    std::uint32_t steps = 0;
    while (!marks_->get(row)) {
      row = index.lf(row);
      ++steps;
    }
    const std::size_t slot = rank_.rank1(row);
    return static_cast<std::uint32_t>(values_.get(slot)) + steps;
  }

  std::size_t size_in_bytes() const noexcept {
    return (marks_ ? marks_->size_in_bytes() : 0) + rank_.size_in_bytes() +
           values_.size_in_bytes();
  }

  /// Binary (de)serialization; the rank directory is rebuilt on load.
  void save(ByteWriter& writer) const {
    writer.u32(rate_);
    writer.u64(rows_);
    if (marks_) {
      marks_->save(writer);
    } else {
      BitVector{}.save(writer);
    }
    values_.save(writer);
  }
  static SampledSuffixArray load(ByteReader& reader) {
    SampledSuffixArray ssa;
    ssa.rate_ = reader.u32();
    if (ssa.rate_ == 0) throw IoError("SampledSuffixArray::load: corrupt rate");
    ssa.rows_ = reader.u64();
    ssa.marks_ = std::make_unique<BitVector>(BitVector::load(reader));
    ssa.rank_ = RankSupport(*ssa.marks_);
    ssa.values_ = IntVector::load(reader);
    return ssa;
  }

 private:
  unsigned rate_ = 1;
  std::size_t rows_ = 0;
  std::unique_ptr<BitVector> marks_;
  RankSupport rank_;
  IntVector values_;
};

/// Sampled *inverse* suffix array: ISA[k*rate] for every k, plus the
/// sentinel entry. Together with the LF mapping this turns the FM-index
/// into a self-index: any text substring can be extracted without storing
/// the text ("display" in FM-index terms), at <= rate extra LF steps per
/// extraction.
class SampledInverseSuffixArray {
 public:
  SampledInverseSuffixArray() = default;

  /// Samples the inverse of a packed suffix array (FmIndex::suffix_array()).
  SampledInverseSuffixArray(const IntVector& sa, unsigned rate)
      : SampledInverseSuffixArray(sa.unpack_u32(), rate) {}

  SampledInverseSuffixArray(std::span<const std::uint32_t> sa, unsigned rate)
      : rate_(rate), text_length_(sa.size() - 1) {
    if (rate == 0) {
      throw std::invalid_argument("SampledInverseSuffixArray: rate must be >= 1");
    }
    const std::size_t samples = text_length_ / rate + 1;
    rows_ = IntVector(samples, std::max(1u, ceil_log2(sa.size() + 1)));
    for (std::size_t row = 0; row < sa.size(); ++row) {
      if (sa[row] % rate == 0 && sa[row] / rate < samples) {
        rows_.set(sa[row] / rate, row);
      }
    }
  }

  unsigned rate() const noexcept { return rate_; }

  /// Row of the suffix starting at text position k*rate.
  std::uint32_t row_at_sample(std::size_t k) const noexcept {
    return static_cast<std::uint32_t>(rows_.get(k));
  }

  /// Extracts text[start, start+length) by walking LF backwards from the
  /// nearest sampled anchor at or after the window's end.
  template <typename Index>
  std::vector<std::uint8_t> extract(const Index& index, std::uint32_t start,
                                    std::uint32_t length) const {
    if (start + length > text_length_) {
      throw std::out_of_range("SampledInverseSuffixArray::extract: past text end");
    }
    std::vector<std::uint8_t> out(length);
    if (length == 0) return out;

    const std::uint32_t end = start + length;
    // Anchor: smallest sampled position >= end (the sentinel row anchors
    // position text_length itself: ISA[n] is row 0).
    const std::uint32_t anchor_index = (end + rate_ - 1) / rate_;
    std::uint32_t anchor_pos;
    std::uint32_t row;
    if (static_cast<std::size_t>(anchor_index) * rate_ >= text_length_) {
      anchor_pos = static_cast<std::uint32_t>(text_length_);
      row = 0;  // ISA[n]: the sentinel suffix is always the first row
    } else {
      anchor_pos = anchor_index * rate_;
      row = row_at_sample(anchor_index);
    }
    // Each LF step reveals the character before the current suffix.
    for (std::uint32_t pos = anchor_pos; pos > start; --pos) {
      const std::uint8_t c = index.bwt_at(row);
      if (pos <= end) out[pos - 1 - start] = c;
      row = index.lf(row);
    }
    return out;
  }

  std::size_t size_in_bytes() const noexcept { return rows_.size_in_bytes(); }

  void save(ByteWriter& writer) const {
    writer.u32(rate_);
    writer.u64(text_length_);
    rows_.save(writer);
  }
  static SampledInverseSuffixArray load(ByteReader& reader) {
    SampledInverseSuffixArray isa;
    isa.rate_ = reader.u32();
    if (isa.rate_ == 0) throw IoError("SampledInverseSuffixArray::load: corrupt rate");
    isa.text_length_ = reader.u64();
    isa.rows_ = IntVector::load(reader);
    return isa;
  }

 private:
  unsigned rate_ = 1;
  std::size_t text_length_ = 0;
  IntVector rows_;
};

}  // namespace bwaver
