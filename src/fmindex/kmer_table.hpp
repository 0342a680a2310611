// K-mer seed table: precomputed SA intervals for every DNA k-mer.
//
// Backward search consumes a pattern right-to-left, so the first k steps of
// every search depend only on the pattern's final k bases. Precomputing the
// SA interval of all 4^k k-mers lets a search start k steps in — the steps
// that dominate runtime, because early intervals are wide and their two occ
// lookups touch distant superblocks (EPR-dictionaries and Snytsar make the
// same observation for CPU FM-index search).
//
// The table is built with a single ordered scan of the suffix array: rows
// whose suffixes share a first-k prefix are contiguous in SA order, so each
// k-mer's interval is one [run-start, run-end) range; suffixes shorter than
// k never interrupt a run (any row between two rows sharing a k-prefix also
// carries that prefix). Absent k-mers keep an empty interval, which
// FmIndex::count treats as "fall back to the classic recurrence" — that rule
// is what makes the seeded search byte-identical to the unseeded one. The
// sweep scheduler (mapper/batch_scheduler.hpp) instead retires such a search
// as no hit: a pattern ending in an absent k-mer cannot occur.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fmindex/sa_interval.hpp"
#include "io/byte_io.hpp"
#include "util/flat_array.hpp"

namespace bwaver {

class KmerSeedTable {
 public:
  /// Hard upper bound on k: 4^15 entries is already 8 GiB of intervals.
  static constexpr unsigned kMaxK = 15;

  /// Default seed length — 4^12 entries (128 MiB of intervals), the point
  /// where table size is still dwarfed by a mammalian-chromosome index but
  /// a third of a short read's steps are precomputed.
  static constexpr unsigned kDefaultK = 12;

  KmerSeedTable() = default;

  /// Largest usable k <= requested_k for a text of `text_length` bases:
  /// caps 4^k at max(4096, 16 * text_length) so tiny (test) references get
  /// proportionally small tables while anything E. coli-sized or larger
  /// still gets the full requested k. Returns 0 when requested_k is 0
  /// (seeding disabled).
  static unsigned capped_k(unsigned requested_k, std::size_t text_length);

  /// Builds the table over the 2-bit-coded text and its suffix array
  /// (sa.size() == text.size() + 1, sentinel row included). `requested_k`
  /// is capped via capped_k(); a cap of 0 yields an empty table (k() == 0).
  static KmerSeedTable build(std::span<const std::uint8_t> text,
                             std::span<const std::uint32_t> sa,
                             unsigned requested_k);

  /// Seed length; 0 means the table is absent/disabled.
  unsigned k() const noexcept { return k_; }
  bool enabled() const noexcept { return k_ != 0; }

  /// Number of table entries (4^k).
  std::size_t entries() const noexcept { return lo_.size(); }

  /// Interval of the k-mer `kmer` (exactly k() codes, pattern order). An
  /// empty interval means the k-mer does not occur (see the file comment for
  /// what callers do then). Returns nullopt for out-of-alphabet codes
  /// (e.g. an un-substituted N) or a length mismatch.
  std::optional<SaInterval> lookup(std::span<const std::uint8_t> kmer) const noexcept {
    if (k_ == 0 || kmer.size() != k_) return std::nullopt;
    std::uint32_t code = 0;
    for (const std::uint8_t c : kmer) {
      if (c > 3) return std::nullopt;
      code = (code << 2) | c;
    }
    return SaInterval{lo_[code], hi_[code]};
  }

  /// Software-prefetches the two entries lookup(kmer) will read (a 4^k
  /// table is far larger than any cache, so each lookup is two misses);
  /// a no-op where lookup would return nullopt. always_inline for the
  /// reason FmIndex::prefetch_step gives.
  [[gnu::always_inline]] void prefetch(std::span<const std::uint8_t> kmer) const noexcept {
    if (k_ == 0 || kmer.size() != k_) return;
    std::uint32_t code = 0;
    for (const std::uint8_t c : kmer) {
      if (c > 3) return;
      code = (code << 2) | c;
    }
    __builtin_prefetch(lo_.data() + code);
    __builtin_prefetch(hi_.data() + code);
  }

  /// Payload bytes of the two interval arrays (heap or mapped).
  std::size_t size_in_bytes() const noexcept {
    return (lo_.size() + hi_.size()) * sizeof(std::uint32_t) + sizeof(std::uint32_t);
  }

  /// Bytes actually on the heap (0 payload for a mapped view).
  std::size_t heap_size_in_bytes() const noexcept {
    return lo_.heap_bytes() + hi_.heap_bytes() + sizeof(std::uint32_t);
  }

  void save(ByteWriter& writer) const;
  static KmerSeedTable load(ByteReader& reader);

  /// Flat 64-byte-aligned layout (archive format v3); adopt=true borrows
  /// both interval arrays from the reader's backing buffer.
  void save_flat(ByteWriter& writer) const;
  static KmerSeedTable load_flat(ByteReader& reader, bool adopt);

 private:
  friend class KmerTableBuilder;

  void validate() const;

  unsigned k_ = 0;
  FlatArray<std::uint32_t> lo_;  // one interval per k-mer code
  FlatArray<std::uint32_t> hi_;
};

/// Incremental row-feed construction of a KmerSeedTable.
///
/// The blockwise index constructor recovers suffix-array rows in ascending
/// row order while streaming them to disk, never holding the whole SA — so
/// it cannot call KmerSeedTable::build. Feeding every (row, position) pair
/// in ascending row order performs the same run-recording scan and yields a
/// table identical to build() over the full SA (same code definition, same
/// short-suffix skip rule); the equivalence is pinned by fm_kmer_table_test.
/// Each feed re-reads k bases (O(k)) instead of using build()'s rolling
/// code array, trading a 4 bytes/base side table for bounded memory.
class KmerTableBuilder {
 public:
  /// `requested_k` is capped via KmerSeedTable::capped_k, like build().
  KmerTableBuilder(std::span<const std::uint8_t> text, unsigned requested_k);

  /// Active after construction iff the capped k is usable for this text;
  /// when false, feed() is a no-op and finish() returns a disabled table.
  bool enabled() const noexcept { return k_ != 0; }
  unsigned k() const noexcept { return k_; }

  /// Records suffix-array row `row` holding text position `pos`. Rows MUST
  /// arrive in ascending row order (gaps from short suffixes are fine).
  void feed(std::uint32_t row, std::uint32_t pos) noexcept {
    if (k_ == 0 || pos + k_ > text_.size()) return;
    std::uint32_t code = 0;
    for (unsigned i = 0; i < k_; ++i) code = (code << 2) | (text_[pos + i] & 3);
    if (code != prev_) {
      lo_[code] = row;
      prev_ = code;
    }
    hi_[code] = row + 1;
  }

  KmerSeedTable finish();

 private:
  std::span<const std::uint8_t> text_;
  unsigned k_ = 0;
  std::uint64_t prev_ = ~std::uint64_t{0};
  std::vector<std::uint32_t> lo_;
  std::vector<std::uint32_t> hi_;
};

}  // namespace bwaver
