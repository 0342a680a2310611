// K-mer seed table: precomputed SA intervals for every DNA k-mer.
//
// Backward search consumes a pattern right-to-left, so the first k steps of
// every search depend only on the pattern's final k bases. Precomputing the
// SA interval of all 4^k k-mers lets a search start k steps in — the steps
// that dominate runtime, because early intervals are wide and their two occ
// lookups touch distant superblocks (EPR-dictionaries and Snytsar make the
// same observation for CPU FM-index search).
//
// Rows whose suffixes share a first-k prefix are contiguous in SA order,
// and those runs appear in k-mer code order, so the runs tile the suffix
// array. The table is therefore ONE array B of 4^k + 1 run boundaries:
// the run of code x starts at row B[x], and B[4^k] is the SA row count.
// The only rows outside every run are the sentinel row (row 0) and the
// rows of the <= k-1 suffixes shorter than k. A short suffix s of length
// j sorts just before the run of code s·A^(k-j) (its `$` is smaller than
// any base), so
//
//     lo(x) = B[x],   hi(x) = B[x+1] - (short suffixes whose code is x+1).
//
// The short suffixes are the text's last k-1 bases, so their codes come
// from the text and are not stored. Run x holds exactly the text's k-mers
// of code x, so B follows from k-mer counts alone: build() reads the text,
// never the suffix array. An absent k-mer gets the empty
// interval [B[x], B[x]), which FmIndex::count treats as "fall back to the
// classic recurrence" — that rule is what makes the seeded search
// byte-identical to the unseeded one. The sweep scheduler
// (mapper/batch_scheduler.hpp) instead retires such a search as no hit: a
// pattern ending in an absent k-mer cannot occur.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fmindex/packed_text.hpp"
#include "fmindex/sa_interval.hpp"
#include "io/byte_io.hpp"
#include "util/flat_array.hpp"

namespace bwaver {

class KmerSeedTable {
 public:
  /// Hard upper bound on k: 4^15 boundaries are already 4 GiB.
  static constexpr unsigned kMaxK = 15;

  /// Largest k the budget rule picks: 4^12 boundaries, 64 MiB.
  static constexpr unsigned kMaxBudgetK = 12;

  KmerSeedTable() = default;

  /// Largest usable k <= requested_k for a text of `text_length` bases:
  /// caps 4^k at max(4096, 16 * text_length) so tiny (test) references get
  /// proportionally small tables. Returns 0 when requested_k is 0 (seeding
  /// disabled).
  static unsigned capped_k(unsigned requested_k, std::size_t text_length);

  /// The seed length when none is requested: the largest k <= kMaxBudgetK
  /// with 4^k <= max(4096, text_length / 2), so the boundary array stays at
  /// or under 2 bytes per base (beyond the 16 KiB capped_k also grants tiny
  /// references). k = 10 for E. coli, 12 for human chr21.
  static unsigned budget_k(std::size_t text_length);

  /// An explicit request capped by capped_k(); no request means budget_k().
  static unsigned resolve_k(std::optional<unsigned> requested_k, std::size_t text_length);

  /// Bytes of the boundary array at seed length k (0 for k == 0).
  static std::size_t table_bytes(unsigned k) noexcept {
    return k == 0 ? 0 : ((std::size_t{1} << (2 * k)) + 1) * sizeof(std::uint32_t);
  }

  /// Builds the table over the 2-bit-coded text, with k from resolve_k();
  /// k == 0 or a text shorter than k yields an empty table (k() == 0).
  /// No suffix array is read: the run of code x holds exactly the suffixes
  /// that start with x, so its first row is 1 (the sentinel) + the text's
  /// k-mers below x + the short suffixes padded to a code <= x. One
  /// counting pass over the text and one prefix sum over the boundaries
  /// build it — in any phase of an index build, the SA freed or not.
  static KmerSeedTable build(std::span<const std::uint8_t> text,
                             std::optional<unsigned> requested_k);
  static KmerSeedTable build(const PackedText& text, std::optional<unsigned> requested_k);

  /// Seed length; 0 means the table is absent/disabled.
  unsigned k() const noexcept { return k_; }
  bool enabled() const noexcept { return k_ != 0; }

  /// Number of k-mer codes (4^k).
  std::size_t entries() const noexcept { return k_ == 0 ? 0 : bounds_.size() - 1; }

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
    return interval(code);
  }

  /// Interval of k-mer code `code` (< entries()): two adjacent boundaries,
  /// so one cache line in 15 of 16 codes.
  SaInterval interval(std::uint32_t code) const noexcept {
    return SaInterval{bounds_[code], bounds_[code + 1] - short_rows(code + 1)};
  }

  /// Software-prefetches the boundaries lookup(kmer) will read (a 4^k
  /// table is far larger than any cache, so each lookup is a miss); a
  /// no-op where lookup would return nullopt. always_inline for the reason
  /// FmIndex::prefetch_step gives.
  [[gnu::always_inline]] void prefetch(std::span<const std::uint8_t> kmer) const noexcept {
    if (k_ == 0 || kmer.size() != k_) return;
    std::uint32_t code = 0;
    for (const std::uint8_t c : kmer) {
      if (c > 3) return;
      code = (code << 2) | c;
    }
    __builtin_prefetch(bounds_.data() + code);
    __builtin_prefetch(bounds_.data() + code + 1);
  }

  /// Payload bytes of the boundary array (heap or mapped).
  std::size_t size_in_bytes() const noexcept {
    return bounds_.bytes() + sizeof(std::uint32_t);
  }

  /// Bytes actually on the heap (0 payload for a mapped view).
  std::size_t heap_size_in_bytes() const noexcept {
    return bounds_.heap_bytes() + sizeof(std::uint32_t);
  }

  /// The boundary layout (archive format v5): u32 k, u64 count, zero padding
  /// to 64 bytes, then the 4^k + 1 raw u32 boundaries. adopt=true borrows
  /// the array from the reader's backing buffer. `text` is the indexed
  /// text: the short-suffix codes come from its tail, and the boundaries
  /// are checked against its row count.
  void save_flat(ByteWriter& writer) const;
  static KmerSeedTable load_flat(ByteReader& reader, bool adopt, const PackedText& text);

  /// The two-array layout of archive formats v2..v4: u32 k, then the 4^k
  /// interval starts and the 4^k interval ends (absent k-mers as [0, 0)),
  /// either as two length-prefixed streams (flat=false, v2) or as two
  /// 64-byte-aligned flat arrays (flat=true, v3/v4). Loading converts to
  /// boundaries, so the ends must agree with them.
  void save_intervals(ByteWriter& writer, bool flat) const;
  static KmerSeedTable load_intervals(ByteReader& reader, bool flat, const PackedText& text);

 private:
  template <typename Text>
  static KmerSeedTable count_kmers(const Text& text, std::optional<unsigned> requested_k);

  /// Marks a short-suffix slot as unused; no code equals it (4^15 < 2^32).
  static constexpr std::uint32_t kNoCode = ~std::uint32_t{0};

  /// Rows of suffixes shorter than k that sort just before the run of
  /// `code`: a branch-free scan of the fixed short-code list.
  unsigned short_rows(std::uint32_t code) const noexcept {
    unsigned rows = 0;
    for (const std::uint32_t c : short_codes_) rows += c == code ? 1 : 0;
    return rows;
  }

  /// k_ and short_codes_ for `text` (or just its last k - 1 codes);
  /// bounds_ stays empty.
  KmerSeedTable(unsigned k, std::span<const std::uint8_t> text);

  /// Fills every boundary still 0 (codes with no run) from its successor,
  /// with B[4^k] = rows. Present codes' run starts are >= 1 (row 0 is the
  /// sentinel), so 0 is free to mean "no run".
  void fill_absent(std::vector<std::uint32_t>& bounds, std::size_t rows) const;

  /// Throws IoError unless the boundaries are well-formed for `rows` SA
  /// rows: 4^k + 1 of them, non-decreasing, B[4^k] == rows, and each gap
  /// wide enough for the short suffixes sorting into it (B[0] holds the
  /// sentinel row too). Then every interval lies in [1, rows].
  void validate(std::size_t rows) const;

  unsigned k_ = 0;
  FlatArray<std::uint32_t> bounds_;  // 4^k + 1 run boundaries
  std::array<std::uint32_t, kMaxK - 1> short_codes_{};
};

}  // namespace bwaver
