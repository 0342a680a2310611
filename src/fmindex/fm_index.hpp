// FM-index over a DNA reference (paper, Sec. III-A).
//
// Backward search maintains the suffix-array interval [lo, hi) of rows of
// the Burrows-Wheeler matrix whose suffixes start with the current pattern
// suffix, via the Ferragina-Manzini recurrence
//     start(aX) = C(a) + Occ(a, start(X))
//     end(aX)   = C(a) + Occ(a, end(X))
// (0-based half-open form of the paper's Eq. 4-5). The interval is non-empty
// iff aX occurs in the text; positions come from SA[lo, hi).
//
// The occurrence backend is a template parameter (see occ_backends.hpp).
// The sentinel is handled out-of-band: Occ backends index the squeezed BWT
// and `occ()` adjusts row indices past the primary row, exactly the
// "checked in the backward search function" scheme the paper describes.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fmindex/bwt.hpp"
#include "fmindex/dna.hpp"
#include "fmindex/kmer_table.hpp"
#include "fmindex/sa_interval.hpp"
#include "fmindex/suffix_array.hpp"
#include "io/byte_io.hpp"
#include "succinct/int_vector.hpp"
#include "util/flat_array.hpp"

namespace bwaver {

template <typename Occ>
class FmIndex {
 public:
  using OccBuilder = std::function<Occ(std::span<const std::uint8_t>)>;

  FmIndex() = default;

  /// Builds SA + BWT + Occ from the 2-bit-coded reference.
  FmIndex(std::span<const std::uint8_t> text, const OccBuilder& builder) {
    {
      const std::vector<std::uint32_t> sa = build_suffix_array(text);
      bwt_ = build_bwt(text, sa);
      sa_ = IntVector::pack(sa, suffix_array_width(bwt_.text_length));
    }
    occ_backend_ = builder(bwt_.symbols);
    init_c_array();
  }

  /// Assembles from precomputed parts (the pipeline's step-2 path, where
  /// BWT and SA were produced by step 1 and read back from disk). The
  /// 4-byte suffix array is packed to suffix_array_width(n) bits per entry
  /// and, when the index owns it, released before the Occ is built — the
  /// two forms of the array are never held beyond the packing pass.
  FmIndex(Bwt bwt, FlatArray<std::uint32_t> sa, const OccBuilder& builder)
      : bwt_(std::move(bwt)) {
    if (sa.size() != static_cast<std::size_t>(bwt_.text_length) + 1) {
      throw std::invalid_argument("FmIndex: SA/BWT size mismatch");
    }
    sa_ = IntVector::pack(sa, suffix_array_width(bwt_.text_length));
    sa = std::vector<std::uint32_t>();
    occ_backend_ = builder(bwt_.symbols);
    init_c_array();
  }

  /// Archive load path: the Occ backend comes off disk, the suffix array
  /// arrives packed at suffix_array_width(n) bits (a v6 one adopted
  /// zero-copy under mmap), and the C array comes from the
  /// (checksum-verified) archive meta section, so no O(n) pass runs.
  /// `bwt.symbols` may be empty — a v6 archive stores no raw BWT, and
  /// serving reads every symbol through the Occ backend — but `bwt.primary`
  /// and `bwt.text_length` must be set.
  FmIndex(Bwt bwt, IntVector sa, Occ occ_backend, const std::array<std::uint32_t, 4>& c_table)
      : bwt_(std::move(bwt)),
        sa_(std::move(sa)),
        occ_backend_(std::move(occ_backend)),
        c_(c_table) {
    if (sa_.size() != static_cast<std::size_t>(bwt_.text_length) + 1 ||
        sa_.width() != suffix_array_width(bwt_.text_length)) {
      throw std::invalid_argument("FmIndex: SA/BWT size mismatch");
    }
    if (occ_backend_.size() != bwt_.text_length ||
        (!bwt_.symbols.empty() && bwt_.symbols.size() != bwt_.text_length)) {
      throw std::invalid_argument("FmIndex: Occ/BWT size mismatch");
    }
    if (bwt_.primary > bwt_.text_length) {
      throw std::invalid_argument("FmIndex: primary row past the text");
    }
    if (c_[0] != 1 || c_[1] < c_[0] || c_[2] < c_[1] || c_[3] < c_[2] ||
        c_[3] > bwt_.text_length + 1) {
      throw std::invalid_argument("FmIndex: implausible C array");
    }
  }

  /// Text length n (rows in the BW matrix = n + 1).
  std::size_t size() const noexcept { return bwt_.text_length; }
  std::size_t rows() const noexcept { return static_cast<std::size_t>(bwt_.text_length) + 1; }

  /// Occ(c, row) over the full (n+1)-row BWT column: occurrences of code c
  /// among rows [0, row). The sentinel row contributes nothing for any base.
  std::size_t occ(std::uint8_t c, std::size_t row) const noexcept {
    return occ_backend_.rank(c, row <= bwt_.primary ? row : row - 1);
  }

  /// Occ at both interval bounds, row1 <= row2. Backends exposing rank2
  /// answer both with one wavelet descent (and, for narrow intervals, a
  /// shared RRR superblock scan); others pay two independent ranks.
  std::pair<std::size_t, std::size_t> occ2(std::uint8_t c, std::size_t row1,
                                           std::size_t row2) const noexcept {
    const std::size_t a1 = row1 <= bwt_.primary ? row1 : row1 - 1;
    const std::size_t a2 = row2 <= bwt_.primary ? row2 : row2 - 1;
    if constexpr (requires { occ_backend_.rank2(c, a1, a2); }) {
      return occ_backend_.rank2(c, a1, a2);
    } else {
      return {occ_backend_.rank(c, a1), occ_backend_.rank(c, a2)};
    }
  }

  /// Occ of every base at once: {Occ(0,row), .., Occ(3,row)} — the
  /// bidirectional-extension primitive (extendLeft needs all four counts at
  /// both interval bounds). Backends exposing rank_all (the EPR dictionary)
  /// answer from one cache line; others pay four independent ranks.
  std::array<std::uint32_t, 4> occ_all(std::size_t row) const noexcept {
    const std::size_t a = row <= bwt_.primary ? row : row - 1;
    if constexpr (requires { occ_backend_.rank_all(a); }) {
      return occ_backend_.rank_all(a);
    } else {
      return {static_cast<std::uint32_t>(occ_backend_.rank(0, a)),
              static_cast<std::uint32_t>(occ_backend_.rank(1, a)),
              static_cast<std::uint32_t>(occ_backend_.rank(2, a)),
              static_cast<std::uint32_t>(occ_backend_.rank(3, a))};
    }
  }

  /// C(c): number of symbols in T$ lexicographically smaller than base c
  /// (the sentinel counts once).
  std::uint32_t c_array(std::uint8_t c) const noexcept { return c_[c]; }

  /// Whole-matrix interval (every suffix matches the empty pattern).
  SaInterval full_interval() const noexcept {
    return SaInterval{0, static_cast<std::uint32_t>(rows())};
  }

  /// BWT symbol of row (the full column's character, 4 for the sentinel).
  std::uint8_t bwt_at(std::uint32_t row) const noexcept {
    if (row == bwt_.primary) return 4;
    return occ_backend_.access(row < bwt_.primary ? row : row - 1);
  }

  /// Last-to-first mapping: the row whose suffix is one text position
  /// earlier. LF(primary) = 0 (the sentinel maps to the first F-column row).
  std::uint32_t lf(std::uint32_t row) const noexcept {
    const std::uint8_t c = bwt_at(row);
    if (c == 4) return 0;
    return static_cast<std::uint32_t>(c_[c] + occ(c, row));
  }

  /// One backward-search step: prepend code `c` to the matched pattern.
  /// Both interval bounds resolve through occ2 so pair-capable backends
  /// answer them in one descent.
  SaInterval step(SaInterval iv, std::uint8_t c) const noexcept {
    const auto [r_lo, r_hi] = occ2(c, iv.lo, iv.hi);
    return SaInterval{static_cast<std::uint32_t>(c_[c] + r_lo),
                      static_cast<std::uint32_t>(c_[c] + r_hi)};
  }

  /// Step entry point of the batched sweep scheduler (see
  /// mapper/batch_scheduler.hpp): identical to step(), named separately so
  /// the step-wise callers read as what they are — one search step of one
  /// in-flight read, interleaved with thousands of others.
  SaInterval count_step(SaInterval iv, std::uint8_t c) const noexcept {
    return step(iv, c);
  }

  /// Seeding decision shared by count() and the sweep scheduler: the
  /// interval a search of `pattern` starts from and (via `remaining`) how
  /// many leading codes are still unconsumed. A non-empty seed-table hit
  /// replaces the final k steps; every other case starts from the full
  /// interval with the whole pattern pending — so
  ///     iv = count_start(p, r); while (r > 0 && !iv.empty()) iv = step(iv, p[--r]);
  /// is byte-identical to count().
  SaInterval count_start(std::span<const std::uint8_t> pattern,
                         std::size_t& remaining) const noexcept {
    const unsigned k = seed_table_ ? seed_table_->k() : 0;
    if (k != 0 && pattern.size() >= k) {
      if (const auto seed = seed_table_->lookup(pattern.last(k));
          seed && !seed->empty()) {
        remaining = pattern.size() - k;
        return *seed;
      }
    }
    remaining = pattern.size();
    return full_interval();
  }

  /// Software-prefetches the Occ-backend storage a subsequent
  /// step(iv, c) will touch. A no-op for backends without address-
  /// computable rank storage (the RRR wavelet tree's descent is data-
  /// dependent); checkpointed backends pull both bounds' cache lines.
  /// This hook and every backend's prefetch() are always_inline: GCC deems
  /// a function whose only effect is __builtin_prefetch side-effect free
  /// and deletes calls to it that survive early inlining.
  [[gnu::always_inline]] void prefetch_step(SaInterval iv) const noexcept {
    if constexpr (requires(const Occ& occ) { occ.prefetch(std::size_t{}); }) {
      occ_backend_.prefetch(iv.lo <= bwt_.primary ? iv.lo : iv.lo - 1);
      occ_backend_.prefetch(iv.hi <= bwt_.primary ? iv.hi : iv.hi - 1);
    }
  }

  /// Sentinel adjustment applied to a BW-matrix row before it reaches the
  /// Occ backend (exposed for the batched scheduler's bulk-rank path,
  /// which feeds backends directly).
  std::size_t occ_row(std::size_t row) const noexcept {
    return row <= bwt_.primary ? row : row - 1;
  }

  /// Backward search of a full pattern (codes 0..3). When a k-mer seed
  /// table is attached and the pattern's final k codes hit a non-empty
  /// entry, the first k steps are skipped outright; any other case —
  /// no table, short pattern, out-of-alphabet code, absent k-mer — falls
  /// back to the classic recurrence. Because a non-empty table entry IS
  /// the interval the recurrence would reach after those k steps (no early
  /// exit can have fired: intervals only shrink), the result is
  /// byte-identical to count_unseeded() in every case.
  SaInterval count(std::span<const std::uint8_t> pattern) const noexcept {
    std::size_t remaining = 0;
    SaInterval iv = count_start(pattern, remaining);
    while (remaining > 0 && !iv.empty()) {
      iv = step(iv, pattern[--remaining]);
    }
    return iv;
  }

  /// The classic full recurrence from the last base. Stops early when the
  /// interval empties — the property the paper exploits for non-mapping
  /// reads. Returns the final interval.
  SaInterval count_unseeded(std::span<const std::uint8_t> pattern) const noexcept {
    SaInterval iv = full_interval();
    for (std::size_t k = pattern.size(); k-- > 0;) {
      iv = step(iv, pattern[k]);
      if (iv.empty()) break;
    }
    return iv;
  }

  /// Text positions for an interval, via the host-resident suffix array.
  std::vector<std::uint32_t> locate(SaInterval iv) const {
    std::vector<std::uint32_t> positions;
    if (iv.empty()) return positions;
    positions.reserve(iv.count());
    for (std::uint32_t row = iv.lo; row < iv.hi; ++row) {
      positions.push_back(sa(row));
    }
    return positions;
  }

  /// SA[row]: the text position of the row's suffix (n for row 0).
  std::uint32_t sa(std::size_t row) const noexcept {
    return static_cast<std::uint32_t>(sa_.get(row));
  }

  std::vector<std::uint32_t> locate(std::span<const std::uint8_t> pattern) const {
    return locate(count(pattern));
  }

  /// Forward-strand and reverse-complement intervals for one read — the
  /// pair of searches the FPGA kernel executes concurrently.
  std::pair<SaInterval, SaInterval> count_both_strands(
      std::span<const std::uint8_t> pattern) const {
    const auto rc = dna_reverse_complement(pattern);
    return {count(pattern), count(rc)};
  }

  /// The BWT's primary row and length; `symbols` is empty for an index
  /// loaded from a v6 archive (read symbols through occ_backend()).
  const Bwt& bwt() const noexcept { return bwt_; }
  /// The suffix array, suffix_array_width(size()) bits per entry.
  const IntVector& suffix_array() const noexcept { return sa_; }
  const Occ& occ_backend() const noexcept { return occ_backend_; }

  /// Attaches (or detaches, with nullptr) a k-mer seed table. Shared so
  /// copies of the index and the archive loader can alias one table.
  void set_seed_table(std::shared_ptr<const KmerSeedTable> table) noexcept {
    seed_table_ = (table && table->enabled()) ? std::move(table) : nullptr;
  }

  /// The attached seed table, or nullptr when searches run unseeded.
  const KmerSeedTable* seed_table() const noexcept { return seed_table_.get(); }
  std::shared_ptr<const KmerSeedTable> shared_seed_table() const noexcept {
    return seed_table_;
  }

  /// Builds and attaches a seed table for this index from its own text (k
  /// from KmerSeedTable::resolve_k: no request means the byte-budget rule,
  /// 0 disables).
  void build_seed_table(std::span<const std::uint8_t> text,
                        std::optional<unsigned> requested_k = std::nullopt) {
    if (text.size() != size()) {
      throw std::invalid_argument("FmIndex::build_seed_table: text size mismatch");
    }
    set_seed_table(
        std::make_shared<const KmerSeedTable>(KmerSeedTable::build(text, requested_k)));
  }

  /// Bytes of the succinct structure (Occ backend only — what travels to
  /// the device). SA and raw BWT stay on the host.
  std::size_t occ_size_in_bytes() const noexcept { return occ_backend_.size_in_bytes(); }

  /// Binary (de)serialization of the complete index (BWT + SA + encoded
  /// Occ backend); requires Occ::save / Occ::load.
  void save(ByteWriter& writer) const {
    writer.u32(bwt_.text_length);
    writer.u32(bwt_.primary);
    writer.vec_u8(bwt_.symbols);
    writer.vec_u32(sa_.unpack_u32());
    occ_backend_.save(writer);
  }
  static FmIndex load(ByteReader& reader) {
    FmIndex index;
    index.bwt_.text_length = reader.u32();
    index.bwt_.primary = reader.u32();
    index.bwt_.symbols = reader.vec_u8();
    const std::vector<std::uint32_t> sa = reader.vec_u32();
    if (index.bwt_.symbols.size() != index.bwt_.text_length ||
        sa.size() != static_cast<std::size_t>(index.bwt_.text_length) + 1) {
      throw IoError("FmIndex::load: inconsistent sizes");
    }
    index.sa_ = pack_stored_suffix_array(sa, index.bwt_.text_length);
    index.occ_backend_ = Occ::load(reader);
    index.init_c_array();
    return index;
  }

 private:
  void init_c_array() {
    std::array<std::uint32_t, 4> counts{};
    for (std::uint8_t c : bwt_.symbols) ++counts[c];
    std::uint32_t sum = 1;  // the sentinel precedes every base
    for (unsigned c = 0; c < 4; ++c) {
      c_[c] = sum;
      sum += counts[c];
    }
  }

  Bwt bwt_;
  IntVector sa_;
  Occ occ_backend_{};
  std::array<std::uint32_t, 4> c_{};
  std::shared_ptr<const KmerSeedTable> seed_table_;  // not in save(): the
                                                     // archive carries it as
                                                     // its own section

};

}  // namespace bwaver
