// EprOcc — EPR-dictionary occ backend: bit-transposed 2-bit symbols
// interleaved with checkpoint prefix counts, one cache line per 128 bases
// (Pockrandt et al., *EPR-dictionaries*, the constant-time rank structure
// behind GenMap/SeqAn3 bidirectional indexes).
//
// Layout: each 64-byte block carries the four cumulative symbol counts up
// to the block start (16 bytes) followed by four bit-plane words (32 bytes):
// planes[0..1] hold the low code bit of bases 0..63 / 64..127, planes[2..3]
// the high bit. rank(c, i) is therefore one cache-line fetch, one XOR+AND
// match mask and one popcount pass — flat in both the offset and the symbol,
// with no per-level tree walk (RRR/plain wavelet) and no per-word scan loop
// (SampledOcc, VectorOcc). The price is space: 64 bytes per 128 bases =
// 0.5 B/base against VectorOcc's 0.34 — the classic space-for-constant-time
// trade the registry records per engine.
//
// A terminal block holds the final totals, so rank at i == n stays one
// fetch. Storage is a FlatArray so archive loads (format v4's optional
// "epr" section) can adopt the blocks zero-copy from a mapped file.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "io/byte_io.hpp"
#include "kernels/rank_kernel.hpp"
#include "util/flat_array.hpp"

namespace bwaver {

class EprOcc {
 public:
  static constexpr unsigned kBasesPerBlock = 128;

  /// Checkpoint counts and bit-transposed text interleaved in one cache line.
  struct alignas(64) Block {
    std::array<std::uint32_t, 4> cum{};    ///< rank(c, block start)
    std::array<std::uint64_t, 4> planes{}; ///< [lo0, lo1, hi0, hi1]
  };
  static_assert(sizeof(Block) == 64, "one rank = one cache line");

  EprOcc() = default;

  /// Transposes the squeezed BWT; `kernel` pins a specific counting kernel
  /// (tests sweep every available one), nullptr selects the dispatch
  /// choice kernels::active_kernel().
  explicit EprOcc(std::span<const std::uint8_t> bwt,
                  const kernels::RankKernel* kernel = nullptr);

  std::size_t rank(std::uint8_t c, std::size_t i) const noexcept {
    const Block& block = blocks_[i / kBasesPerBlock];
    return block.cum[c] +
           kernel_->count_epr_prefix(block.planes.data(),
                                     static_cast<unsigned>(i % kBasesPerBlock), c);
  }

  /// rank(c, i1) and rank(c, i2) with i1 <= i2; when both offsets land in
  /// the same block the second answer reuses the hot line.
  std::pair<std::size_t, std::size_t> rank2(std::uint8_t c, std::size_t i1,
                                            std::size_t i2) const noexcept {
    const std::size_t r1 = rank(c, i1);
    if (i1 == i2) return {r1, r1};
    const std::size_t b1 = i1 / kBasesPerBlock;
    if (b1 != i2 / kBasesPerBlock) return {r1, rank(c, i2)};
    return {r1, blocks_[b1].cum[c] +
                    kernel_->count_epr_prefix(
                        blocks_[b1].planes.data(),
                        static_cast<unsigned>(i2 % kBasesPerBlock), c)};
  }
  std::pair<std::size_t, std::size_t> rank_pair(std::uint8_t c, std::size_t i1,
                                                std::size_t i2) const noexcept {
    return rank2(c, i1, i2);
  }

  /// The portable saturating low-bits mask: the bits of `x` below `n`, all
  /// of x when n >= 64 (BZHI's semantics).
  struct LowBits {
    std::uint64_t operator()(std::uint64_t x, unsigned n) const noexcept {
      return n >= 64 ? x : x & ((std::uint64_t{1} << n) - 1);
    }
  };

  /// rank(c, i) with the block count header-inline instead of dispatched
  /// through kernel(): the block's checkpoint plus the two plane-pair match
  /// masks, each cut to the prefix by `low_bits` (saturating like LowBits),
  /// and two popcounts. The batched sweep compiles this once per ISA tier
  /// (mapper/batch_scheduler.cpp); inside a POPCNT+BMI2 function with BZHI
  /// as `low_bits` the count is four XOR/ANDs, two BZHIs and two POPCNTs.
  template <typename LowBitsFn = LowBits>
  std::size_t rank_inline(std::uint8_t c, std::size_t i,
                          LowBitsFn low_bits = {}) const noexcept {
    const Block& block = blocks_[i / kBasesPerBlock];
    const unsigned off = static_cast<unsigned>(i % kBasesPerBlock);
    const std::uint64_t lf = (c & 1) ? 0 : ~std::uint64_t{0};
    const std::uint64_t hf = (c & 2) ? 0 : ~std::uint64_t{0};
    const unsigned b0 = off < 64 ? off : 64;
    const std::uint64_t m0 =
        low_bits((block.planes[0] ^ lf) & (block.planes[2] ^ hf), b0);
    const std::uint64_t m1 =
        low_bits((block.planes[1] ^ lf) & (block.planes[3] ^ hf), off - b0);
    return block.cum[c] + static_cast<unsigned>(__builtin_popcountll(m0)) +
           static_cast<unsigned>(__builtin_popcountll(m1));
  }

  /// rank of every symbol at once — the bidirectional-extension primitive
  /// (extendLeft needs all four occ counts per bound). Three masked
  /// popcounts per 64-base plane pair off the same cache line, against four
  /// independent rank() calls.
  std::array<std::uint32_t, 4> rank_all(std::size_t i) const noexcept {
    const Block& block = blocks_[i / kBasesPerBlock];
    const unsigned off = static_cast<unsigned>(i % kBasesPerBlock);
    std::array<std::uint32_t, 4> counts = block.cum;
    const unsigned b0 = off < 64 ? off : 64;
    accumulate_word(block.planes[0], block.planes[2], b0, counts);
    accumulate_word(block.planes[1], block.planes[3], off - b0, counts);
    return counts;
  }

  std::uint8_t access(std::size_t i) const noexcept {
    const Block& block = blocks_[i / kBasesPerBlock];
    const unsigned off = static_cast<unsigned>(i % kBasesPerBlock);
    const unsigned w = off >> 6;
    const unsigned b = off & 63;
    return static_cast<std::uint8_t>(((block.planes[w] >> b) & 1) |
                                     (((block.planes[2 + w] >> b) & 1) << 1));
  }

  /// Every symbol, one code per byte: the squeezed BWT the dictionary
  /// transposes (a v6 archive's only copy of it).
  std::vector<std::uint8_t> symbols() const;

  /// Pulls the cache line holding offset `i`'s block toward L1 ahead of a
  /// rank/rank2 at that offset (the sweep scheduler's lookahead hook).
  [[gnu::always_inline]] void prefetch(std::size_t i) const noexcept {
    __builtin_prefetch(&blocks_[i / kBasesPerBlock], /*rw=*/0, /*locality=*/1);
  }

  std::size_t size() const noexcept { return n_; }
  std::size_t size_in_bytes() const noexcept { return blocks_.bytes(); }
  /// Bytes on the heap — zero beyond bookkeeping when the blocks were
  /// adopted from a memory-mapped archive.
  std::size_t heap_size_in_bytes() const noexcept { return blocks_.heap_bytes(); }

  /// The counting kernel this instance dispatches to.
  const kernels::RankKernel& kernel() const noexcept { return *kernel_; }

  void save(ByteWriter& writer) const;
  /// The kernel choice is not serialized — a loaded instance re-dispatches
  /// on the loading machine's CPU.
  static EprOcc load(ByteReader& reader);

  /// Flat 64-byte-aligned layout (archive format v4's "epr" section);
  /// adopt=true borrows the block array from the reader's (mapped) backing.
  void save_flat(ByteWriter& writer) const;
  static EprOcc load_flat(ByteReader& reader, bool adopt);

  /// A zero-copy alias of `other`'s blocks (the archive-load fast path:
  /// serving re-uses a loaded structure instead of re-transposing the BWT).
  /// `other` must outlive the view.
  static EprOcc view_of(const EprOcc& other);

 private:
  static void accumulate_word(std::uint64_t lo, std::uint64_t hi, unsigned bases,
                              std::array<std::uint32_t, 4>& counts) noexcept {
    if (bases == 0) return;
    const std::uint64_t valid =
        bases >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bases) - 1;
    const auto n1 =
        static_cast<std::uint32_t>(__builtin_popcountll(lo & ~hi & valid));
    const auto n2 =
        static_cast<std::uint32_t>(__builtin_popcountll(~lo & hi & valid));
    const auto n3 =
        static_cast<std::uint32_t>(__builtin_popcountll(lo & hi & valid));
    counts[0] += bases - n1 - n2 - n3;
    counts[1] += n1;
    counts[2] += n2;
    counts[3] += n3;
  }

  static std::size_t block_count_for(std::size_t n) noexcept {
    return (n + kBasesPerBlock - 1) / kBasesPerBlock + 1;  // data + terminal
  }

  FlatArray<Block> blocks_;
  std::size_t n_ = 0;
  const kernels::RankKernel* kernel_ = nullptr;
};

}  // namespace bwaver
