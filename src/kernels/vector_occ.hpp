// VectorOcc — 2-bit-packed BWT with interleaved checkpoints, scanned by
// the runtime-dispatched SIMD rank kernels (see rank_kernel.hpp).
//
// Layout: one cache line per 192 bases. Each 64-byte block carries the
// four cumulative symbol counts up to the block start (16 bytes) followed
// by six packed words (48 bytes = 192 two-bit codes), so every rank is one
// line fetch plus a vectorized count — against SampledOcc's split
// packed/checkpoint arrays (two fetch streams) and scalar SWAR loop. A
// terminal block holds the final totals, which also enables bidirectional
// scanning: offsets past the block midpoint count backward from the next
// block's checkpoint, halving the average scan length.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "io/byte_io.hpp"
#include "kernels/rank_kernel.hpp"

namespace bwaver {

class VectorOcc {
 public:
  static constexpr unsigned kWordsPerBlock = 6;
  static constexpr unsigned kBasesPerBlock = 32 * kWordsPerBlock;  // 192

  /// Checkpoint counts and packed text interleaved in one cache line.
  struct alignas(64) Block {
    std::array<std::uint32_t, 4> cum{};     ///< rank(c, block start)
    std::array<std::uint64_t, kWordsPerBlock> words{};  ///< 2-bit codes
  };
  static_assert(sizeof(Block) == 64, "one rank = one cache line");

  VectorOcc() = default;

  /// Packs the squeezed BWT; `kernel` pins a specific counting kernel
  /// (tests sweep every available one), nullptr selects the dispatch
  /// choice kernels::active_kernel().
  explicit VectorOcc(std::span<const std::uint8_t> bwt,
                     const kernels::RankKernel* kernel = nullptr);

  std::size_t rank(std::uint8_t c, std::size_t i) const noexcept;

  /// rank(c, i1) and rank(c, i2) with i1 <= i2; when both offsets land in
  /// the same block the second answer extends the first one's scan.
  std::pair<std::size_t, std::size_t> rank2(std::uint8_t c, std::size_t i1,
                                            std::size_t i2) const noexcept;

  /// Pulls the cache line holding offset `i`'s block toward L1 ahead of a
  /// rank/rank2 at that offset (the sweep scheduler's lookahead hook).
  [[gnu::always_inline]] void prefetch(std::size_t i) const noexcept {
    __builtin_prefetch(&blocks_[i / kBasesPerBlock], /*rw=*/0, /*locality=*/1);
  }

  /// One bulk-rank query: rank2(c, lo, hi) with lo <= hi <= size().
  struct BulkQuery {
    std::uint32_t lo;
    std::uint32_t hi;
    std::uint8_t c;
  };

  /// Bulk multi-position rank: out[q] = rank2(queries[q]) for every query.
  /// The scan runs a software-prefetch window ahead of itself, so the
  /// independent line fetches overlap instead of serializing. The sweep
  /// scheduler reaches the same overlap by interleaving prefetch() with
  /// rank2 steps (which avoids materializing a query array per pass); this
  /// entry point serves callers that already hold a flat query batch.
  void rank2_bulk(std::span<const BulkQuery> queries,
                  std::pair<std::uint32_t, std::uint32_t>* out) const noexcept;
  std::pair<std::size_t, std::size_t> rank_pair(std::uint8_t c, std::size_t i1,
                                                std::size_t i2) const noexcept {
    return rank2(c, i1, i2);
  }

  std::uint8_t access(std::size_t i) const noexcept {
    const Block& block = blocks_[i / kBasesPerBlock];
    const std::size_t off = i % kBasesPerBlock;
    return static_cast<std::uint8_t>((block.words[off >> 5] >> ((off & 31) * 2)) & 3);
  }

  std::size_t size() const noexcept { return n_; }
  std::size_t size_in_bytes() const noexcept { return blocks_.size() * sizeof(Block); }

  /// The counting kernel this instance dispatches to.
  const kernels::RankKernel& kernel() const noexcept { return *kernel_; }

  void save(ByteWriter& writer) const;
  /// The kernel choice is not serialized — a loaded instance re-dispatches
  /// on the loading machine's CPU.
  static VectorOcc load(ByteReader& reader);

 private:
  std::vector<Block> blocks_;  ///< ceil(n/192) data blocks + 1 terminal
  std::size_t n_ = 0;
  const kernels::RankKernel* kernel_ = nullptr;
};

}  // namespace bwaver
