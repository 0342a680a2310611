// VectorOcc — 2-bit-packed BWT with interleaved checkpoints, scanned by
// the runtime-dispatched SIMD rank kernels (see rank_kernel.hpp). It is the
// rank the blockwise builder's merge and LF-walk query once per base
// (build/blockwise_builder.cpp); no mapping engine searches it.
//
// Layout: one cache line per 192 bases. Each 64-byte block carries the
// four cumulative symbol counts up to the block start (16 bytes) followed
// by six packed words (48 bytes = 192 two-bit codes), so every rank is one
// line fetch plus a vectorized block-prefix count — 0.34 B/base, against
// the EPR dictionary's 0.5 (fmindex/epr_occ.hpp). A terminal block holds
// the final totals, so a rank at the end of the BWT needs no special case.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

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

  /// Packs the squeezed BWT; `kernel` pins a specific counting kernel
  /// (tests sweep every available one), nullptr selects the dispatch
  /// choice kernels::active_kernel().
  explicit VectorOcc(std::span<const std::uint8_t> bwt,
                     const kernels::RankKernel* kernel = nullptr);

  /// Occurrences of code `c` among the first `i` symbols, i <= the BWT size.
  std::size_t rank(std::uint8_t c, std::size_t i) const noexcept;

 private:
  std::vector<Block> blocks_;  ///< ceil(n/192) data blocks + 1 terminal
  const kernels::RankKernel* kernel_ = nullptr;
};

}  // namespace bwaver
