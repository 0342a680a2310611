#include "kernels/vector_occ.hpp"

#include <algorithm>

namespace bwaver {

VectorOcc::VectorOcc(std::span<const std::uint8_t> bwt,
                     const kernels::RankKernel* kernel)
    : kernel_(kernel != nullptr ? kernel : &kernels::active_kernel()) {
  const std::size_t n = bwt.size();
  const std::size_t data_blocks = (n + kBasesPerBlock - 1) / kBasesPerBlock;
  blocks_.assign(data_blocks + 1, Block{});
  std::array<std::uint32_t, 4> running{};
  for (std::size_t b = 0; b < data_blocks; ++b) {
    Block& block = blocks_[b];
    block.cum = running;
    const std::size_t base = b * kBasesPerBlock;
    const std::size_t count = std::min<std::size_t>(kBasesPerBlock, n - base);
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint8_t code = bwt[base + k] & 3;
      block.words[k >> 5] |= static_cast<std::uint64_t>(code) << ((k & 31) * 2);
      ++running[code];
    }
  }
  blocks_[data_blocks].cum = running;
}

std::size_t VectorOcc::rank(std::uint8_t c, std::size_t i) const noexcept {
  // Prefixes never reach into a block's zero padding: i <= n caps off at
  // the block's occupied bases, so padding can't be miscounted as code 0.
  const std::size_t b = i / kBasesPerBlock;
  const Block& block = blocks_[b];
  return block.cum[c] +
         kernel_->count_block_prefix(block.words.data(),
                                     static_cast<unsigned>(i % kBasesPerBlock), c);
}

}  // namespace bwaver
