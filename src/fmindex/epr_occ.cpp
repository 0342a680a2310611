#include "fmindex/epr_occ.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace bwaver {

EprOcc::EprOcc(std::span<const std::uint8_t> bwt, const kernels::RankKernel* kernel)
    : n_(bwt.size()), kernel_(kernel != nullptr ? kernel : &kernels::active_kernel()) {
  const std::size_t data_blocks = (n_ + kBasesPerBlock - 1) / kBasesPerBlock;
  std::vector<Block> blocks(data_blocks + 1);
  std::array<std::uint32_t, 4> running{};
  for (std::size_t b = 0; b < data_blocks; ++b) {
    Block& block = blocks[b];
    block.cum = running;
    const std::size_t base = b * kBasesPerBlock;
    const std::size_t count = std::min<std::size_t>(kBasesPerBlock, n_ - base);
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint8_t code = bwt[base + k] & 3;
      block.planes[k >> 6] |= static_cast<std::uint64_t>(code & 1) << (k & 63);
      block.planes[2 + (k >> 6)] |= static_cast<std::uint64_t>(code >> 1) << (k & 63);
      ++running[code];
    }
  }
  blocks[data_blocks].cum = running;
  blocks_ = std::move(blocks);
}

void EprOcc::save(ByteWriter& writer) const {
  writer.u64(n_);
  for (const Block& block : blocks_) {
    for (std::uint32_t count : block.cum) writer.u32(count);
    for (std::uint64_t plane : block.planes) writer.u64(plane);
  }
}

EprOcc EprOcc::load(ByteReader& reader) {
  EprOcc occ;
  occ.n_ = reader.u64();
  occ.kernel_ = &kernels::active_kernel();
  std::vector<Block> blocks(block_count_for(occ.n_));
  for (Block& block : blocks) {
    for (std::uint32_t& count : block.cum) count = reader.u32();
    for (std::uint64_t& plane : block.planes) plane = reader.u64();
  }
  occ.blocks_ = std::move(blocks);
  return occ;
}

void EprOcc::save_flat(ByteWriter& writer) const {
  writer.u64(n_);
  writer.pad_to(64);
  writer.raw_u8(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(blocks_.data()), blocks_.bytes()));
}

EprOcc EprOcc::load_flat(ByteReader& reader, bool adopt) {
  EprOcc occ;
  occ.n_ = reader.u64();
  occ.kernel_ = &kernels::active_kernel();
  const std::size_t count = block_count_for(occ.n_);
  reader.align_to(64);
  const auto bytes = reader.span_u8(count * sizeof(Block));
  if (adopt &&
      reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(Block) == 0) {
    occ.blocks_ = FlatArray<Block>::view_of(
        {reinterpret_cast<const Block*>(bytes.data()), count});
  } else {
    std::vector<Block> blocks(count);
    std::memcpy(blocks.data(), bytes.data(), bytes.size());
    occ.blocks_ = std::move(blocks);
  }
  return occ;
}

std::vector<std::uint8_t> EprOcc::symbols() const {
  std::vector<std::uint8_t> bwt(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const Block& block = blocks_[i / kBasesPerBlock];
    const unsigned off = static_cast<unsigned>(i % kBasesPerBlock);
    const unsigned w = off >> 6;
    const unsigned b = off & 63;
    bwt[i] = static_cast<std::uint8_t>(((block.planes[w] >> b) & 1) |
                                       (((block.planes[2 + w] >> b) & 1) << 1));
  }
  return bwt;
}

EprOcc EprOcc::view_of(const EprOcc& other) {
  EprOcc occ;
  occ.n_ = other.n_;
  occ.kernel_ = other.kernel_;
  occ.blocks_ = FlatArray<Block>::view_of(
      std::span<const Block>(other.blocks_.data(), other.blocks_.size()));
  return occ;
}

}  // namespace bwaver
