#include "build/build_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fmindex/kmer_table.hpp"

namespace bwaver::build {

namespace {

// Direct path: SA-IS holds the 4-byte SA, its type bits and the 2-bit text
// (4.4 B/base); packing maps the 4-byte and w-bit arrays at once (7.1 B/base
// of address space at w = 25) while handing the 4-byte pages back as they
// are packed, and the later phases hold ~4.5. Measured `index build` peaks
// (wait4, process baseline included, the seed table taken out): 5.6 B/base
// resident on 24 Mbp and chr21-like references, ~8.1 of address space at
// 24 Mbp. 7 plus the fixed term bounds both.
constexpr std::size_t kDirectBytesPerBase = 7;

// Blockwise resident state near the last merge: text (1) + old and merged
// BWT copies (2) + VectorOcc over the old BWT (1/3) + SA-walk chunks.
constexpr std::size_t kBlockwiseBytesPerBase = 4;

// Per-block merge state: the D rank array and the sort order (8 bytes per
// block base) plus headroom for the comparator's transient state and the
// occ/epr section encoders that scale with the block at small block sizes.
constexpr std::size_t kBlockwiseBytesPerBlockBase = 24;

// Process baseline, allocator slack, stacks, and the small fixed tables.
constexpr std::size_t kFixedOverheadBytes = std::size_t{32} << 20;

}  // namespace

std::size_t direct_build_peak_bytes(std::size_t text_bases, unsigned seed_k) {
  return text_bases * kDirectBytesPerBase + KmerSeedTable::table_bytes(seed_k) +
         kFixedOverheadBytes;
}

std::size_t blockwise_build_peak_bytes(std::size_t text_bases, std::size_t block_bases,
                                       unsigned seed_k) {
  return text_bases * kBlockwiseBytesPerBase +
         block_bases * kBlockwiseBytesPerBlockBase + KmerSeedTable::table_bytes(seed_k) +
         kFixedOverheadBytes;
}

std::size_t derive_block_bases(std::size_t text_bases, std::size_t budget_bytes,
                               unsigned seed_k) {
  const std::size_t floor_bytes = blockwise_build_peak_bytes(text_bases, 1, seed_k);
  if (budget_bytes < floor_bytes) {
    throw std::invalid_argument(
        "build: memory budget " + std::to_string(budget_bytes) +
        " bytes is below the blockwise floor of " + std::to_string(floor_bytes) +
        " bytes for a " + std::to_string(text_bases) + "-base reference");
  }
  const std::size_t spare =
      budget_bytes - blockwise_build_peak_bytes(text_bases, 0, seed_k);
  const std::size_t block = std::max<std::size_t>(1, spare / kBlockwiseBytesPerBlockBase);
  return std::min(block, std::max<std::size_t>(1, text_bases));
}

BuildPlan plan_build(std::size_t text_bases, std::size_t budget_bytes,
                     std::size_t block_bases, unsigned seed_k) {
  BuildPlan plan;
  if (block_bases != 0) {
    plan.blockwise = true;
    plan.block_bases = block_bases;
    plan.estimated_peak_bytes = blockwise_build_peak_bytes(text_bases, block_bases, seed_k);
    return plan;
  }
  plan.estimated_peak_bytes = direct_build_peak_bytes(text_bases, seed_k);
  if (budget_bytes != 0 && plan.estimated_peak_bytes > budget_bytes) {
    plan.blockwise = true;
    plan.block_bases = derive_block_bases(text_bases, budget_bytes, seed_k);
    plan.estimated_peak_bytes =
        blockwise_build_peak_bytes(text_bases, plan.block_bases, seed_k);
  }
  return plan;
}

}  // namespace bwaver::build
