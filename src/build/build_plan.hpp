// Memory planning for index construction: decides direct vs blockwise and
// fits a blockwise block size to a byte budget.
//
// The estimates are coarse, deliberately conservative upper bounds on the
// peak *transient* working set of each path (allocator slack and the
// process baseline are folded into a fixed overhead term). They only have
// to rank the two paths correctly and keep the fitted block size safe —
// the hard proof that the budget is honored is the CI leg that runs a
// blockwise build under `ulimit -v`.
#pragma once

#include <cstddef>

namespace bwaver::build {

/// Resolved strategy for building one reference's index.
struct BuildPlan {
  bool blockwise = false;
  std::size_t block_bases = 0;  ///< 0 on the direct path
  std::size_t estimated_peak_bytes = 0;
};

// Every estimate takes the seed length `seed_k` the build resolved (0 for
// no table): both paths hold the k-mer table's 4^k + 1 boundaries
// (KmerSeedTable::table_bytes) on top of their per-base terms.

/// Estimated peak working set of the direct in-RAM build of an n-base
/// reference: 7 bytes/base, the address space of the suffix array's 4-byte
/// and packed forms while it is packed (its resident peak is ~4.5: SA-IS
/// reads the 2-bit text in place, packing hands the 4-byte pages back, and
/// the archive streams to disk section by section).
std::size_t direct_build_peak_bytes(std::size_t text_bases, unsigned seed_k);

/// Estimated peak working set of the blockwise build: the text plus two
/// partial-BWT copies plus the interleaved rank structure over the old BWT
/// (~4 bytes/base together), and the per-block merge state (~24 bytes per
/// block base).
std::size_t blockwise_build_peak_bytes(std::size_t text_bases, std::size_t block_bases,
                                       unsigned seed_k);

/// Largest block size (>= 1 base) whose blockwise peak estimate fits
/// `budget_bytes`. Throws std::invalid_argument when even a one-base block
/// cannot fit (the O(n) merge state alone exceeds the budget).
std::size_t derive_block_bases(std::size_t text_bases, std::size_t budget_bytes,
                               unsigned seed_k);

/// Chooses the strategy: an explicit `block_bases` forces blockwise; else a
/// non-zero `budget_bytes` selects blockwise — with a block fitted by
/// derive_block_bases() — iff the direct estimate exceeds the budget; else
/// direct.
BuildPlan plan_build(std::size_t text_bases, std::size_t budget_bytes,
                     std::size_t block_bases, unsigned seed_k);

}  // namespace bwaver::build
