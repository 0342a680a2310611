// Vectorized character-counting kernels for 2-bit-packed DNA text.
//
// A RankKernel answers "how many of the first `off` bases of this block
// hold code c?" — the inner step of a checkpointed Occ rank, for the EPR
// dictionary the engines search and for VectorOcc, the blockwise builder's
// rank (Snytsar, *Vectorized Character Counting for Faster Pattern
// Matching*).
// Several implementations of the same contract are compiled into the
// binary with per-function target attributes (so a -march=x86-64 baseline
// build still carries AVX2/SSE4.2 code paths) and one is selected at
// runtime from the cached cpu_features() snapshot. The selection can be
// narrowed with $BWAVER_CPU_FEATURES — see util/cpu_features.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/cpu_features.hpp"

namespace bwaver::kernels {

/// Occurrences of code `c` among the first `off` bases of exactly six
/// packed words — one VectorOcc block (192 bases), off in [0, 192]. This is
/// the per-rank hot path: implementations are branchless straight-line code
/// (vector ISAs build the position mask with per-lane variable shifts), so
/// a checkpointed rank costs one cache-line fetch plus this call.
using CountBlockPrefixFn = std::uint64_t (*)(const std::uint64_t* block_words,
                                             unsigned off, std::uint8_t c);

/// Occurrences of code `c` among the first `off` bases of one EPR-dictionary
/// block (Pockrandt et al.): `planes` holds four bit-transposed words —
/// planes[0..1] the low code bit of bases 0..63 / 64..127, planes[2..3] the
/// high code bit — and off is in [0, 128]. The match mask is one XOR + AND
/// per plane pair and the count one popcount pass, with no dependence on the
/// symbol value beyond the two XOR constants, so rank cost is flat in both
/// `off` and `c`.
using CountEprPrefixFn = std::uint64_t (*)(const std::uint64_t* planes,
                                           unsigned off, std::uint8_t c);

/// One character-counting implementation. Plain struct of function
/// pointers so kernels enumerate, bench and test uniformly.
struct RankKernel {
  const char* name = "portable";       ///< "portable" / "sse42" / "avx2"
  SimdLevel level = SimdLevel::kPortable;
  CountBlockPrefixFn count_block_prefix = nullptr;
  CountEprPrefixFn count_epr_prefix = nullptr;
};

/// Occurrences of code `c` among the low `bases` slots of one word
/// (bases in [0, 32]). Scalar SWAR — the partial word of a block prefix is
/// never the hot part, so the scalar block-prefix kernels share it.
inline int count_partial_word(std::uint64_t word, std::uint8_t c,
                              unsigned bases) noexcept {
  if (bases == 0) return 0;
  const std::uint64_t diff = word ^ (0x5555555555555555ULL * c);
  std::uint64_t match = ~diff & (~diff >> 1) & 0x5555555555555555ULL;
  if (bases < 32) match &= (std::uint64_t{1} << (2 * bases)) - 1;
  return static_cast<int>(static_cast<unsigned>(__builtin_popcountll(match)));
}

/// Every kernel this binary can run on this machine (respecting the
/// $BWAVER_CPU_FEATURES cap), best first. The portable kernel is always
/// present and always last.
std::span<const RankKernel> available_kernels();

/// The dispatch choice: available_kernels().front().
const RankKernel& active_kernel();

/// The kernel for an exact SIMD tier, or nullptr when this machine (or
/// the feature cap) cannot run it.
const RankKernel* kernel_for(SimdLevel level);

/// The always-available scalar SWAR kernel (no dispatch, no cap).
const RankKernel& portable_kernel();

}  // namespace bwaver::kernels
