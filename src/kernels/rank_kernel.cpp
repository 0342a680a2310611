#include "kernels/rank_kernel.hpp"

#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#define BWAVER_KERNEL_X86 1
#include <immintrin.h>
#else
#define BWAVER_KERNEL_X86 0
#endif

namespace bwaver::kernels {

namespace {

constexpr std::uint64_t kLowBits = 0x5555555555555555ULL;

/// match-mask for one word: bit 2k set iff slot k holds code c (the SWAR
/// identity: a slot matches iff both of its diff bits are zero, i.e.
/// ~(diff | diff >> 1) restricted to the low bit of each slot).
inline std::uint64_t match_mask(std::uint64_t word, std::uint64_t pattern) noexcept {
  const std::uint64_t diff = word ^ pattern;
  return ~(diff | (diff >> 1)) & kLowBits;
}

std::uint64_t count_block_prefix_portable(const std::uint64_t* words, unsigned off,
                                          std::uint8_t c) {
  const std::uint64_t pattern = kLowBits * c;
  std::uint64_t total = 0;
  unsigned w = 0;
  for (; (w + 1) * 32 <= off; ++w) {
    total += static_cast<unsigned>(__builtin_popcountll(match_mask(words[w], pattern)));
  }
  const unsigned rem = off - w * 32;
  if (rem != 0) total += static_cast<unsigned>(count_partial_word(words[w], c, rem));
  return total;
}

/// EPR match masks per 64-base plane pair: a base matches code c iff its
/// low bit equals c&1 and its high bit equals c>>1, i.e. (lo ^ lf) & (hi ^
/// hf) with lf/hf all-ones when the corresponding code bit is zero. Two
/// masked popcounts cover the whole 128-base block.
std::uint64_t count_epr_prefix_portable(const std::uint64_t* planes, unsigned off,
                                        std::uint8_t c) {
  const std::uint64_t lf = (c & 1) ? 0 : ~std::uint64_t{0};
  const std::uint64_t hf = (c & 2) ? 0 : ~std::uint64_t{0};
  const unsigned b0 = off < 64 ? off : 64;
  const unsigned b1 = off - b0;
  std::uint64_t m0 = (planes[0] ^ lf) & (planes[2] ^ hf);
  if (b0 < 64) m0 &= (std::uint64_t{1} << b0) - 1;
  std::uint64_t total = static_cast<unsigned>(__builtin_popcountll(m0));
  if (b1 != 0) {
    std::uint64_t m1 = (planes[1] ^ lf) & (planes[3] ^ hf);
    if (b1 < 64) m1 &= (std::uint64_t{1} << b1) - 1;
    total += static_cast<unsigned>(__builtin_popcountll(m1));
  }
  return total;
}

#if BWAVER_KERNEL_X86

/// Portable algorithm recompiled with hardware POPCNT (the baseline
/// -march=x86-64 build lowers __builtin_popcountll to a libcall).
__attribute__((target("sse4.2,popcnt"))) std::uint64_t count_epr_prefix_sse42(
    const std::uint64_t* planes, unsigned off, std::uint8_t c) {
  const std::uint64_t lf = (c & 1) ? 0 : ~std::uint64_t{0};
  const std::uint64_t hf = (c & 2) ? 0 : ~std::uint64_t{0};
  const unsigned b0 = off < 64 ? off : 64;
  const unsigned b1 = off - b0;
  std::uint64_t m0 = (planes[0] ^ lf) & (planes[2] ^ hf);
  if (b0 < 64) m0 &= (std::uint64_t{1} << b0) - 1;
  std::uint64_t total = static_cast<unsigned>(__builtin_popcountll(m0));
  if (b1 != 0) {
    std::uint64_t m1 = (planes[1] ^ lf) & (planes[3] ^ hf);
    if (b1 < 64) m1 &= (std::uint64_t{1} << b1) - 1;
    total += static_cast<unsigned>(__builtin_popcountll(m1));
  }
  return total;
}

/// Branchless whole-block EPR count: one ymm load covers all four planes,
/// the cross-half permute lines the hi planes up under the lo planes so the
/// match mask is a single AND, the prefix mask reuses the saturating-srlv
/// trick (lanes 2..3 always shift to zero, discarding the duplicated mask),
/// and one nibble-LUT popcount pass folds the answer. ~18 flat ops, no
/// data-dependent branches.
__attribute__((target("avx2,popcnt"))) std::uint64_t count_epr_prefix_avx2(
    const std::uint64_t* planes, unsigned off, std::uint8_t c) {
  const long long lf = (c & 1) ? 0 : -1;
  const long long hf = (c & 2) ? 0 : -1;
  const __m256i x = _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(planes)),
      _mm256_setr_epi64x(lf, lf, hf, hf));
  // [L0, L1, H0, H1] & [H0, H1, L0, L1] -> [M0, M1, M0, M1]
  const __m256i m = _mm256_and_si256(x, _mm256_permute4x64_epi64(x, 0x4E));
  const __m256i zero = _mm256_setzero_si256();
  // Lane i keeps its low (off - 64*i) bits; srlv saturates shifts >= 64 to
  // zero, which blanks both the past-the-prefix case and lanes 2..3.
  const __m256i t = _mm256_sub_epi64(_mm256_setr_epi64x(64, 128, 256, 256),
                                     _mm256_set1_epi64x(off));
  const __m256i s = _mm256_and_si256(t, _mm256_cmpgt_epi64(t, zero));
  const __m256i masked =
      _mm256_and_si256(m, _mm256_srlv_epi64(_mm256_set1_epi64x(-1), s));
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  const __m256i lo4 = _mm256_and_si256(masked, nibble);
  const __m256i hi4 = _mm256_and_si256(_mm256_srli_epi16(masked, 4), nibble);
  const __m256i bytes =
      _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo4), _mm256_shuffle_epi8(lut, hi4));
  const __m256i sums = _mm256_sad_epu8(bytes, zero);
  const __m128i folded =
      _mm_add_epi64(_mm256_castsi256_si128(sums), _mm256_extracti128_si256(sums, 1));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(folded)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(folded, 1));
}

__attribute__((target("sse4.2,popcnt"))) std::uint64_t count_block_prefix_sse42(
    const std::uint64_t* words, unsigned off, std::uint8_t c) {
  const std::uint64_t pattern = kLowBits * c;
  std::uint64_t total = 0;
  unsigned w = 0;
  for (; (w + 1) * 32 <= off; ++w) {
    total += static_cast<unsigned>(__builtin_popcountll(match_mask(words[w], pattern)));
  }
  const unsigned rem = off - w * 32;
  if (rem != 0) total += static_cast<unsigned>(count_partial_word(words[w], c, rem));
  return total;
}

/// Branchless whole-block count: all six words are matched and masked by a
/// per-lane prefix mask built with variable shifts (srlv saturates shifts
/// >= 64 to zero, which is exactly the "lane past the prefix" case), then
/// popcounted with the nibble LUT + SAD. No loop, no data-dependent
/// branches — the cost is flat in `off`.
__attribute__((target("avx2,popcnt"))) std::uint64_t count_block_prefix_avx2(
    const std::uint64_t* words, unsigned off, std::uint8_t c) {
  const long long bits = 2LL * off;  // prefix length in bits over the block
  const __m256i low = _mm256_set1_epi64x(static_cast<long long>(kLowBits));
  const __m256i ones = _mm256_set1_epi64x(-1);
  const __m256i zero = _mm256_setzero_si256();

  // Lanes 0..3 (words 0..3): shift s_i = max(64*(i+1) - bits, 0); the
  // resulting mask ~0 >> s_i keeps the low (bits - 64*i) bits of the lane.
  const __m256i t_lo =
      _mm256_sub_epi64(_mm256_setr_epi64x(64, 128, 192, 256), _mm256_set1_epi64x(bits));
  const __m256i s_lo = _mm256_and_si256(t_lo, _mm256_cmpgt_epi64(t_lo, zero));
  const __m256i mask_lo = _mm256_srlv_epi64(ones, s_lo);
  const __m256i da = _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words)),
      _mm256_set1_epi64x(static_cast<long long>(kLowBits * c)));
  const __m256i ma = _mm256_and_si256(
      _mm256_andnot_si256(_mm256_or_si256(da, _mm256_srli_epi64(da, 1)), low), mask_lo);

  // Lanes 4..5 (words 4..5), 128-bit.
  const __m128i t_hi =
      _mm_sub_epi64(_mm_set_epi64x(384, 320), _mm_set1_epi64x(bits));
  const __m128i s_hi = _mm_and_si128(t_hi, _mm_cmpgt_epi64(t_hi, _mm_setzero_si128()));
  const __m128i mask_hi = _mm_srlv_epi64(_mm_set1_epi64x(-1), s_hi);
  const __m128i db = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(words + 4)),
      _mm_set1_epi64x(static_cast<long long>(kLowBits * c)));
  const __m128i mb = _mm_and_si128(
      _mm_andnot_si128(_mm_or_si128(db, _mm_srli_epi64(db, 1)),
                       _mm_set1_epi64x(static_cast<long long>(kLowBits))),
      mask_hi);

  // Match bits sit on even positions, so the two extra words interleave
  // into lanes 0..1 of the 256-bit mask — one popcount pass for all six.
  const __m256i merged =
      _mm256_or_si256(ma, _mm256_slli_epi64(_mm256_zextsi128_si256(mb), 1));
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  const __m256i lo4 = _mm256_and_si256(merged, nibble);
  const __m256i hi4 = _mm256_and_si256(_mm256_srli_epi16(merged, 4), nibble);
  const __m256i bytes =
      _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo4), _mm256_shuffle_epi8(lut, hi4));
  const __m256i sums = _mm256_sad_epu8(bytes, zero);
  const __m128i folded =
      _mm_add_epi64(_mm256_castsi256_si128(sums), _mm256_extracti128_si256(sums, 1));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(folded)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(folded, 1));
}

#endif  // BWAVER_KERNEL_X86

const RankKernel kPortableKernel{"portable", SimdLevel::kPortable,
                                 &count_block_prefix_portable, &count_epr_prefix_portable};

std::vector<RankKernel> build_available() {
  std::vector<RankKernel> kernels;
  const CpuFeatures& features = cpu_features();
  (void)features;
#if BWAVER_KERNEL_X86
  if (features.avx2) {
    kernels.push_back(
        {"avx2", SimdLevel::kAvx2, &count_block_prefix_avx2, &count_epr_prefix_avx2});
  }
  if (features.sse42) {
    kernels.push_back(
        {"sse42", SimdLevel::kSse42, &count_block_prefix_sse42, &count_epr_prefix_sse42});
  }
#endif
  kernels.push_back(kPortableKernel);
  return kernels;
}

}  // namespace

std::span<const RankKernel> available_kernels() {
  static const std::vector<RankKernel> kernels = build_available();
  return kernels;
}

const RankKernel& active_kernel() { return available_kernels().front(); }

const RankKernel* kernel_for(SimdLevel level) {
  for (const RankKernel& kernel : available_kernels()) {
    if (kernel.level == level) return &kernel;
  }
  return nullptr;
}

const RankKernel& portable_kernel() { return kPortableKernel; }

}  // namespace bwaver::kernels
