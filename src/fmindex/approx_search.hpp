// Approximate (k-mismatch) backward search — the paper's stated future work
// ("extend our mapping design to approximate string matching") and the
// algorithm behind the staged designs it cites (FHAST [6], Arram et al.
// [7]: exact module first, then 1- and 2-mismatch modules for the reads
// left unaligned).
//
// The classic FM-index substitution search: walk the pattern backwards and,
// at each position, branch on the three non-matching bases while any
// mismatch budget remains. Every emitted interval corresponds to a distinct
// modified pattern string, so intervals are pairwise disjoint and can be
// summed/located without deduplication. Cost grows as O((3p)^k), which is
// why hardware designs stop at k = 2 (paper, Sec. II).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "fmindex/fm_index.hpp"

namespace bwaver {

/// How the approximate stages enumerate mismatching strings:
/// kBranch — the classic 4-way backward recursion above (restarts the full
/// pattern per stratum); kScheme — precomputed bidirectional search schemes
/// (bidir_index.hpp), same hit sets, far fewer executed steps.
enum class ApproxMode : std::uint8_t { kBranch, kScheme };

inline const char* approx_mode_name(ApproxMode mode) noexcept {
  return mode == ApproxMode::kScheme ? "scheme" : "branch";
}

inline ApproxMode parse_approx_mode(std::string_view name) {
  if (name == "branch") return ApproxMode::kBranch;
  if (name == "scheme") return ApproxMode::kScheme;
  throw std::invalid_argument("approx mode must be 'branch' or 'scheme'");
}

/// Ceiling on hits gathered per search before truncation. Repetitive
/// references can make a low-complexity read match at millions of rows;
/// the cap bounds memory while ApproxStats::truncated flags the loss.
inline constexpr std::size_t kDefaultApproxHitCap = 100000;

struct ApproxHit {
  SaInterval interval;
  std::uint8_t mismatches = 0;
};

struct ApproxStats {
  std::uint64_t steps_executed = 0;   ///< backward-search steps (tree edges)
  std::uint64_t branches_pruned = 0;  ///< empty intervals abandoned
  std::uint64_t hits = 0;
  bool truncated = false;  ///< a search dropped hits past its cap
};

namespace detail {

template <typename Occ>
void approx_recurse(const FmIndex<Occ>& index, std::span<const std::uint8_t> pattern,
                    std::size_t next,  // characters of pattern still to match
                    SaInterval iv, unsigned budget, std::uint8_t used,
                    std::vector<ApproxHit>& hits, ApproxStats* stats,
                    std::size_t hit_cap) {
  if (next == 0) {
    if (!iv.empty()) {
      if (hits.size() >= hit_cap) {
        if (stats) stats->truncated = true;
        return;
      }
      hits.push_back(ApproxHit{iv, used});
      if (stats) ++stats->hits;
    }
    return;
  }
  const std::uint8_t expected = pattern[next - 1];
  for (std::uint8_t c = 0; c < 4; ++c) {
    const bool is_mismatch = c != expected;
    if (is_mismatch && budget == 0) continue;
    const SaInterval stepped = index.step(iv, c);
    if (stats) ++stats->steps_executed;
    if (stepped.empty()) {
      if (stats) ++stats->branches_pruned;
      continue;
    }
    approx_recurse(index, pattern, next - 1, stepped,
                   is_mismatch ? budget - 1 : budget,
                   static_cast<std::uint8_t>(used + (is_mismatch ? 1 : 0)), hits,
                   stats, hit_cap);
  }
}

}  // namespace detail

/// All SA intervals of strings within Hamming distance `max_mismatches` of
/// `pattern` that occur in the indexed text. Intervals are disjoint;
/// `mismatches` records the distance actually used.
template <typename Occ>
std::vector<ApproxHit> approx_count(const FmIndex<Occ>& index,
                                    std::span<const std::uint8_t> pattern,
                                    unsigned max_mismatches,
                                    ApproxStats* stats = nullptr,
                                    std::size_t hit_cap = kDefaultApproxHitCap) {
  std::vector<ApproxHit> hits;
  if (pattern.empty()) return hits;
  detail::approx_recurse(index, pattern, pattern.size(), index.full_interval(),
                         max_mismatches, 0, hits, stats, hit_cap);
  return hits;
}

/// Positions (suffix-array resolved) of all approximate occurrences,
/// tagged with their mismatch count. Order is unspecified.
template <typename Occ>
std::vector<std::pair<std::uint32_t, std::uint8_t>> approx_locate(
    const FmIndex<Occ>& index, std::span<const std::uint8_t> pattern,
    unsigned max_mismatches) {
  std::vector<std::pair<std::uint32_t, std::uint8_t>> positions;
  for (const ApproxHit& hit : approx_count(index, pattern, max_mismatches)) {
    for (std::uint32_t row = hit.interval.lo; row < hit.interval.hi; ++row) {
      positions.emplace_back(index.sa(row), hit.mismatches);
    }
  }
  return positions;
}

/// Best-stratum search: returns only the hits at the smallest achievable
/// mismatch count (0 if exact hits exist, else 1, ...), mirroring how the
/// staged hardware reports a read as soon as any module aligns it.
template <typename Occ>
std::vector<ApproxHit> approx_count_best(const FmIndex<Occ>& index,
                                         std::span<const std::uint8_t> pattern,
                                         unsigned max_mismatches,
                                         ApproxStats* stats = nullptr,
                                         std::size_t hit_cap = kDefaultApproxHitCap) {
  for (unsigned k = 0; k <= max_mismatches; ++k) {
    std::vector<ApproxHit> hits = approx_count(index, pattern, k, stats, hit_cap);
    std::erase_if(hits, [k](const ApproxHit& hit) { return hit.mismatches != k; });
    if (!hits.empty()) return hits;
  }
  return {};
}

}  // namespace bwaver
