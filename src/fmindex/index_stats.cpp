#include "fmindex/index_stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "fmindex/bwt.hpp"
#include "succinct/global_rank_table.hpp"
#include "util/bits.hpp"

namespace bwaver {

SequenceStats compute_sequence_stats(std::span<const std::uint8_t> codes) {
  SequenceStats stats;
  stats.length = codes.size();
  if (codes.empty()) return stats;

  std::uint64_t runs = 1;
  stats.base_counts[codes[0] & 3] = 0;  // ensure zero-init semantics are obvious
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ++stats.base_counts[codes[i] & 3];
    if (i > 0 && codes[i] != codes[i - 1]) ++runs;
  }
  stats.runs = runs;
  stats.mean_run_length =
      static_cast<double>(codes.size()) / static_cast<double>(runs);
  stats.gc_content =
      static_cast<double>(stats.base_counts[1] + stats.base_counts[2]) /
      static_cast<double>(codes.size());

  double entropy = 0.0;
  for (std::uint64_t count : stats.base_counts) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / static_cast<double>(codes.size());
    entropy -= p * std::log2(p);
  }
  stats.entropy_bits_per_symbol = entropy;
  return stats;
}

namespace {

/// Accumulates the per-field sizes by rebuilding the node bit-vectors'
/// accounting from the occ backend's structure description. The wavelet
/// tree doesn't expose per-node internals, so we recompute the breakdown
/// from the BWT with the same parameters — identical arithmetic, observable
/// fields.
RrrSizeBreakdown compute_breakdown(const FmIndex<RrrWaveletOcc>& index) {
  const RrrWaveletOcc& occ = index.occ_backend();
  const RrrParams params = occ.params();
  const unsigned b = params.block_bits;
  const unsigned sf = params.superblock_factor;

  RrrSizeBreakdown breakdown;
  breakdown.shared_table_bytes = GlobalRankTable::get(b).device_size_in_bytes();

  // Rebuild each wavelet level's bit-vector lengths and offset widths.
  // Level sizes: root = n; children = counts of each half.
  const auto& bwt = index.bwt().symbols;
  const std::size_t n = bwt.size();
  std::array<std::uint64_t, 4> counts{};
  for (std::uint8_t c : bwt) ++counts[c];

  const std::uint64_t node_sizes[3] = {n, counts[0] + counts[1], counts[2] + counts[3]};
  for (std::uint64_t node_bits : node_sizes) {
    const std::uint64_t blocks = div_ceil(node_bits, b);
    const std::uint64_t supers = div_ceil(blocks, sf);
    breakdown.classes_bytes += div_ceil(blocks * 4, 8);
    breakdown.partial_sum_bytes += supers * 4;
    breakdown.offset_sum_bytes += supers * 4;
  }
  // The offsets term depends on content; take it from the real structure:
  // occ.size_in_bytes() counts classes+sums+offsets+node overhead, so the
  // offsets bytes are the remainder.
  const std::uint64_t accounted = breakdown.classes_bytes +
                                  breakdown.partial_sum_bytes +
                                  breakdown.offset_sum_bytes;
  const std::uint64_t actual = occ.size_in_bytes();
  breakdown.offsets_bytes = actual > accounted ? actual - accounted : 0;
  // Word-padding and node structs land in the offsets remainder; split out
  // a nominal per-node overhead for reporting.
  breakdown.node_overhead_bytes = 0;
  return breakdown;
}

}  // namespace

IndexStats compute_index_stats(const FmIndex<RrrWaveletOcc>& index,
                               const DeviceSpec& device) {
  IndexStats stats;
  stats.bwt = compute_sequence_stats(index.bwt().symbols);
  const auto text = inverse_bwt(index.bwt());
  stats.text = compute_sequence_stats(text);
  stats.structure = compute_breakdown(index);
  stats.suffix_array_bytes = index.suffix_array().size_in_bytes();

  const double total = static_cast<double>(stats.structure.total_bytes());
  stats.bytes_per_base = total / static_cast<double>(std::max<std::uint64_t>(1, index.size()));
  stats.saved_vs_raw = 1.0 - stats.bytes_per_base;
  stats.device_capacity_bytes = device.total_on_chip_bytes();
  stats.fits_on_device = stats.structure.total_bytes() <= stats.device_capacity_bytes;
  return stats;
}

std::string format_index_stats(const IndexStats& stats) {
  char buffer[2048];
  std::snprintf(
      buffer, sizeof(buffer),
      "reference:        %llu bp, GC %.1f%%, H0 %.3f bits/base\n"
      "BWT runs:         %llu (mean run %.2f; raw text: %llu / %.2f)\n"
      "structure bytes:  %llu total (%.4f B/base, %.1f%% saved vs raw BWT)\n"
      "  classes:        %llu\n"
      "  partial sums:   %llu\n"
      "  offset sums:    %llu\n"
      "  offsets:        %llu\n"
      "  shared tables:  %llu\n"
      "suffix array:     %llu bytes (host-resident)\n"
      "device fit:       %s (%llu / %llu bytes)\n",
      static_cast<unsigned long long>(stats.text.length), stats.text.gc_content * 100,
      stats.text.entropy_bits_per_symbol,
      static_cast<unsigned long long>(stats.bwt.runs), stats.bwt.mean_run_length,
      static_cast<unsigned long long>(stats.text.runs), stats.text.mean_run_length,
      static_cast<unsigned long long>(stats.structure.total_bytes()),
      stats.bytes_per_base, stats.saved_vs_raw * 100,
      static_cast<unsigned long long>(stats.structure.classes_bytes),
      static_cast<unsigned long long>(stats.structure.partial_sum_bytes),
      static_cast<unsigned long long>(stats.structure.offset_sum_bytes),
      static_cast<unsigned long long>(stats.structure.offsets_bytes),
      static_cast<unsigned long long>(stats.structure.shared_table_bytes),
      static_cast<unsigned long long>(stats.suffix_array_bytes),
      stats.fits_on_device ? "YES" : "NO — exceeds on-chip memory",
      static_cast<unsigned long long>(stats.structure.total_bytes()),
      static_cast<unsigned long long>(stats.device_capacity_bytes));
  return buffer;
}

}  // namespace bwaver
