// Memory-bounded blockwise BWT/FM-index constructor.
//
// The direct build path (suffix array of the whole text, then BWT, then the
// succinct structures, streamed to the archive section by section) peaks
// around 8 bytes/base — chr21 scale on a laptop, short of the full-genome
// references the roadmap targets. Following Chen et al., "A
// Memory-Efficient FM-Index Constructor for NGS Applications on FPGAs"
// (PAPERS.md), this builder keeps the peak near 4 bytes/base plus a
// configurable per-block term:
//
//   1. Partition the text T into fixed-size blocks. The BWT of the last
//      block's suffix X = T[start..n) is built directly (its suffixes are
//      true suffixes of T, so plain suffix-array construction applies).
//   2. Merge each earlier block right-to-left into the accumulated BWT via
//      rank-based interleaving: a backward pass computes D[i] — the rank of
//      the new suffix T[i..] among the old suffixes — with one rank query
//      per base against a VectorOcc over the old BWT; the block's suffixes
//      are then ordered (chars within the block break most ties, the D
//      ranks and the old primary row settle suffixes that run past the
//      block boundary) and the two BWT columns are interleaved in one
//      linear scan. Only the text, the old and merged BWT columns, and the
//      O(block) merge state are ever resident.
//   3. Stream the archive sections through ArchiveStreamWriter in the flat
//      layout (v6 by default: 2-bit text, bit-packed suffix array, no raw
//      BWT section). The suffix array is never materialized: an LF-walk
//      over the final BWT emits (row, position) pairs into row-range
//      buckets on disk, and each bucket is scattered into a bounded chunk
//      and streamed out in row order, packed a word at a time. The k-mer
//      table is counted from the text (KmerSeedTable::build), as the
//      direct path counts it.
//
// The resulting archive is byte-identical to write_index_archive over the
// directly built index (same sections, same layout, same header), which is
// what the parameterized identity suite in tests/build_blockwise_test.cpp
// pins down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "fmindex/bwt.hpp"
#include "fmindex/kmer_table.hpp"
#include "fmindex/reference_set.hpp"
#include "store/index_archive.hpp"
#include "succinct/rrr_vector.hpp"

namespace bwaver {
class ArchiveStreamWriter;
}  // namespace bwaver

namespace bwaver::build {

/// Receives human-readable progress lines ("block 3/12 merged ...").
using ProgressFn = std::function<void(const std::string&)>;

struct BlockwiseConfig {
  /// Block size in bases; 0 derives it from the budget (or uses one block
  /// covering the whole text when the budget is 0 too).
  std::size_t block_bases = 0;
  /// Peak-memory target in bytes (0 = unbounded); see build_plan.hpp.
  std::size_t memory_budget_bytes = 0;
  /// Seed-table k, resolved exactly like the direct path: no value picks
  /// KmerSeedTable::budget_k, an explicit one is capped, 0 disables.
  std::optional<unsigned> seed_k;
  RrrParams rrr{};
  std::uint32_t format_version = kArchiveVersionLatest;
  /// Appends the optional "build" provenance section. Off by default so
  /// blockwise output stays byte-identical to plain write_index_archive.
  bool write_provenance = false;
  /// SA-recovery scatter chunk (bytes); the default suits the default
  /// budget, tests shrink it to force the multi-bucket path.
  std::size_t sa_chunk_bytes = std::size_t{8} << 20;
  ProgressFn progress;
};

struct BlockwiseStats {
  std::size_t text_bases = 0;
  std::size_t block_bases = 0;
  std::size_t blocks = 0;
  std::size_t merge_passes = 0;
  std::uint64_t bytes_written = 0;
};

class BlockwiseBuilder {
 public:
  /// `reference` must outlive the builder; only its concatenated text and
  /// sequence table are read.
  BlockwiseBuilder(const ReferenceSet& reference, BlockwiseConfig config);

  /// The merged BWT of the whole reference, block by block. Exposed for the
  /// identity tests; build_archive() runs it internally.
  Bwt build_merged_bwt();

  /// Builds the full index and streams it into the archive at `path`
  /// (temp + fsync + atomic rename). Returns the build statistics; also
  /// records the bwaver_build_* counters against the ambient metrics
  /// registry.
  BlockwiseStats build_archive(const std::string& path);

 private:
  Bwt build_merged_bwt(std::span<const std::uint8_t> text);
  void merge_block(std::span<const std::uint8_t> text, std::size_t lo, std::size_t hi,
                   Bwt& bwt);
  void stream_suffix_array(ArchiveStreamWriter& writer, std::span<const std::uint8_t> text,
                           const Bwt& bwt, const std::string& path);
  void report(const std::string& line) const;

  const ReferenceSet& reference_;
  BlockwiseConfig config_;
  std::size_t block_bases_ = 0;
  BlockwiseStats stats_;
};

}  // namespace bwaver::build
