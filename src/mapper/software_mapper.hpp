// Software mappers.
//
//   * BwaverCpuMapper   — the paper's "optimized pure software
//     implementation": the identical RRR-wavelet-tree backward search run
//     on the host CPU, optionally across T worker threads.
//   * Bowtie2LikeMapper — the Bowtie2 stand-in for the paper's
//     `-a --score-min C,0,-1` configuration (all exact matches): an
//     FM-index over a 2-bit-packed BWT with checkpointed Occ counters
//     (the index layout CPU mappers actually use), multithreaded. It
//     builds its own index from raw text, as the Table I/II benches need;
//     the registry's `sampled` engine derives the same SampledOcc from a
//     loaded index instead (DerivedOccMapper, mapper/engine_set.hpp).
//
// Both return the same QueryResult records as the FPGA kernel, so results
// can be compared bit-for-bit ("without any loss in accuracy").
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fmindex/epr_occ.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/occ_backends.hpp"
#include "fpga/query_packet.hpp"
#include "mapper/batch_scheduler.hpp"
#include "mapper/read_batch.hpp"
#include "util/thread_pool.hpp"

namespace bwaver {

/// Wall-clock report of one software mapping run.
struct SoftwareMapReport {
  double seconds = 0.0;
  unsigned threads = 1;
  std::uint64_t reads = 0;
  std::uint64_t mapped = 0;
  /// Scheduler occupancy counters; all-zero for per-read searches.
  SweepStats sweep;
};

namespace detail {
/// Shared implementation: forward + reverse-complement backward search of
/// every read in `batch` over `index`, each read to completion, chunked
/// across `threads` workers. The batched alternative with identical results
/// is sweep_map_batch (batch_scheduler.hpp).
template <typename Occ>
std::vector<QueryResult> map_batch(const FmIndex<Occ>& index, ReadSpan batch, unsigned threads,
                                   SoftwareMapReport* report);
}  // namespace detail

class BwaverCpuMapper {
 public:
  /// Builds the succinct index over the reference (2-bit codes).
  BwaverCpuMapper(std::span<const std::uint8_t> reference, RrrParams params);

  /// Wraps an existing index (not owned).
  explicit BwaverCpuMapper(const FmIndex<RrrWaveletOcc>& index) : index_(&index) {}

  std::vector<QueryResult> map(ReadSpan batch, unsigned threads = 1,
                               SoftwareMapReport* report = nullptr) const;

  const FmIndex<RrrWaveletOcc>& index() const noexcept { return *index_; }

 private:
  std::unique_ptr<FmIndex<RrrWaveletOcc>> owned_;
  const FmIndex<RrrWaveletOcc>* index_;
};

class Bowtie2LikeMapper {
 public:
  /// `checkpoint_words`: 64-bit words per Occ checkpoint block.
  explicit Bowtie2LikeMapper(std::span<const std::uint8_t> reference,
                             unsigned checkpoint_words = 4);

  std::vector<QueryResult> map(ReadSpan batch, unsigned threads = 1,
                               SoftwareMapReport* report = nullptr) const;

  const FmIndex<SampledOcc>& index() const noexcept { return index_; }

 private:
  FmIndex<SampledOcc> index_;
};

/// Mapper over an Occ backend derived from an existing index: the BWT,
/// suffix array, C array and seed table are borrowed (zero-copy views) from
/// the base RRR index, only the Occ structure itself is the mapper's own —
/// so an engine beyond the archive's native backend costs at most one O(n)
/// encode, never a suffix-array reconstruction or a rescan of the BWT.
/// Searches give identical SA intervals to the base index by construction.
template <typename Occ>
class DerivedOccMapper {
 public:
  /// Adopts `occ`, an Occ structure over `base`'s BWT (encoded from its
  /// symbols, or a view of the archive's "epr" section).
  DerivedOccMapper(const FmIndex<RrrWaveletOcc>& base, Occ occ)
      : index_(Bwt{FlatArray<std::uint8_t>::view_of(base.bwt().symbols),
                   base.bwt().primary, base.bwt().text_length},
               IntVector::view_of(base.suffix_array()), std::move(occ),
               {base.c_array(0), base.c_array(1), base.c_array(2), base.c_array(3)}) {
    index_.set_seed_table(base.shared_seed_table());
  }

  /// Per-read search of every read (the batched order is
  /// detail::sweep_map_batch over index()).
  std::vector<QueryResult> map(ReadSpan batch, unsigned threads = 1,
                               SoftwareMapReport* report = nullptr) const {
    return detail::map_batch(index_, batch, threads, report);
  }

  const FmIndex<Occ>& index() const noexcept { return index_; }

 private:
  FmIndex<Occ> index_;  ///< views into the base index, which must outlive this
};

}  // namespace bwaver
