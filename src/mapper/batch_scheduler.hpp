// Locality-aware batched backward search — the "index sweep" scheduler.
//
// The per-read mapper walks each read's backward search to completion
// before touching the next: every occ lookup depends on the previous
// interval, so the core sits in a serial dependent-load chain and the
// memory system serves one (likely-missing) line at a time. Gagie's
// *Sequential-Access FM-Indexes* observation (PAPERS.md) is that backward
// search is step-synchronous: reordering WHICH read advances next never
// changes any read's interval sequence. The sweep scheduler exploits
// that: it keeps a wave of in-flight (interval, codes-remaining) states
// in one pool and advances the whole pool one step per pass. Within a
// pass the states are mutually independent, so their line fetches overlap
// — the memory-level parallelism a per-read chain never exposes — and a
// software-prefetch lookahead (FmIndex::prefetch_step, on backends with
// address-computable rank storage) issues each state's lines several
// steps before they are consumed. Waves are bounded (kWaveReads in
// batch_scheduler.cpp) so the scheduler's scratch stays cache-resident
// next to the hot part of the occ structure. An earlier variant also
// sorted the pool by interval position each pass to stream checkpoints
// in address order; measurement showed the sort's O(m log m) comparisons
// dwarfed the search steps at genome scales whose occ structures already
// sit in LLC, so the pool is left in slot order.
//
// A search also stops as soon as its answer is known, which per-read
// search (FmIndex::count) never does:
//   * one row: once the interval holds a single row, the read can only
//     occur where SA[row] places it, so the search retires and the wave
//     finishes it with one comparison against the 2-bit reference text, a
//     word of 32 bases at a time, instead of its remaining rank steps (the
//     rows' SA entries and text words are prefetched ahead, like the rank
//     lines);
//   * absent seed: a read whose final k-mer is absent from the seed table
//     cannot occur, so it retires before its first step, where count()
//     restarts from the full interval.
// Seed-table entries are prefetched a few reads ahead of their lookup.
//
// The sweep therefore returns the identical HITS, not the identical
// intervals: a search finished on the text keeps the one-row interval of
// the suffix it had matched and reports the matched prefix length as
// QueryResult::fwd_verified / rev_verified, so its hit is at
// SA[row] - verified; a search the text rejects, or an absent seed, ends
// empty. Every other search runs exactly count()'s step sequence. The read
// occurs at most once when its matched suffix does, and the text has no
// separators (like the BWT), so a hit straddling a sequence boundary is
// found and then dropped by resolve exactly as before: the SAM is
// byte-identical to per-read search.
//
// On the EPR backend the step loop skips FmIndex::count_step and its
// per-rank kernel call: batch_scheduler.cpp compiles the loop once per ISA
// tier with the block count inlined (EprOcc::rank_inline; POPCNT and BZHI
// on the avx2 tier, the baseline ISA otherwise), and sweep_map_batch picks
// the version once per call from the EprOcc's own kernel().level.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "fmindex/fm_index.hpp"
#include "fmindex/packed_text.hpp"
#include "fpga/query_packet.hpp"
#include "mapper/read_batch.hpp"

namespace bwaver {

struct SoftwareMapReport;

/// Occupancy counters of one or more sweep runs (exported as
/// bwaver_sweep_* metrics — see docs/observability.md).
struct SweepStats {
  std::uint64_t batches = 0;      ///< sweeps run (one per wave of a shard/chunk)
  std::uint64_t passes = 0;       ///< step sweeps over the in-flight pool
  std::uint64_t state_steps = 0;  ///< single-read single-step advances
  std::uint64_t peak_active = 0;  ///< largest in-flight pool of any pass
  std::uint64_t verified = 0;     ///< searches finished on the text (one row)
  std::uint64_t seed_misses = 0;  ///< searches retired at an absent seed k-mer

  SweepStats& operator+=(const SweepStats& other) noexcept {
    batches += other.batches;
    passes += other.passes;
    state_steps += other.state_steps;
    peak_active = std::max(peak_active, other.peak_active);
    verified += other.verified;
    seed_misses += other.seed_misses;
    return *this;
  }
};

namespace detail {

/// Drop-in alternative to map_batch (software_mapper.hpp): forward +
/// reverse-complement exact search of every read through the sweep
/// scheduler, chunked across `threads` workers. Returns the identical hits
/// (see above). `text` is the packed text `index` was built over; throws
/// std::invalid_argument unless its size equals index.size().
template <typename Occ>
std::vector<QueryResult> sweep_map_batch(const FmIndex<Occ>& index, const PackedText& text,
                                         ReadSpan batch, unsigned threads,
                                         SoftwareMapReport* report);

}  // namespace detail
}  // namespace bwaver
