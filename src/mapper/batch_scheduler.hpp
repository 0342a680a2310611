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
// Because each read still executes exactly the interval sequence
// FmIndex::count() would (same seed-table decision, same early exit on an
// empty interval), the resulting SA intervals — and therefore the SAM —
// are byte-identical to per-read order by construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "fmindex/fm_index.hpp"
#include "fmindex/sa_interval.hpp"
#include "fpga/query_packet.hpp"
#include "mapper/read_batch.hpp"

namespace bwaver {

struct SoftwareMapReport;

/// Occupancy counters of one or more sweep runs (exported as
/// bwaver_sweep_* metrics — see docs/observability.md).
struct SweepStats {
  std::uint64_t batches = 0;      ///< sweep invocations (one per shard/chunk)
  std::uint64_t passes = 0;       ///< step sweeps over the in-flight pool
  std::uint64_t state_steps = 0;  ///< single-read single-step advances
  std::uint64_t peak_active = 0;  ///< largest in-flight pool of any pass

  SweepStats& operator+=(const SweepStats& other) noexcept {
    batches += other.batches;
    passes += other.passes;
    state_steps += other.state_steps;
    peak_active = std::max(peak_active, other.peak_active);
    return *this;
  }
};

namespace detail {

/// One in-flight backward search. `slot` routes the finished interval to
/// the caller's output (and selects the pattern); `remaining` counts the
/// codes not yet consumed — the next step consumes pattern[remaining - 1].
struct SweepState {
  std::uint32_t slot;
  std::uint32_t remaining;
  SaInterval iv;
};

/// Runs every state in `states` to completion (interval empty or pattern
/// consumed), step-synchronously; consumes the vector. Finished intervals
/// land in out_iv[slot]. `pattern_base[slot]` points at the 2-bit code
/// array the state is searching (the next step consumes
/// pattern_base[slot][remaining - 1]). Each state executes exactly the step
/// sequence the per-read recurrence would, so out_iv is byte-identical to
/// per-read search regardless of scheduling.
template <typename Occ>
void sweep_execute(const FmIndex<Occ>& index, std::vector<SweepState>& states,
                   const std::uint8_t* const* pattern_base, SaInterval* out_iv,
                   SweepStats* stats) {
  // Deep enough to cover a line fetch at two lines per state, shallow
  // enough that prefetched lines survive in L1 until their step.
  constexpr std::size_t kLookahead = 8;

  if (stats != nullptr) ++stats->batches;
  for (;;) {
    // Retire finished searches (also catches states that start final: an
    // empty pattern, or a seed hit covering the whole read).
    std::size_t kept = 0;
    for (SweepState& state : states) {
      if (state.remaining == 0 || state.iv.empty()) {
        out_iv[state.slot] = state.iv;
      } else {
        states[kept++] = state;
      }
    }
    states.resize(kept);
    if (states.empty()) break;

    if (stats != nullptr) {
      ++stats->passes;
      stats->state_steps += states.size();
      stats->peak_active = std::max<std::uint64_t>(stats->peak_active, states.size());
    }

    // One step for every in-flight state. The states are mutually
    // independent, so the pass is a stream of parallel line fetches — the
    // memory-level parallelism a per-read dependent chain never exposes.
    const std::size_t m = states.size();
    for (std::size_t j = 0; j < m; ++j) {
      if (j + kLookahead < m) index.prefetch_step(states[j + kLookahead].iv);
      SweepState& state = states[j];
      state.iv =
          index.count_step(state.iv, pattern_base[state.slot][state.remaining - 1]);
      --state.remaining;
    }
  }
}

/// Drop-in alternative to map_batch (software_mapper.hpp): forward +
/// reverse-complement exact search of every read through the sweep
/// scheduler, chunked across `threads` workers. Returns the identical
/// QueryResult vector.
template <typename Occ>
std::vector<QueryResult> sweep_map_batch(const FmIndex<Occ>& index,
                                         const ReadBatch& batch, unsigned threads,
                                         SoftwareMapReport* report);

}  // namespace detail
}  // namespace bwaver
