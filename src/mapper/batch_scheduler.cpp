#include "mapper/batch_scheduler.hpp"

#include <atomic>
#include <mutex>
#include <span>

#include "fmindex/dna.hpp"
#include "fmindex/occ_backends.hpp"
#include "kernels/vector_occ.hpp"
#include "mapper/software_mapper.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define BWAVER_SWEEP_X86 1
#include <immintrin.h>
#else
#define BWAVER_SWEEP_X86 0
#endif

namespace bwaver {

namespace detail {

namespace {

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
/// pattern_base[slot][remaining - 1]). `step(iv, c)` must equal
/// index.count_step(iv, c); each state then executes exactly the step
/// sequence the per-read recurrence would, so out_iv is byte-identical to
/// per-read search regardless of scheduling.
template <typename Occ, typename Step>
void sweep_execute(const FmIndex<Occ>& index, const Step& step,
                   std::vector<SweepState>& states,
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
      state.iv = step(state.iv, pattern_base[state.slot][state.remaining - 1]);
      --state.remaining;
    }
  }
}

/// A whole sweep over one index; sweep_map_batch runs one per wave.
template <typename Occ>
using SweepFn = void (*)(const FmIndex<Occ>&, std::vector<SweepState>&,
                         const std::uint8_t* const*, SaInterval*, SweepStats*);

template <typename Occ>
void sweep_by_count_step(const FmIndex<Occ>& index, std::vector<SweepState>& states,
                         const std::uint8_t* const* pattern_base, SaInterval* out_iv,
                         SweepStats* stats) {
  const auto step = [&index](SaInterval iv, std::uint8_t c) {
    return index.count_step(iv, c);
  };
  sweep_execute(index, step, states, pattern_base, out_iv, stats);
}

/// The backend's own step (its rank, whatever that dispatches to).
template <typename Occ>
SweepFn<Occ> sweep_for(const FmIndex<Occ>& /*index*/) {
  return &sweep_by_count_step<Occ>;
}

/// EPR sweep with the block count inlined: both bounds rank through
/// EprOcc::rank_inline, each reading its own block, so a step makes no
/// call at all once the caller's ISA tier is compiled in.
template <typename LowBitsFn>
void epr_sweep(const FmIndex<EprOcc>& index, std::vector<SweepState>& states,
               const std::uint8_t* const* pattern_base, SaInterval* out_iv,
               SweepStats* stats) {
  const EprOcc& occ = index.occ_backend();
  const auto step = [&index, &occ](SaInterval iv, std::uint8_t c) {
    const std::uint32_t base = index.c_array(c);
    return SaInterval{
        static_cast<std::uint32_t>(base + occ.rank_inline(c, index.occ_row(iv.lo),
                                                          LowBitsFn{})),
        static_cast<std::uint32_t>(base + occ.rank_inline(c, index.occ_row(iv.hi),
                                                          LowBitsFn{}))};
  };
  sweep_execute(index, step, states, pattern_base, out_iv, stats);
}

/// Baseline ISA: the portable mask, and __builtin_popcountll as the
/// toolchain lowers it for the build's target.
__attribute__((flatten)) void epr_sweep_baseline(const FmIndex<EprOcc>& index,
                                                 std::vector<SweepState>& states,
                                                 const std::uint8_t* const* pattern_base,
                                                 SaInterval* out_iv, SweepStats* stats) {
  epr_sweep<EprOcc::LowBits>(index, states, pattern_base, out_iv, stats);
}

#if BWAVER_SWEEP_X86

/// BZHI: the saturating low-bits mask in one instruction.
struct BzhiLowBits {
  __attribute__((target("bmi2"))) std::uint64_t operator()(std::uint64_t x,
                                                           unsigned n) const noexcept {
    return _bzhi_u64(x, n);
  }
};

/// The avx2 tier (cpu_features() guarantees POPCNT and BMI2 with it): the
/// whole loop compiled with hardware POPCNT and BZHI.
__attribute__((target("popcnt,bmi2"), flatten)) void epr_sweep_popcnt_bmi2(
    const FmIndex<EprOcc>& index, std::vector<SweepState>& states,
    const std::uint8_t* const* pattern_base, SaInterval* out_iv, SweepStats* stats) {
  epr_sweep<BzhiLowBits>(index, states, pattern_base, out_iv, stats);
}

#endif  // BWAVER_SWEEP_X86

/// Picked once per sweep_map_batch call from the EprOcc's own kernel —
/// the active one, or the one a test pinned.
SweepFn<EprOcc> sweep_for([[maybe_unused]] const FmIndex<EprOcc>& index) {
#if BWAVER_SWEEP_X86
  if (index.occ_backend().kernel().level == SimdLevel::kAvx2) {
    return &epr_sweep_popcnt_bmi2;
  }
#endif
  return &epr_sweep_baseline;
}

}  // namespace

template <typename Occ>
std::vector<QueryResult> sweep_map_batch(const FmIndex<Occ>& index,
                                         const ReadBatch& batch, unsigned threads,
                                         SoftwareMapReport* report) {
  const SweepFn<Occ> sweep = sweep_for(index);
  std::vector<QueryResult> results(batch.size());
  std::atomic<std::uint64_t> mapped{0};
  std::mutex stats_mutex;
  SweepStats total_stats;
  WallTimer timer;

  // Reads per sweep wave: large enough for full memory-level parallelism
  // (thousands of independent in-flight searches), small enough that the
  // scheduler's state/scratch arrays stay resident next to the hot part of
  // the occ structure instead of streaming through the whole cache.
  constexpr std::size_t kWaveReads = 4096;

  auto work = [&](std::size_t begin, std::size_t end) {
    std::uint64_t local_mapped = 0;
    SweepStats stats;
    std::vector<std::uint8_t> rc_codes;
    std::vector<std::size_t> rc_offsets;
    std::vector<const std::uint8_t*> pattern_base;
    std::vector<SweepState> states;
    std::vector<SaInterval> final_iv;
    for (std::size_t wave = begin; wave < end; wave += kWaveReads) {
      const std::size_t count = std::min(kWaveReads, end - wave);

      // Reverse complements for the wave, flat so states can re-read
      // their pattern each pass without per-read allocations. Slot
      // convention: read k of the wave searches forward in slot 2k, its
      // reverse complement in slot 2k + 1.
      rc_offsets.assign(count + 1, 0);
      for (std::size_t k = 0; k < count; ++k) {
        rc_offsets[k + 1] = rc_offsets[k] + batch.read(wave + k).size();
      }
      rc_codes.resize(rc_offsets[count]);
      for (std::size_t k = 0; k < count; ++k) {
        const auto codes = batch.read(wave + k);
        std::uint8_t* out = rc_codes.data() + rc_offsets[k];
        for (std::size_t i = 0; i < codes.size(); ++i) {
          out[i] = dna_complement(codes[codes.size() - 1 - i]);
        }
      }
      const auto rc_read = [&](std::size_t k) {
        return std::span<const std::uint8_t>(rc_codes.data() + rc_offsets[k],
                                             rc_offsets[k + 1] - rc_offsets[k]);
      };

      // Seed every search exactly as count() would; the sweep retires
      // the ones count_start already finished (seed-covered/empty reads).
      pattern_base.resize(2 * count);
      states.clear();
      states.reserve(2 * count);
      final_iv.assign(2 * count, SaInterval{});
      for (std::size_t k = 0; k < count; ++k) {
        pattern_base[2 * k] = batch.read(wave + k).data();
        pattern_base[2 * k + 1] = rc_codes.data() + rc_offsets[k];
        std::size_t remaining = 0;
        SaInterval iv = index.count_start(batch.read(wave + k), remaining);
        states.push_back({static_cast<std::uint32_t>(2 * k),
                          static_cast<std::uint32_t>(remaining), iv});
        iv = index.count_start(rc_read(k), remaining);
        states.push_back({static_cast<std::uint32_t>(2 * k + 1),
                          static_cast<std::uint32_t>(remaining), iv});
      }

      sweep(index, states, pattern_base.data(), final_iv.data(), &stats);

      for (std::size_t k = 0; k < count; ++k) {
        const SaInterval fwd = final_iv[2 * k];
        const SaInterval rev = final_iv[2 * k + 1];
        QueryResult& result = results[wave + k];
        result.id = static_cast<std::uint32_t>(wave + k);
        result.fwd_lo = fwd.lo;
        result.fwd_hi = fwd.hi;
        result.rev_lo = rev.lo;
        result.rev_hi = rev.hi;
        if (result.mapped()) ++local_mapped;
      }
    }
    mapped.fetch_add(local_mapped, std::memory_order_relaxed);
    const std::scoped_lock lock(stats_mutex);
    total_stats += stats;
  };

  if (threads <= 1) {
    work(0, batch.size());
  } else {
    ThreadPool pool(threads);
    pool.parallel_for(batch.size(), work);
  }

  if (report) {
    report->seconds = timer.seconds();
    report->threads = threads;
    report->reads = batch.size();
    report->mapped = mapped.load();
    report->sweep = total_stats;
  }
  return results;
}

template std::vector<QueryResult> sweep_map_batch<RrrWaveletOcc>(
    const FmIndex<RrrWaveletOcc>&, const ReadBatch&, unsigned, SoftwareMapReport*);
template std::vector<QueryResult> sweep_map_batch<PlainWaveletOcc>(
    const FmIndex<PlainWaveletOcc>&, const ReadBatch&, unsigned, SoftwareMapReport*);
template std::vector<QueryResult> sweep_map_batch<SampledOcc>(
    const FmIndex<SampledOcc>&, const ReadBatch&, unsigned, SoftwareMapReport*);
template std::vector<QueryResult> sweep_map_batch<VectorOcc>(
    const FmIndex<VectorOcc>&, const ReadBatch&, unsigned, SoftwareMapReport*);
template std::vector<QueryResult> sweep_map_batch<EprOcc>(
    const FmIndex<EprOcc>&, const ReadBatch&, unsigned, SoftwareMapReport*);

}  // namespace detail
}  // namespace bwaver
