#include "mapper/batch_scheduler.hpp"

#include <atomic>
#include <cstring>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>

#include "fmindex/dna.hpp"
#include "fmindex/occ_backends.hpp"
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

/// One wave of searches, plus the buffers the sweep reuses across waves.
/// Slot 2k searches read k of the wave forward, slot 2k + 1 its reverse
/// complement.
struct SweepWave {
  /// pattern[slot]: the 2-bit codes the slot searches.
  std::vector<const std::uint8_t*> pattern;
  /// Searches in flight; the sweep consumes them.
  std::vector<SweepState> states;
  /// Searches retired with a one-row interval, to finish on the text.
  std::vector<SweepState> one_row;
  /// SA[row] of each one_row search.
  std::vector<std::uint32_t> text_pos;
  /// Out, per slot: the final interval, and the leading codes matched on
  /// the text (QueryResult::fwd_verified / rev_verified).
  std::vector<SaInterval> iv;
  std::vector<std::uint32_t> verified;
};

/// Runs every search in wave.states until its answer is known,
/// step-synchronously, and consumes the states. A search whose interval
/// empties, or whose pattern is consumed, lands in wave.iv[slot]; one whose
/// interval holds a single row is set aside in wave.one_row for
/// finish_on_text. `step(iv, c)` must equal index.count_step(iv, c), so
/// every search runs exactly the steps the per-read recurrence would, up to
/// the point it retires.
template <typename Occ, typename Step>
void sweep_execute(const FmIndex<Occ>& index, const Step& step, SweepWave& wave,
                   SweepStats& stats) {
  // Deep enough to cover a line fetch at two lines per state, shallow
  // enough that prefetched lines survive in L1 until their step.
  constexpr std::size_t kLookahead = 8;

  std::vector<SweepState>& states = wave.states;
  ++stats.batches;
  for (;;) {
    // Retire finished searches (also catches states that start final: an
    // empty pattern, an absent seed, or a seed hit covering the whole read).
    std::size_t kept = 0;
    for (const SweepState& state : states) {
      if (state.remaining == 0 || state.iv.empty()) {
        wave.iv[state.slot] = state.iv;
      } else if (state.iv.hi - state.iv.lo == 1) {
        wave.one_row.push_back(state);
      } else {
        states[kept++] = state;
      }
    }
    states.resize(kept);
    if (states.empty()) break;

    ++stats.passes;
    stats.state_steps += states.size();
    stats.peak_active = std::max<std::uint64_t>(stats.peak_active, states.size());

    // One step for every in-flight state. The states are mutually
    // independent, so the pass is a stream of parallel line fetches — the
    // memory-level parallelism a per-read dependent chain never exposes.
    const std::size_t m = states.size();
    for (std::size_t j = 0; j < m; ++j) {
      if (j + kLookahead < m) index.prefetch_step(states[j + kLookahead].iv);
      SweepState& state = states[j];
      state.iv = step(state.iv, wave.pattern[state.slot][state.remaining - 1]);
      --state.remaining;
    }
  }
}

/// Finishes the wave's one-row searches against the text. A one-row
/// interval fixes the only place the read can occur: its matched suffix
/// starts at p = SA[row], so the read occurs iff r <= p <= n and
/// text[p - r, p) spells its r unconsumed codes — one comparison of 32
/// bases per word instead of r dependent rank steps. The p <= n bound is
/// the one check a suffix-array entry gets: a packed entry can hold any
/// value below 2^width, and a CRC-valid archive can carry one past the
/// text. A hit keeps the row and records r as verified (the hit is at
/// p - r); a miss finishes empty.
void finish_on_text(const IntVector& sa, const PackedText& text, SweepWave& wave,
                    SweepStats& stats) {
  // The rows and text positions are scattered, so every access is a likely
  // miss; the lookahead overlaps them.
  constexpr std::size_t kLookahead = 8;

  const std::vector<SweepState>& pending = wave.one_row;
  const std::size_t m = pending.size();
  const std::size_t n = text.size();
  wave.text_pos.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    if (j + kLookahead < m) sa.prefetch(pending[j + kLookahead].iv.lo);
    wave.text_pos[j] = static_cast<std::uint32_t>(sa.get(pending[j].iv.lo));
  }
  for (std::size_t j = 0; j < m; ++j) {
    if (j + kLookahead < m) {
      const std::uint32_t p = wave.text_pos[j + kLookahead];
      const std::uint32_t r = pending[j + kLookahead].remaining;
      if (r <= p && p <= n) {
        text.prefetch(p - r);
        text.prefetch(p - 1);
      }
    }
    const SweepState& state = pending[j];
    const std::uint32_t p = wave.text_pos[j];
    const std::uint32_t r = state.remaining;
    const bool hit = r <= p && p <= n && text.matches(p - r, wave.pattern[state.slot], r);
    wave.iv[state.slot] = hit ? state.iv : SaInterval{};
    wave.verified[state.slot] = hit ? r : 0;
  }
  stats.verified += m;
  wave.one_row.clear();
}

/// Writes the reverse complement of `codes` to `out` (codes.size() bytes):
/// out[j] = dna_complement(codes[size - 1 - j]), eight codes per byte swap.
/// A wave's reads sit back to back in the batch, so one pass over the
/// wave's block gives every read's reverse complement at the mirrored
/// offset.
void reverse_complement(std::span<const std::uint8_t> codes, std::uint8_t* out) {
  constexpr std::uint64_t kThrees = 0x0303030303030303ULL;
  const std::size_t n = codes.size();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    std::uint64_t x;
    std::memcpy(&x, codes.data() + n - j - 8, 8);
    x = (__builtin_bswap64(x) & kThrees) ^ kThrees;
    std::memcpy(out + j, &x, 8);
  }
  for (; j < n; ++j) out[j] = dna_complement(codes[n - 1 - j]);
}

/// The sweep's first state for `pattern`: count_start's seeding, except
/// that a pattern whose seed k-mer is absent from the table starts empty.
/// Its final k codes never occur in the text, so neither does the read;
/// count() restarts such a search from the full interval instead, and the
/// sweep would spend ~k wide steps proving the same thing.
template <typename Occ>
SweepState start_search(const FmIndex<Occ>& index, std::uint32_t slot,
                        std::span<const std::uint8_t> pattern, SweepStats& stats) {
  std::size_t remaining = 0;
  SaInterval iv = index.count_start(pattern, remaining);
  const KmerSeedTable* seeds = index.seed_table();
  if (seeds != nullptr && pattern.size() >= seeds->k() && remaining == pattern.size()) {
    ++stats.seed_misses;
    iv = SaInterval{};
  }
  return {slot, static_cast<std::uint32_t>(remaining), iv};
}

/// Prefetches the seed-table entries start_search will read for `pattern`.
/// always_inline for the reason FmIndex::prefetch_step gives: a call whose
/// only effect is a prefetch is otherwise deleted.
[[gnu::always_inline]] inline void prefetch_seed(const KmerSeedTable& seeds,
                                                 std::span<const std::uint8_t> pattern) {
  if (pattern.size() >= seeds.k()) seeds.prefetch(pattern.last(seeds.k()));
}

/// A whole sweep over one wave; sweep_map_batch runs one per wave.
template <typename Occ>
using SweepFn = void (*)(const FmIndex<Occ>&, SweepWave&, SweepStats&);

template <typename Occ>
void sweep_by_count_step(const FmIndex<Occ>& index, SweepWave& wave, SweepStats& stats) {
  const auto step = [&index](SaInterval iv, std::uint8_t c) {
    return index.count_step(iv, c);
  };
  sweep_execute(index, step, wave, stats);
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
void epr_sweep(const FmIndex<EprOcc>& index, SweepWave& wave, SweepStats& stats) {
  const EprOcc& occ = index.occ_backend();
  const auto step = [&index, &occ](SaInterval iv, std::uint8_t c) {
    const std::uint32_t base = index.c_array(c);
    return SaInterval{
        static_cast<std::uint32_t>(base + occ.rank_inline(c, index.occ_row(iv.lo),
                                                          LowBitsFn{})),
        static_cast<std::uint32_t>(base + occ.rank_inline(c, index.occ_row(iv.hi),
                                                          LowBitsFn{}))};
  };
  sweep_execute(index, step, wave, stats);
}

/// Baseline ISA: the portable mask, and __builtin_popcountll as the
/// toolchain lowers it for the build's target.
__attribute__((flatten)) void epr_sweep_baseline(const FmIndex<EprOcc>& index,
                                                 SweepWave& wave, SweepStats& stats) {
  epr_sweep<EprOcc::LowBits>(index, wave, stats);
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
    const FmIndex<EprOcc>& index, SweepWave& wave, SweepStats& stats) {
  epr_sweep<BzhiLowBits>(index, wave, stats);
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
std::vector<QueryResult> sweep_map_batch(const FmIndex<Occ>& index, const PackedText& text,
                                         ReadSpan batch, unsigned threads,
                                         SoftwareMapReport* report) {
  if (text.size() != index.size()) {
    throw std::invalid_argument("sweep_map_batch: text has " + std::to_string(text.size()) +
                                " codes, the index " + std::to_string(index.size()));
  }
  const SweepFn<Occ> sweep = sweep_for(index);
  const IntVector& sa = index.suffix_array();
  const KmerSeedTable* seeds = index.seed_table();
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
  // Reads whose seed-table entries are prefetched ahead of their lookup.
  constexpr std::size_t kSeedLookahead = 4;

  auto work = [&](std::size_t begin, std::size_t end) {
    std::uint64_t local_mapped = 0;
    SweepStats stats;
    std::vector<std::uint8_t> rc_codes;
    SweepWave wave;
    for (std::size_t first = begin; first < end; first += kWaveReads) {
      const std::size_t count = std::min(kWaveReads, end - first);

      // Reverse complements for the wave, flat so states can re-read
      // their pattern each pass without per-read allocations: the reversed
      // block holds read k's reverse complement where the block's mirror
      // image puts it.
      const std::span<const std::uint8_t> block = batch.codes(first, count);
      rc_codes.resize(block.size());
      reverse_complement(block, rc_codes.data());
      const auto rc_read = [&](std::size_t k) {
        const auto read = batch.read(first + k);
        const std::size_t end_offset =
            static_cast<std::size_t>(read.data() - block.data()) + read.size();
        return std::span<const std::uint8_t>(rc_codes.data() + (block.size() - end_offset),
                                             read.size());
      };

      // Seed every search; the sweep retires the ones that start final.
      wave.pattern.resize(2 * count);
      wave.states.clear();
      wave.states.reserve(2 * count);
      wave.iv.assign(2 * count, SaInterval{});
      wave.verified.assign(2 * count, 0);
      for (std::size_t k = 0; k < count; ++k) {
        if (seeds != nullptr && k + kSeedLookahead < count) {
          prefetch_seed(*seeds, batch.read(first + k + kSeedLookahead));
          prefetch_seed(*seeds, rc_read(k + kSeedLookahead));
        }
        const auto slot = static_cast<std::uint32_t>(2 * k);
        wave.pattern[slot] = batch.read(first + k).data();
        wave.pattern[slot + 1] = rc_read(k).data();
        wave.states.push_back(start_search(index, slot, batch.read(first + k), stats));
        wave.states.push_back(start_search(index, slot + 1, rc_read(k), stats));
      }

      sweep(index, wave, stats);
      finish_on_text(sa, text, wave, stats);

      for (std::size_t k = 0; k < count; ++k) {
        const SaInterval fwd = wave.iv[2 * k];
        const SaInterval rev = wave.iv[2 * k + 1];
        QueryResult& result = results[first + k];
        result.id = static_cast<std::uint32_t>(first + k);
        result.fwd_lo = fwd.lo;
        result.fwd_hi = fwd.hi;
        result.rev_lo = rev.lo;
        result.rev_hi = rev.hi;
        result.fwd_verified = wave.verified[2 * k];
        result.rev_verified = wave.verified[2 * k + 1];
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
    const FmIndex<RrrWaveletOcc>&, const PackedText&, ReadSpan, unsigned, SoftwareMapReport*);
template std::vector<QueryResult> sweep_map_batch<PlainWaveletOcc>(
    const FmIndex<PlainWaveletOcc>&, const PackedText&, ReadSpan, unsigned, SoftwareMapReport*);
template std::vector<QueryResult> sweep_map_batch<SampledOcc>(
    const FmIndex<SampledOcc>&, const PackedText&, ReadSpan, unsigned, SoftwareMapReport*);
template std::vector<QueryResult> sweep_map_batch<EprOcc>(
    const FmIndex<EprOcc>&, const PackedText&, ReadSpan, unsigned, SoftwareMapReport*);

}  // namespace detail
}  // namespace bwaver
