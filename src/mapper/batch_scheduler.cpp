#include "mapper/batch_scheduler.hpp"

#include <atomic>
#include <mutex>

#include "fmindex/dna.hpp"
#include "fmindex/occ_backends.hpp"
#include "kernels/vector_occ.hpp"
#include "mapper/software_mapper.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace bwaver {

namespace detail {

template <typename Occ>
std::vector<QueryResult> sweep_map_batch(const FmIndex<Occ>& index,
                                         const ReadBatch& batch, unsigned threads,
                                         SoftwareMapReport* report) {
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

      // Seed every search exactly as count() would; sweep_execute retires
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

      sweep_execute(index, states, pattern_base.data(), final_iv.data(), &stats);

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
