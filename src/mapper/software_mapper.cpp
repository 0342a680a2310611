#include "mapper/software_mapper.hpp"

#include <atomic>

#include "fmindex/dna.hpp"
#include "util/timer.hpp"

namespace bwaver {

namespace detail {

template <typename Occ>
std::vector<QueryResult> map_batch(const FmIndex<Occ>& index, ReadSpan batch, unsigned threads,
                                   SoftwareMapReport* report) {
  std::vector<QueryResult> results(batch.size());
  std::atomic<std::uint64_t> mapped{0};
  WallTimer timer;

  auto work = [&](std::size_t begin, std::size_t end) {
    std::uint64_t local_mapped = 0;
    std::vector<std::uint8_t> rc;
    for (std::size_t i = begin; i < end; ++i) {
      const auto codes = batch.read(i);
      rc.assign(codes.size(), 0);
      for (std::size_t k = 0; k < codes.size(); ++k) {
        rc[k] = dna_complement(codes[codes.size() - 1 - k]);
      }
      const SaInterval fwd = index.count(codes);
      const SaInterval rev = index.count(rc);
      QueryResult& result = results[i];
      result.id = static_cast<std::uint32_t>(i);
      result.fwd_lo = fwd.lo;
      result.fwd_hi = fwd.hi;
      result.rev_lo = rev.lo;
      result.rev_hi = rev.hi;
      if (result.mapped()) ++local_mapped;
    }
    mapped.fetch_add(local_mapped, std::memory_order_relaxed);
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
  }
  return results;
}

template std::vector<QueryResult> map_batch<RrrWaveletOcc>(
    const FmIndex<RrrWaveletOcc>&, ReadSpan, unsigned, SoftwareMapReport*);
template std::vector<QueryResult> map_batch<PlainWaveletOcc>(
    const FmIndex<PlainWaveletOcc>&, ReadSpan, unsigned, SoftwareMapReport*);
template std::vector<QueryResult> map_batch<SampledOcc>(
    const FmIndex<SampledOcc>&, ReadSpan, unsigned, SoftwareMapReport*);
template std::vector<QueryResult> map_batch<EprOcc>(
    const FmIndex<EprOcc>&, ReadSpan, unsigned, SoftwareMapReport*);

}  // namespace detail

BwaverCpuMapper::BwaverCpuMapper(std::span<const std::uint8_t> reference,
                                 RrrParams params) {
  owned_ = std::make_unique<FmIndex<RrrWaveletOcc>>(
      reference, [params](std::span<const std::uint8_t> bwt) {
        return RrrWaveletOcc(bwt, params);
      });
  index_ = owned_.get();
}

std::vector<QueryResult> BwaverCpuMapper::map(ReadSpan batch, unsigned threads,
                                              SoftwareMapReport* report) const {
  return detail::map_batch(*index_, batch, threads, report);
}

Bowtie2LikeMapper::Bowtie2LikeMapper(std::span<const std::uint8_t> reference,
                                     unsigned checkpoint_words)
    : index_(reference, [checkpoint_words](std::span<const std::uint8_t> bwt) {
        return SampledOcc(bwt, checkpoint_words);
      }) {}

std::vector<QueryResult> Bowtie2LikeMapper::map(ReadSpan batch, unsigned threads,
                                                SoftwareMapReport* report) const {
  return detail::map_batch(index_, batch, threads, report);
}

}  // namespace bwaver
