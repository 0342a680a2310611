// Extension bench: host-side suffix-array policy. The paper keeps the full
// SA on the host (4 B/base); sampling it at rate r shrinks the footprint to
// ~4/r B/base at the cost of up to r-1 LF steps per located position —
// the host-memory prerequisite for the paper's ">100 Mbp references"
// future work. Reports locate throughput and memory across rates.
#include <cstdio>

#include "bench_util.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/occ_backends.hpp"
#include "fmindex/sampled_sa.hpp"
#include "sim/read_sim.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace bwaver;
  using namespace bwaver::bench;

  const auto setup = parse_setup(argc, argv, /*default_scale=*/0.05);
  print_header("Extension: sampled-SA locate cost vs memory", setup);

  const auto genome = ecoli_reference(setup);
  const FmIndex<RrrWaveletOcc> index(genome, [](std::span<const std::uint8_t> bwt) {
    return RrrWaveletOcc(bwt, RrrParams{15, 50});
  });

  ReadSimConfig rc;
  rc.num_reads = scaled(50'000, setup.scale * 20);
  rc.read_length = 40;
  rc.mapping_ratio = 1.0;
  const auto reads = simulate_reads(genome, rc);

  // Pre-compute the SA intervals once; then compare locate strategies.
  std::vector<SaInterval> intervals;
  intervals.reserve(reads.size());
  for (const auto& read : reads) intervals.push_back(index.count(read.codes));
  std::printf("reference: %zu bp, %zu located interval sets\n\n", genome.size(),
              intervals.size());

  std::printf("%8s %14s %16s %16s\n", "rate", "SA [MB]", "locate [ms]",
              "positions/s");
  // Full host-resident SA (the paper's configuration).
  {
    WallTimer timer;
    std::uint64_t located = 0;
    for (const SaInterval& iv : intervals) {
      for (std::uint32_t row = iv.lo; row < iv.hi; ++row) {
        volatile std::uint32_t sink = index.sa(row);
        (void)sink;
        ++located;
      }
    }
    const double ms = timer.milliseconds();
    std::printf("%8s %14.2f %16.3f %16.0f   <- paper: full SA on host\n", "full",
                index.suffix_array().size_in_bytes() / 1e6, ms, located / ms * 1e3);
  }
  for (unsigned rate : {4u, 8u, 16u, 32u, 64u}) {
    const SampledSuffixArray sampled(index.suffix_array(), rate);
    WallTimer timer;
    std::uint64_t located = 0;
    for (const SaInterval& iv : intervals) {
      for (std::uint32_t row = iv.lo; row < iv.hi; ++row) {
        volatile std::uint32_t sink = sampled.lookup(index, row);
        (void)sink;
        ++located;
      }
    }
    const double ms = timer.milliseconds();
    std::printf("%8u %14.2f %16.3f %16.0f\n", rate,
                sampled.size_in_bytes() / 1e6, ms, located / ms * 1e3);
  }
  std::printf("\nexpected shape: memory ~ 4/rate B/base; locate time grows ~linearly\n"
              "with rate (each position pays up to rate-1 LF steps on the RRR tree).\n");
  return 0;
}
