// Occ-engine rank throughput.
//
// Two tiers of the same question — how fast can this machine count
// characters in the BWT?
//   1. Occ engines: random rank() and narrow-interval rank2() probes (the
//      backward-search access pattern) against each software backend, in
//      Mranks/s, with a cross-engine checksum so a wrong answer can never
//      look fast;
//   2. end to end: count-only mapping through the FM-index over each
//      backend.
// The epr-vs-sampled rank ratio is the paper-motivated payoff (Snytsar:
// vectorized counting beats scalar SWAR; the EPR dictionary answers a rank
// with one line and one popcount pass) and is enforced as a hard
// `epr_vs_scalar_speedup_min` floor in bench/baseline.json, as is the
// served engine's count-only mapping lead over sampled
// (`map_epr_vs_sampled`).
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.hpp"
#include "fmindex/epr_occ.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/occ_backends.hpp"
#include "kernels/rank_kernel.hpp"
#include "mapper/read_batch.hpp"
#include "sim/read_sim.hpp"
#include "util/cpu_features.hpp"
#include "util/flat_array.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace bwaver;
using namespace bwaver::bench;

struct RankQuery {
  std::uint32_t pos;
  std::uint8_t code;
};

std::vector<RankQuery> random_queries(std::size_t count, std::size_t n,
                                      std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<RankQuery> queries(count);
  for (auto& q : queries) {
    q.pos = static_cast<std::uint32_t>(rng.below(n + 1));
    q.code = static_cast<std::uint8_t>(rng.below(4));
  }
  return queries;
}

template <typename RankFn>
double time_ranks(const std::vector<RankQuery>& queries, std::uint64_t& checksum,
                  const RankFn& rank) {
  // Best of three passes: the enforced floors are ratios of these numbers,
  // and a single pass is at the mercy of frequency ramps and cold lines.
  double best = 0.0;
  std::uint64_t sum = 0;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer timer;
    sum = 0;
    for (const RankQuery& q : queries) sum += rank(q);
    const double seconds = timer.seconds();
    if (rep == 0 || seconds < best) best = seconds;
  }
  checksum = sum;
  return best;
}

void report_engine(const char* label, std::size_t ranks, double seconds,
                   std::size_t bytes, std::uint64_t checksum) {
  std::printf("%-26s %12.1f %12.3f %12.3f  %016llx\n", label,
              static_cast<double>(ranks) / seconds / 1e6, seconds * 1e3,
              static_cast<double>(bytes) / 1e6,
              static_cast<unsigned long long>(checksum));
}

}  // namespace

int main(int argc, char** argv) {
  const auto setup = parse_setup(argc, argv, /*default_scale=*/1.0);
  JsonReport report("bench_occ_kernels", setup.json);
  print_header("Occ/rank kernels: SIMD dispatch and engine throughput", setup);
  std::printf("cpu features: %s (active kernel: %s)\n",
              cpu_features_string(cpu_features()).c_str(),
              kernels::active_kernel().name);

  const auto genome = ecoli_reference(setup);
  const FmIndex<RrrWaveletOcc> base(
      genome, [](std::span<const std::uint8_t> bwt) {
        return RrrWaveletOcc(bwt, RrrParams{15, 50});
      });
  const auto& bwt = base.bwt().symbols;
  std::printf("reference: %zu bp, BWT: %zu symbols\n", genome.size(), bwt.size());

  // ---- tier 1: Occ engines, random rank probes --------------------------
  const SampledOcc sampled(bwt);
  const PlainWaveletOcc plain(bwt);
  const RrrWaveletOcc& rrr = base.occ_backend();
  const EprOcc epr(bwt);

  const std::size_t num_queries = scaled(2'000'000, setup.scale);
  const auto queries = random_queries(num_queries, bwt.size(), setup.seed);
  // Narrow-interval pairs: backward search calls occ2 on [lo, hi) spans
  // that shrink toward a handful of rows, usually inside one checkpoint.
  auto pairs = queries;
  for (auto& q : pairs) {
    q.pos = q.pos < 512 ? 0 : q.pos - 512;
  }

  std::printf("\n%-26s %12s %12s %12s  %s\n", "engine rank()", "Mranks/s",
              "time [ms]", "occ [MB]", "checksum");
  std::uint64_t want = 0;
  double sampled_seconds = time_ranks(
      queries, want, [&](const RankQuery& q) { return sampled.rank(q.code, q.pos); });
  report_engine("sampled (scalar SWAR)", num_queries, sampled_seconds,
                sampled.size_in_bytes(), want);

  std::uint64_t sum = 0;
  const double rrr_seconds = time_ranks(
      queries, sum, [&](const RankQuery& q) { return rrr.rank(q.code, q.pos); });
  report_engine("rrr wavelet", num_queries, rrr_seconds, rrr.size_in_bytes(), sum);
  if (sum != want) return std::fprintf(stderr, "FATAL: rrr checksum\n"), 1;

  const double plain_seconds = time_ranks(
      queries, sum, [&](const RankQuery& q) { return plain.rank(q.code, q.pos); });
  report_engine("plain wavelet", num_queries, plain_seconds, plain.size_in_bytes(),
                sum);
  if (sum != want) return std::fprintf(stderr, "FATAL: plain checksum\n"), 1;

  const double epr_seconds = time_ranks(
      queries, sum, [&](const RankQuery& q) { return epr.rank(q.code, q.pos); });
  report_engine("epr (bit-transposed)", num_queries, epr_seconds,
                epr.size_in_bytes(), sum);
  if (sum != want) return std::fprintf(stderr, "FATAL: epr checksum\n"), 1;

  const double rank_speedup = sampled_seconds / epr_seconds;
  report.metric("rank_sampled_mops", num_queries / sampled_seconds / 1e6);
  report.metric("rank_rrr_mops", num_queries / rrr_seconds / 1e6);
  report.metric("rank_plain_mops", num_queries / plain_seconds / 1e6);
  report.metric("rank_epr_mops", num_queries / epr_seconds / 1e6);

  // rank2 over narrow intervals — the actual occ2 shape in the search loop.
  std::uint64_t pair_want = 0;
  WallTimer sampled2_timer;
  for (std::size_t i = 0; i < num_queries; ++i) {
    pair_want += sampled.rank(queries[i].code, pairs[i].pos) +
                 sampled.rank(queries[i].code, queries[i].pos);
  }
  const double sampled2_seconds = sampled2_timer.seconds();

  WallTimer epr2_timer;
  std::uint64_t pair_sum = 0;
  for (std::size_t i = 0; i < num_queries; ++i) {
    const auto [a, b] = epr.rank2(queries[i].code, pairs[i].pos, queries[i].pos);
    pair_sum += a + b;
  }
  const double epr2_seconds = epr2_timer.seconds();
  if (pair_sum != pair_want) return std::fprintf(stderr, "FATAL: rank2 checksum\n"), 1;

  const double rank2_speedup = sampled2_seconds / epr2_seconds;
  std::printf("\nrank2 narrow pairs:        sampled %.1f ms, epr %.1f ms "
              "(%.2fx)\n", sampled2_seconds * 1e3, epr2_seconds * 1e3,
              rank2_speedup);
  report.metric("rank2_sampled_mops", num_queries / sampled2_seconds / 1e6);
  report.metric("rank2_epr_mops", num_queries / epr2_seconds / 1e6);

  // The enforced headline: the served engine's one-line/one-popcount rank
  // vs the scalar-SWAR backend on the same BWT, single random ranks.
  std::printf("epr vs sampled speedup:    %.2fx rank, %.2fx rank2\n", rank_speedup,
              rank2_speedup);
  report.metric("epr_vs_scalar_speedup", rank_speedup);
  report.metric("epr_vs_scalar_rank2_speedup", rank2_speedup);

  // rank_all — the bidirectional-extension primitive: all four symbol
  // counts at one offset against four independent rank() calls.
  std::uint64_t all_sum = 0;
  WallTimer all_timer;
  for (const RankQuery& q : queries) {
    const auto counts = epr.rank_all(q.pos);
    all_sum += counts[0] + counts[1] + counts[2] + counts[3];
  }
  const double all_seconds = all_timer.seconds();
  std::uint64_t four_sum = 0;
  WallTimer four_timer;
  for (const RankQuery& q : queries) {
    for (std::uint8_t c = 0; c < 4; ++c) four_sum += epr.rank(c, q.pos);
  }
  const double four_seconds = four_timer.seconds();
  if (all_sum != four_sum) return std::fprintf(stderr, "FATAL: rank_all checksum\n"), 1;
  std::printf("epr rank_all vs 4x rank:   %.1f vs %.1f ms (%.2fx)\n",
              all_seconds * 1e3, four_seconds * 1e3, four_seconds / all_seconds);
  report.metric("epr_rank_all_mops", num_queries / all_seconds / 1e6);
  report.metric("epr_rank_all_vs_four_ranks", four_seconds / all_seconds);

  // ---- tier 2: end-to-end count-only mapping delta ----------------------
  ReadSimConfig rc;
  rc.num_reads = scaled(100'000, setup.scale);
  rc.read_length = 50;
  rc.mapping_ratio = 0.9;
  rc.seed = setup.seed + 1;
  const ReadBatch batch = ReadBatch::from_simulated(simulate_reads(genome, rc));

  const auto count_throughput = [&batch](const auto& index, std::uint64_t& mapped) {
    WallTimer timer;
    mapped = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!index.count(batch.read(i)).empty()) ++mapped;
    }
    return static_cast<double>(batch.size()) / timer.seconds() / 1e3;
  };

  const auto borrow_bwt = [&base] {
    return Bwt{FlatArray<std::uint8_t>::view_of(base.bwt().symbols),
               base.bwt().primary, base.bwt().text_length};
  };
  const FmIndex<SampledOcc> sampled_index(
      borrow_bwt(), base.suffix_array().unpack_u32(),
      [](std::span<const std::uint8_t> b) { return SampledOcc(b); });
  const FmIndex<EprOcc> epr_index(
      borrow_bwt(), base.suffix_array().unpack_u32(),
      [](std::span<const std::uint8_t> b) { return EprOcc(b); });

  std::uint64_t mapped_sampled = 0, mapped_rrr = 0, mapped_epr = 0;
  const double map_rrr = count_throughput(base, mapped_rrr);
  const double map_sampled = count_throughput(sampled_index, mapped_sampled);
  const double map_epr = count_throughput(epr_index, mapped_epr);
  if (mapped_sampled != mapped_rrr || mapped_epr != mapped_rrr) {
    std::fprintf(stderr, "FATAL: engines disagree on mapped-read count\n");
    return 1;
  }
  std::printf("\ncount-only mapping (%zu reads x %u bp): rrr %.1f, sampled %.1f, "
              "epr %.1f kreads/s\n", batch.size(), rc.read_length, map_rrr, map_sampled,
              map_epr);
  report.metric("map_rrr_kreads_per_sec", map_rrr);
  report.metric("map_sampled_kreads_per_sec", map_sampled);
  report.metric("map_epr_kreads_per_sec", map_epr);
  report.metric("map_epr_vs_sampled", map_epr / map_sampled);

  report.emit();
  return 0;
}
