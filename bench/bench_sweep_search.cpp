// Sweep-scheduler benchmark: the search stage (both-strand exact search of
// a whole batch) executed per-read vs. through the locality-aware batched
// sweep scheduler (mapper/batch_scheduler.hpp), at E. coli scale.
//
// Per-read order walks each read's backward search to completion, so the
// core sits in one serial dependent-load chain; the sweep advances every
// in-flight read one step per pass, so each pass is a stream of mutually
// independent rank lookups whose line fetches overlap — and backends with
// address-computable storage (epr, sampled) pull their lines in early
// through a software-prefetch lookahead. The sweep also stops a search once
// its answer is known: at one row it finishes on the text, and at an
// absent seed k-mer it retires as no hit. Every host engine serves by the
// sweep; the per-read order is the paper's search and the tests' oracle.
// One row per host engine: rrr (decode-bound, no prefetchable layout) and
// sampled are report-only. The epr row is the served engine: its sweep
// runs the per-tier inlined rank (mapper/batch_scheduler.cpp) while its
// per-read order keeps the kernel-table rank; CI holds its speedup above
// the sweep_vs_per_read_speedup_min floor in bench/baseline.json, and its
// step and text-finish counts are report-only. Both orders produce
// identical hits — positions SA[row] - verified and per-strand counts,
// cross-checked here; their raw intervals differ by design. A last,
// report-only row runs the epr sweep over the same index without its seed
// table, under the same hit checksum: what the table buys the sweep
// (starting mid-pattern, retiring at an absent seed).
#include <cstdio>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "fmindex/epr_occ.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/kmer_table.hpp"
#include "fmindex/occ_backends.hpp"
#include "mapper/batch_scheduler.hpp"
#include "mapper/read_batch.hpp"
#include "mapper/software_mapper.hpp"
#include "sim/read_sim.hpp"
#include "util/timer.hpp"

namespace {

using namespace bwaver;
using namespace bwaver::bench;

constexpr int kRepetitions = 3;

/// Order-sensitive checksum of every read's resolved hits: per strand, the
/// hit count and each position SA[row] - verified in row order — what the
/// SAM depends on (raw intervals differ between the orders by design).
std::uint64_t hit_checksum(const std::vector<QueryResult>& results, const IntVector& sa) {
  std::uint64_t sum = 0;
  const auto mix = [&sum](std::uint64_t value) { sum = sum * 1000003 + value; };
  const auto entry = [&sa](std::uint32_t row) { return static_cast<std::uint32_t>(sa.get(row)); };
  for (const QueryResult& r : results) {
    mix(r.fwd_hi > r.fwd_lo ? r.fwd_hi - r.fwd_lo : 0);
    for (std::uint32_t row = r.fwd_lo; row < r.fwd_hi; ++row) mix(entry(row) - r.fwd_verified);
    mix(r.rev_hi > r.rev_lo ? r.rev_hi - r.rev_lo : 0);
    for (std::uint32_t row = r.rev_lo; row < r.rev_hi; ++row) mix(entry(row) - r.rev_verified);
  }
  return sum;
}

/// Best-of-N wall time of one search order over the whole batch (single
/// thread: the per-core effect is what the scheduler changes; sharding
/// multiplies both orders equally). Returns ms, fills checksum + stats.
template <typename Occ>
double best_of(const FmIndex<Occ>& index, const PackedText& text,
               const ReadBatch& batch, bool sweep, std::uint64_t& checksum,
               SweepStats& stats) {
  double best = 0.0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    SoftwareMapReport report;
    WallTimer timer;
    const auto results =
        sweep ? detail::sweep_map_batch(index, text, batch, /*threads=*/1, &report)
              : detail::map_batch(index, batch, /*threads=*/1, &report);
    const double ms = timer.milliseconds();
    checksum = hit_checksum(results, index.suffix_array());
    stats = report.sweep;
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

struct ModeRow {
  double per_read_ms = 0.0;
  double sweep_ms = 0.0;
  double speedup = 0.0;
  SweepStats stats;  ///< of the sweep runs
  std::uint64_t checksum = 0;
};

template <typename Occ>
ModeRow run_engine(const char* name, const FmIndex<Occ>& index,
                   const PackedText& text, const ReadBatch& batch) {
  ModeRow row;
  std::uint64_t per_read_sum = 0;
  SweepStats ignored;
  row.per_read_ms = best_of(index, text, batch, /*sweep=*/false, per_read_sum, ignored);
  row.sweep_ms = best_of(index, text, batch, /*sweep=*/true, row.checksum, row.stats);
  row.speedup = row.per_read_ms / (row.sweep_ms > 0.0 ? row.sweep_ms : 1.0);
  if (per_read_sum != row.checksum) {
    std::printf("!! %s: per-read/sweep hit checksum mismatch (%llu vs %llu)\n",
                name, static_cast<unsigned long long>(per_read_sum),
                static_cast<unsigned long long>(row.checksum));
    std::exit(1);
  }
  const double reads_per_sec =
      1000.0 * static_cast<double>(batch.size()) / row.sweep_ms;
  std::printf("%-8s %12.1f %12.1f %8.2fx %12.0f   (passes %llu, peak %llu, steps %llu, "
              "verified %llu, seed misses %llu)\n",
              name, row.per_read_ms, row.sweep_ms, row.speedup, reads_per_sec,
              static_cast<unsigned long long>(row.stats.passes),
              static_cast<unsigned long long>(row.stats.peak_active),
              static_cast<unsigned long long>(row.stats.state_steps),
              static_cast<unsigned long long>(row.stats.verified),
              static_cast<unsigned long long>(row.stats.seed_misses));
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const auto setup = parse_setup(argc, argv, /*default_scale=*/1.0);
  print_header("Sweep scheduler: batched vs per-read backward search", setup);

  const auto genome = ecoli_reference(setup);
  std::printf("building indexes over %zu bp...\n", genome.size());
  FmIndex<RrrWaveletOcc> index(genome, [](std::span<const std::uint8_t> bwt) {
    return RrrWaveletOcc(bwt, RrrParams{15, 50});
  });
  // Derived before the table exists, so it never gets one.
  const DerivedOccMapper<EprOcc> unseeded_epr_mapper(index, EprOcc(index.bwt().symbols));
  index.build_seed_table(genome);  // k by the served budget rule
  const KmerSeedTable& seeds = *index.seed_table();
  const double table_bytes_per_base =
      static_cast<double>(seeds.size_in_bytes()) / static_cast<double>(genome.size());
  std::printf("seed k = %u (table %.2f B/base)\n", seeds.k(), table_bytes_per_base);

  // The registry's derived-engine path: each Occ structure over the same
  // BWT/SA/C array/seed table (searches are interval-identical), built as
  // the engine table builds it (mapper/engine_set.cpp).
  const DerivedOccMapper<SampledOcc> sampled_mapper(index, SampledOcc(index.bwt().symbols));
  const DerivedOccMapper<EprOcc> epr_mapper(index, EprOcc(index.bwt().symbols));

  ReadSimConfig rconfig;
  rconfig.num_reads = scaled(30000, setup.scale);
  rconfig.read_length = 100;
  rconfig.mapping_ratio = 0.9;  // some searches die early, as in real batches
  rconfig.seed = setup.seed;
  const auto reads = simulate_reads(genome, rconfig);
  const ReadBatch batch = ReadBatch::from_simulated(reads);
  std::printf("%zu reads of %u bp, seed k = %u\n\n", batch.size(),
              rconfig.read_length, index.seed_table()->k());

  std::printf("%-8s %12s %12s %9s %12s\n", "engine", "per-read[ms]", "sweep[ms]",
              "speedup", "reads/s");
  const PackedText text(genome);
  const ModeRow rrr = run_engine("rrr", index, text, batch);
  const ModeRow sampled = run_engine("sampled", sampled_mapper.index(), text, batch);
  const ModeRow epr = run_engine("epr", epr_mapper.index(), text, batch);
  std::printf("\nepr hit checksum %llu (the served SAM's positions, per read and strand)\n",
              static_cast<unsigned long long>(epr.checksum));

  std::uint64_t unseeded_sum = 0;
  SweepStats unseeded_stats;
  const double unseeded_ms = best_of(unseeded_epr_mapper.index(), text, batch,
                                     /*sweep=*/true, unseeded_sum, unseeded_stats);
  const double seed_speedup = unseeded_ms / (epr.sweep_ms > 0.0 ? epr.sweep_ms : 1.0);
  if (unseeded_sum != epr.checksum) {
    std::printf("!! epr: seeded/unseeded sweep hit checksum mismatch (%llu vs %llu)\n",
                static_cast<unsigned long long>(epr.checksum),
                static_cast<unsigned long long>(unseeded_sum));
    return 1;
  }
  std::printf("\nepr sweep without the seed table: %.1f ms, %llu steps (seeded %.1f ms, "
              "%llu steps): seed speedup %.2fx\n",
              unseeded_ms, static_cast<unsigned long long>(unseeded_stats.state_steps),
              epr.sweep_ms, static_cast<unsigned long long>(epr.stats.state_steps),
              seed_speedup);

  std::printf("\nidentical hits from both orders and with or without the seed\n"
              "table (checksummed); the enforced floor tracks the epr engine\n"
              "(the served one), whose one-line blocks let the sweep prefetch\n"
              "each step's lines ahead of use; the rrr, sampled and unseeded\n"
              "rows are report-only.\n");

  JsonReport report("bench_sweep_search", setup.json);
  report.metric("reads", static_cast<double>(batch.size()));
  report.metric("seed_k", seeds.k());
  report.metric("table_bytes_per_base", table_bytes_per_base);
  report.metric("per_read_ms_rrr", rrr.per_read_ms);
  report.metric("sweep_ms_rrr", rrr.sweep_ms);
  report.metric("sweep_vs_per_read_speedup_rrr", rrr.speedup);
  report.metric("per_read_ms_sampled", sampled.per_read_ms);
  report.metric("sweep_ms_sampled", sampled.sweep_ms);
  report.metric("sweep_vs_per_read_speedup_sampled", sampled.speedup);
  report.metric("per_read_ms_epr", epr.per_read_ms);
  report.metric("sweep_ms_epr", epr.sweep_ms);
  report.metric("sweep_vs_per_read_speedup", epr.speedup);
  report.metric("state_steps_epr", static_cast<double>(epr.stats.state_steps));
  report.metric("verified_epr", static_cast<double>(epr.stats.verified));
  report.metric("sweep_ms_epr_unseeded", unseeded_ms);
  report.metric("state_steps_epr_unseeded", static_cast<double>(unseeded_stats.state_steps));
  report.metric("seed_speedup_epr", seed_speedup);
  report.emit();
  return 0;
}
