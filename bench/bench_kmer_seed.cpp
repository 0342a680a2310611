// K-mer seed-table benchmark: per-read two-strand exact search
// (FmIndex::count_both_strands over the RRR index — the query the FPGA
// model's host check and the paper's per-read mappers run) with and without
// the precomputed seed table.
//
// Short reads are the table's sweet spot: at the budget rule's k (k = 10 on
// E. coli), a 36 bp read skips over a quarter of its backward-search steps
// — and precisely the wide early intervals whose two occ lookups land in
// distant superblocks, the most expensive steps of the search. The bench
// reports reads/sec for both paths and their ratio; CI holds the ratio
// above the floor in bench/baseline.json. The served host engines search by
// the batched sweep instead; its use of the table is bench_sweep_search's
// seeded/unseeded epr row (sweep_ms_epr_unseeded, seed_speedup_epr).
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/kmer_table.hpp"
#include "fmindex/occ_backends.hpp"
#include "fmindex/reference_set.hpp"
#include "mapper/map_service.hpp"
#include "mapper/pipeline.hpp"
#include "mapper/read_batch.hpp"
#include "sim/read_sim.hpp"
#include "util/timer.hpp"

namespace {

using namespace bwaver;
using namespace bwaver::bench;

constexpr int kRepetitions = 3;

/// One timed pass over the batch: the per-read two-strand exact search.
/// Returns wall ms; folds every interval into `checksum` so the seeded and
/// unseeded passes can be cross-checked (and the loop cannot be elided).
double time_pass(const FmIndex<RrrWaveletOcc>& index, const ReadBatch& batch,
                 std::uint64_t& checksum) {
  WallTimer timer;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto [fwd, rev] = index.count_both_strands(batch.read(i));
    checksum += fwd.lo + fwd.hi + rev.lo + rev.hi;
  }
  return timer.milliseconds();
}

double best_of(const FmIndex<RrrWaveletOcc>& index, const ReadBatch& batch,
               std::uint64_t& checksum) {
  double best = 0.0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    checksum = 0;
    const double ms = time_pass(index, batch, checksum);
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const auto setup = parse_setup(argc, argv, /*default_scale=*/1.0);
  print_header("K-mer seed table: seeded vs unseeded exact search", setup);

  const auto genome = ecoli_reference(setup);
  std::printf("building index over %zu bp...\n", genome.size());
  WallTimer timer;
  FmIndex<RrrWaveletOcc> index(genome, [](std::span<const std::uint8_t> bwt) {
    return RrrWaveletOcc(bwt, RrrParams{15, 50});
  });
  const double index_build_ms = timer.milliseconds();

  ReadSimConfig rconfig;
  rconfig.num_reads = scaled(20000, setup.scale);
  rconfig.read_length = 36;  // short reads: the seed skips k of 36 steps
  rconfig.mapping_ratio = 1.0;
  rconfig.seed = setup.seed;
  const auto reads = simulate_reads(genome, rconfig);
  const ReadBatch batch = ReadBatch::from_simulated(reads);

  timer.reset();
  index.build_seed_table(genome);  // k by the served budget rule
  const double table_build_ms = timer.milliseconds();
  const unsigned k = index.seed_table()->k();
  const auto table = index.shared_seed_table();
  const double table_bytes_per_base =
      static_cast<double>(table->size_in_bytes()) / static_cast<double>(genome.size());

  std::printf("%zu reads of %u bp, seed k = %u (table %.1f MiB, %.2f B/base, built in "
              "%.1f ms)\n\n",
              batch.size(), rconfig.read_length, k,
              static_cast<double>(table->size_in_bytes()) / (1024.0 * 1024.0),
              table_bytes_per_base, table_build_ms);
  std::printf("%-10s %12s %12s %9s\n", "path", "wall [ms]", "reads/s", "speedup");

  index.set_seed_table(nullptr);
  std::uint64_t unseeded_sum = 0;
  const double unseeded_ms = best_of(index, batch, unseeded_sum);
  const double unseeded_rps =
      1000.0 * static_cast<double>(batch.size()) / unseeded_ms;
  std::printf("%-10s %12.1f %12.0f %9s\n", "unseeded", unseeded_ms, unseeded_rps,
              "1.00x");

  index.set_seed_table(table);
  std::uint64_t seeded_sum = 0;
  const double seeded_ms = best_of(index, batch, seeded_sum);
  const double seeded_rps = 1000.0 * static_cast<double>(batch.size()) / seeded_ms;
  const double speedup = unseeded_ms / (seeded_ms > 0.0 ? seeded_ms : 1.0);
  std::printf("%-10s %12.1f %12.0f %8.2fx\n", "seeded", seeded_ms, seeded_rps,
              speedup);

  if (seeded_sum != unseeded_sum) {
    std::printf("!! seeded/unseeded interval checksum mismatch (%llu vs %llu)\n",
                static_cast<unsigned long long>(seeded_sum),
                static_cast<unsigned long long>(unseeded_sum));
    return 1;
  }

  std::printf("\nboth passes run the identical two-strand exact search; the\n"
              "seed table only replaces each search's first %u steps with one\n"
              "table lookup (empty entries fall back to the full recurrence).\n",
              k);

  // One full seeded mapping pass for the per-stage decomposition the
  // observability subsystem tracks (no job layer here, so queue wait is 0).
  ReferenceSet reference;
  reference.add("bench_ref", genome);
  const StoredIndex stored{std::move(reference), std::move(index), nullptr, nullptr,
                           LoadMode::kCopy};
  PipelineConfig map_config;
  map_config.engine = MappingEngine::kCpu;
  const MappingOutcome outcome = map_records_over(stored, map_config, reads_to_fastq(reads));
  std::printf("seeded full-map stage split: pack %.1f ms, search %.1f ms, "
              "locate %.1f ms, sam %.1f ms\n",
              outcome.stages.pack_ms, outcome.stages.search_ms,
              outcome.stages.locate_ms, outcome.stages.sam_ms);

  JsonReport report("bench_kmer_seed", setup.json);
  report.metric("index_build_ms", index_build_ms);
  report.metric("table_build_ms", table_build_ms);
  report.metric("seed_k", k);
  report.metric("table_bytes_per_base", table_bytes_per_base);
  report.metric("unseeded_reads_per_sec", unseeded_rps);
  report.metric("seeded_reads_per_sec", seeded_rps);
  report.metric("speedup", speedup);
  report.metric("pack_ms", outcome.stages.pack_ms);
  report.metric("search_ms", outcome.stages.search_ms);
  report.metric("locate_ms", outcome.stages.locate_ms);
  report.metric("sam_ms", outcome.stages.sam_ms);
  report.metric("queue_wait_ms", 0.0);
  report.emit();
  return 0;
}
