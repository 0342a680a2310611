// Scheduler-determinism suite for the batched "index sweep" backward
// search (mapper/batch_scheduler.hpp).
//
// The sweep reorders WHICH in-flight read advances next and stops a search
// once its answer is known (one row left: finished on the text; absent
// seed: no hit), so its hits — SA[row] - verified, strand by strand — and
// hence the rendered SAM must be byte-identical to per-read search: over
// every Occ backend (every host engine serves by the sweep; per-read
// search is the oracle), across worker threads, on single- and multi-sequence
// references, and for adversarial batch shapes (empty, single-read,
// randomized sizes, reads whose searches die at every depth, reads at the
// ends of the text or straddling a sequence boundary). Any divergence here
// is a scheduler bug by definition.
#include "mapper/batch_scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "fmindex/dna.hpp"
#include "fmindex/epr_occ.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/kmer_table.hpp"
#include "fmindex/occ_backends.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "kernels/rank_kernel.hpp"
#include "kernels/registry.hpp"
#include "mapper/map_service.hpp"
#include "mapper/pipeline.hpp"
#include "mapper/read_batch.hpp"
#include "mapper/software_mapper.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace bwaver {
namespace {

std::vector<std::uint8_t> test_genome(std::size_t length, std::uint64_t seed) {
  GenomeSimConfig config;
  config.length = length;
  config.seed = seed;
  return simulate_genome(config);
}

/// Reads engineered to die at every backward-search depth: take a true
/// substring of the genome and corrupt one base. Backward search consumes
/// codes from the END of the pattern, so a corruption near the end kills
/// the search within a few steps and one near the front kills it on the
/// last steps — sweeping the corruption position sweeps the retire depth.
std::vector<FastqRecord> depth_sweep_records(const std::vector<std::uint8_t>& genome,
                                             std::size_t read_length) {
  std::vector<FastqRecord> records;
  Xoshiro256 rng(321);
  for (std::size_t corrupt = 0; corrupt < read_length; ++corrupt) {
    const std::size_t start = rng.below(genome.size() - read_length);
    std::vector<std::uint8_t> codes(genome.begin() + start,
                                    genome.begin() + start + read_length);
    codes[corrupt] = static_cast<std::uint8_t>((codes[corrupt] + 1) & 3);
    records.push_back({"die_at_" + std::to_string(corrupt),
                       dna_decode_string(codes), std::string(read_length, 'I')});
  }
  // A handful of uncorrupted reads that survive to full depth.
  for (int k = 0; k < 8; ++k) {
    const std::size_t start = rng.below(genome.size() - read_length);
    const std::vector<std::uint8_t> codes(genome.begin() + start,
                                          genome.begin() + start + read_length);
    records.push_back({"full_depth_" + std::to_string(k), dna_decode_string(codes),
                       std::string(read_length, 'I')});
  }
  return records;
}

/// A reference of several sequences, so the concatenated text has internal
/// boundaries.
std::vector<FastaRecord> multi_sequence_reference(std::uint64_t seed) {
  std::vector<FastaRecord> sequences;
  for (const std::size_t length : {9000u, 7000u, 8000u}) {
    sequences.push_back({"chr" + std::to_string(sequences.size() + 1),
                         dna_decode_string(test_genome(length, seed++))});
  }
  return sequences;
}

/// Reads at the awkward edges of the sweep's early exits, drawn from the
/// concatenated `text` whose sequences start at `starts` (the first at 0):
/// reads at text position 0, ending at the end of the text, running off
/// the start of the text, straddling each internal boundary (either strand)
/// or ending/starting exactly at it, reads shorter than the seed length `k`
/// and exactly k long, and single-N reads.
std::vector<FastqRecord> edge_records(std::span<const std::uint8_t> text,
                                      std::span<const std::uint32_t> starts, unsigned k) {
  constexpr std::size_t kLength = 40;
  std::vector<FastqRecord> records;
  const auto add = [&](const std::string& name, std::string bases) {
    records.push_back({name, bases, std::string(bases.size(), 'I')});
  };
  const auto slice = [&](std::size_t begin, std::size_t length) {
    return dna_decode_string(text.subspan(begin, length));
  };
  add("text_start", slice(0, kLength));
  add("text_end", slice(text.size() - kLength, kLength));
  add("off_text_start", "ACGTACGTAC" + slice(0, kLength - 10));
  for (std::size_t i = 1; i < starts.size(); ++i) {
    const std::size_t b = starts[i];
    const std::string at = std::to_string(b);
    for (const std::size_t before : {1u, 7u, 20u, 39u}) {
      add("straddle_" + at + "_" + std::to_string(before), slice(b - before, kLength));
      add("straddle_rc_" + at + "_" + std::to_string(before),
          dna_reverse_complement_string(slice(b - before, kLength)));
    }
    add("ends_at_" + at, slice(b - kLength, kLength));
    add("starts_at_" + at, slice(b, kLength));
  }
  for (const std::size_t at : {std::size_t{0}, std::size_t{101}, text.size() / 2}) {
    if (k > 1) add("shorter_than_k_" + std::to_string(at), slice(at, k - 1));
    add("exactly_k_" + std::to_string(at), slice(at, k));
    add("k_plus_1_" + std::to_string(at), slice(at, k + 1));
  }
  for (const std::size_t n_at : {std::size_t{0}, kLength / 2, kLength - 1}) {
    std::string bases = slice(text.size() / 3, kLength);
    bases[n_at] = 'N';
    add("single_n_" + std::to_string(n_at), bases);
  }
  return records;
}

/// Every Occ backend the scheduler runs over, numbered like MappingEngine;
/// the ablation-only plain backend takes a value no engine uses.
enum class OccBackend { kRrr = 1, kSampled = 2, kPlain = 3, kEpr = 5 };

/// Renders SAM for reads searched per-read (detail::map_batch) or by the
/// sweep scheduler (detail::sweep_map_batch) over one Occ backend derived
/// from an RRR index of the reference, chunked across `threads` workers.
class SearchOrderRunner {
 public:
  explicit SearchOrderRunner(const std::vector<std::uint8_t>& genome)
      : SearchOrderRunner(std::vector<FastaRecord>{{"ref", dna_decode_string(genome)}}) {}

  /// A multi-sequence reference: the index covers the concatenation.
  explicit SearchOrderRunner(const std::vector<FastaRecord>& sequences) {
    pipeline_.build_from_records(sequences);
  }

  const PackedText& text() const { return pipeline_.reference().concatenated(); }

  /// edge_records over this reference's text and sequence boundaries.
  std::vector<FastqRecord> edge_records() const {
    std::vector<std::uint32_t> starts;
    for (const auto& sequence : pipeline_.reference().sequences()) {
      starts.push_back(sequence.offset);
    }
    return bwaver::edge_records(text().unpack(), starts, pipeline_.index().seed_table()->k());
  }

  /// `epr_kernel` pins the EPR backend's counting kernel (nullptr: the
  /// active one); its level also picks the sweep's per-tier EPR loop.
  std::string sam(const std::vector<FastqRecord>& records, OccBackend backend,
                  bool sweep, unsigned threads = 1,
                  const kernels::RankKernel* epr_kernel = nullptr) const {
    const ReadBatch batch = ReadBatch::from_fastq(records);
    const FmIndex<RrrWaveletOcc>& base = pipeline_.index();
    const std::span<const std::uint8_t> bwt = base.bwt().symbols;
    std::vector<QueryResult> results;
    switch (backend) {
      case OccBackend::kRrr:
        results = search(base, text(), batch, sweep, threads);
        break;
      case OccBackend::kSampled:
        results = search(base, SampledOcc(bwt), text(), batch, sweep, threads);
        break;
      case OccBackend::kPlain:
        results = search(base, PlainWaveletOcc(bwt), text(), batch, sweep, threads);
        break;
      case OccBackend::kEpr:
        results = search(base, EprOcc(bwt, epr_kernel), text(), batch, sweep, threads);
        break;
    }
    MappingOutcome outcome;
    std::vector<SamHit> hits;
    locate_hits(pipeline_.reference(), base.suffix_array(), batch, 0, results,
                PipelineConfig{}.max_hits_per_read, outcome, hits);
    std::string sam = sam_header(pipeline_.reference());
    write_sam_lines(pipeline_.reference(), batch, hits, sam);
    return sam;
  }

 private:
  template <typename Occ>
  static std::vector<QueryResult> search(const FmIndex<Occ>& index, const PackedText& text,
                                         const ReadBatch& batch, bool sweep,
                                         unsigned threads) {
    return sweep ? detail::sweep_map_batch(index, text, batch, threads, nullptr)
                 : detail::map_batch(index, batch, threads, nullptr);
  }

  template <typename Occ>
  static std::vector<QueryResult> search(const FmIndex<RrrWaveletOcc>& base, Occ occ,
                                         const PackedText& text, const ReadBatch& batch,
                                         bool sweep,
                                         unsigned threads) {
    const DerivedOccMapper<Occ> derived(base, std::move(occ));
    return search(derived.index(), text, batch, sweep, threads);
  }

  Pipeline pipeline_;
};

class SweepEngineTest : public ::testing::TestWithParam<OccBackend> {
 protected:
  /// The EPR arm runs once per available kernel, so one process checks
  /// both of the sweep's EPR loops (POPCNT+BZHI for the avx2 kernel, the
  /// baseline ISA for the others) against per-read search over the same
  /// kernel; other backends run once (nullptr).
  static std::vector<const kernels::RankKernel*> kernels_under_test() {
    if (GetParam() != OccBackend::kEpr) return {nullptr};
    std::vector<const kernels::RankKernel*> out;
    for (const kernels::RankKernel& kernel : kernels::available_kernels()) {
      out.push_back(&kernel);
    }
    return out;
  }
};

TEST_P(SweepEngineTest, SweepSamIsByteIdenticalToPerRead) {
  const SearchOrderRunner single(test_genome(30000, 17));
  const SearchOrderRunner multi(multi_sequence_reference(61));
  for (const SearchOrderRunner* runner : {&single, &multi}) {
    const std::vector<std::uint8_t> text = runner->text().unpack();
    ReadSimConfig rconfig;
    rconfig.num_reads = 150;
    rconfig.read_length = 50;
    rconfig.mapping_ratio = 0.5;  // half the searches die partway
    auto records = reads_to_fastq(simulate_reads(text, rconfig));
    const auto depth_records = depth_sweep_records(text, 40);
    records.insert(records.end(), depth_records.begin(), depth_records.end());
    const auto edges = runner->edge_records();
    records.insert(records.end(), edges.begin(), edges.end());

    for (const kernels::RankKernel* kernel : kernels_under_test()) {
      SCOPED_TRACE(kernel != nullptr ? kernel->name : "backend default");
      SCOPED_TRACE(runner == &single ? "single sequence" : "three sequences");
      const std::string per_read =
          runner->sam(records, GetParam(), /*sweep=*/false, /*threads=*/1, kernel);
      const std::string sweep =
          runner->sam(records, GetParam(), /*sweep=*/true, /*threads=*/1, kernel);
      ASSERT_EQ(sweep, per_read);
    }
  }
}

TEST_P(SweepEngineTest, SweepMatchesPerReadUnderSharding) {
  const auto genome = test_genome(20000, 23);
  ReadSimConfig rconfig;
  rconfig.num_reads = 120;
  rconfig.read_length = 40;
  rconfig.mapping_ratio = 0.7;
  const auto records = reads_to_fastq(simulate_reads(genome, rconfig));

  // Ground truth: single-thread per-read. Four workers each run their own
  // sweep over a chunk whose completion order is up to the thread pool; the
  // results must still match byte for byte.
  const SearchOrderRunner single(genome);
  const SearchOrderRunner multi(multi_sequence_reference(67));
  for (const SearchOrderRunner* runner : {&single, &multi}) {
    auto batch = records;
    const auto edges = runner->edge_records();
    batch.insert(batch.end(), edges.begin(), edges.end());
    for (const kernels::RankKernel* kernel : kernels_under_test()) {
      SCOPED_TRACE(kernel != nullptr ? kernel->name : "backend default");
      SCOPED_TRACE(runner == &single ? "single sequence" : "three sequences");
      const std::string truth =
          runner->sam(batch, GetParam(), /*sweep=*/false, /*threads=*/1, kernel);
      ASSERT_EQ(runner->sam(batch, GetParam(), /*sweep=*/true, /*threads=*/4, kernel),
                truth);
    }
  }
}

TEST_P(SweepEngineTest, RandomizedBatchSizesIncludingEmptyAndSingle) {
  const auto genome = test_genome(12000, 31);
  const SearchOrderRunner runner(genome);
  ReadSimConfig rconfig;
  rconfig.num_reads = 64;
  rconfig.read_length = 36;
  rconfig.mapping_ratio = 0.5;
  // Edge reads first, so even the one- and two-read batches hold some.
  auto all = runner.edge_records();
  const auto simulated = reads_to_fastq(simulate_reads(genome, rconfig));
  all.insert(all.end(), simulated.begin(), simulated.end());

  Xoshiro256 rng(99);
  std::vector<std::size_t> sizes{0, 1, 2, all.size()};
  for (int k = 0; k < 4; ++k) sizes.push_back(1 + rng.below(all.size() - 1));

  for (const kernels::RankKernel* kernel : kernels_under_test()) {
    SCOPED_TRACE(kernel != nullptr ? kernel->name : "backend default");
    for (const std::size_t n : sizes) {
      const std::vector<FastqRecord> batch(all.begin(), all.begin() + n);
      ASSERT_EQ(runner.sam(batch, GetParam(), /*sweep=*/true, /*threads=*/1, kernel),
                runner.sam(batch, GetParam(), /*sweep=*/false, /*threads=*/1, kernel))
          << "batch size " << n;
    }
  }
}

std::string backend_name(const ::testing::TestParamInfo<OccBackend>& info) {
  switch (info.param) {
    case OccBackend::kRrr: return "rrr";
    case OccBackend::kSampled: return "sampled";
    case OccBackend::kPlain: return "plain";
    case OccBackend::kEpr: return "epr";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(AllEngines, SweepEngineTest,
                         ::testing::Values(OccBackend::kRrr, OccBackend::kSampled,
                                           OccBackend::kPlain, OccBackend::kEpr),
                         backend_name);

MappingOutcome map_with(const std::vector<std::uint8_t>& genome,
                        const std::vector<FastqRecord>& records, MappingEngine engine) {
  PipelineConfig config;
  config.engine = engine;
  Pipeline pipeline(config);
  pipeline.build_from_sequence("ref", dna_decode_string(genome));
  return pipeline.map_records(records);
}

TEST(SweepStatsCounters, PopulatedInSweepModeOnly) {
  // Every host engine sweeps, reports scheduler counters and renders the
  // SAM of the FPGA model, which searches each read to completion (its
  // counters stay zero: FpgaEngineIgnoresSweepMode).
  const auto genome = test_genome(10000, 41);
  ReadSimConfig rconfig;
  rconfig.num_reads = 50;
  rconfig.read_length = 30;
  rconfig.mapping_ratio = 0.8;
  const auto records = reads_to_fastq(simulate_reads(genome, rconfig));

  const MappingOutcome per_read = map_with(genome, records, MappingEngine::kFpga);
  for (const MappingEngine engine :
       {MappingEngine::kCpu, MappingEngine::kBowtie2Like, MappingEngine::kEpr}) {
    SCOPED_TRACE(kernels::engine_spec(engine).name);
    const MappingOutcome sweep = map_with(genome, records, engine);
    EXPECT_GT(sweep.sweep.batches, 0u);
    EXPECT_GT(sweep.sweep.passes, 0u);
    EXPECT_GT(sweep.sweep.state_steps, 0u);
    // At most both strands of every read are in flight at once: searches
    // that start at one row or at an absent seed retire before the first
    // pass.
    EXPECT_LE(sweep.sweep.peak_active, 2 * records.size());
    EXPECT_GT(sweep.sweep.verified, 0u);
    EXPECT_EQ(sweep.sam, per_read.sam);
  }
}

TEST(SweepStatsCounters, FpgaEngineIgnoresSweepMode) {
  // The modeled device streams query packets itself; it runs no host
  // scheduler and must not invent scheduler counters.
  const auto genome = test_genome(10000, 43);
  ReadSimConfig rconfig;
  rconfig.num_reads = 30;
  rconfig.read_length = 30;
  const auto records = reads_to_fastq(simulate_reads(genome, rconfig));
  EXPECT_EQ(map_with(genome, records, MappingEngine::kFpga).sweep.batches, 0u);
}

/// What the SAM depends on, per strand: whether it mapped, and its hits
/// (SA[row] - verified) in row order.
struct StrandHits {
  bool mapped = false;
  std::vector<std::uint32_t> hits;
  friend bool operator==(const StrandHits&, const StrandHits&) = default;
};

std::array<StrandHits, 2> hits_of(const QueryResult& result, const IntVector& sa) {
  const auto strand = [&](std::uint32_t lo, std::uint32_t hi, std::uint32_t verified) {
    StrandHits out;
    out.mapped = lo < hi;
    for (std::uint32_t row = lo; row < hi; ++row) {
      out.hits.push_back(static_cast<std::uint32_t>(sa.get(row)) - verified);
    }
    return out;
  };
  return {strand(result.fwd_lo, result.fwd_hi, result.fwd_verified),
          strand(result.rev_lo, result.rev_hi, result.rev_verified)};
}

TEST(SweepMapBatchLowLevel, RaggedReadLengthsMatchPerRead) {
  // Variable-length reads (including length 0 and length 1) exercise the
  // scheduler's retire-at-seed and slot bookkeeping off the FASTQ path.
  const auto genome = test_genome(15000, 53);
  const FmIndex<RrrWaveletOcc> index(
      genome, [](std::span<const std::uint8_t> bwt) {
        return RrrWaveletOcc(bwt, RrrParams{15, 50});
      });
  const IntVector& sa = index.suffix_array();

  Xoshiro256 rng(7);
  ReadBatch batch;
  batch.add({});  // empty read: retired before the first pass
  for (int k = 0; k < 200; ++k) {
    const std::size_t len = 1 + rng.below(64);
    const std::size_t start = rng.below(genome.size() - len);
    std::vector<std::uint8_t> codes(genome.begin() + start,
                                    genome.begin() + start + len);
    if (k % 3 == 0) {  // corrupt a random base so some searches die early
      const std::size_t at = rng.below(len);
      codes[at] = static_cast<std::uint8_t>((codes[at] + 1) & 3);
    }
    batch.add(codes);
  }

  for (const unsigned threads : {1u, 4u}) {
    const auto per_read = detail::map_batch(index, batch, threads, nullptr);
    SoftwareMapReport report;
    const auto sweep = detail::sweep_map_batch(index, PackedText(genome), batch, threads, &report);
    ASSERT_EQ(sweep.size(), per_read.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      EXPECT_EQ(sweep[i].id, per_read[i].id) << "read " << i;
      EXPECT_EQ(hits_of(sweep[i], sa), hits_of(per_read[i], sa)) << "read " << i;
    }
    EXPECT_GT(report.sweep.passes, 0u);
    EXPECT_GT(report.sweep.verified, 0u);
  }
}

TEST(SweepMapBatchLowLevel, SeededAndUnseededIndexesBothMatchPerRead) {
  // With a seed table the sweep starts mid-pattern (and retires absent
  // seeds), without one it starts at the full depth — in both cases every
  // strand's hits must match per-read search.
  const auto genome = test_genome(15000, 59);
  for (const bool seeded : {false, true}) {
    FmIndex<RrrWaveletOcc> index(genome, [](std::span<const std::uint8_t> bwt) {
      return RrrWaveletOcc(bwt, RrrParams{15, 50});
    });
    if (seeded) index.build_seed_table(genome);
    const IntVector& sa = index.suffix_array();

    ReadSimConfig rconfig;
    rconfig.num_reads = 100;
    rconfig.read_length = 48;
    rconfig.mapping_ratio = 0.6;
    const auto batch = ReadBatch::from_simulated(simulate_reads(genome, rconfig));

    const auto per_read = detail::map_batch(index, batch, 1, nullptr);
    SoftwareMapReport report;
    const auto sweep = detail::sweep_map_batch(index, PackedText(genome), batch, 1, &report);
    ASSERT_EQ(sweep.size(), per_read.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      EXPECT_EQ(hits_of(sweep[i], sa), hits_of(per_read[i], sa))
          << (seeded ? "seeded " : "unseeded ") << i;
    }
    // Random reads end in k-mers the 15 kbp text lacks only when seeded.
    EXPECT_EQ(report.sweep.seed_misses > 0, seeded);
  }
}

TEST(SweepMapBatchLowLevel, TextOfTheWrongSizeThrows) {
  const auto genome = test_genome(5000, 71);
  const FmIndex<RrrWaveletOcc> index(genome, [](std::span<const std::uint8_t> bwt) {
    return RrrWaveletOcc(bwt, RrrParams{15, 50});
  });
  ReadBatch batch;
  batch.add(std::span<const std::uint8_t>(genome).subspan(100, 30));
  const std::span<const std::uint8_t> text(genome);
  EXPECT_THROW(detail::sweep_map_batch(index, PackedText(text.first(text.size() - 1)), batch, 1,
                                       nullptr),
               std::invalid_argument);
  EXPECT_THROW(detail::sweep_map_batch(index, PackedText(), batch, 1, nullptr),
               std::invalid_argument);
  EXPECT_EQ(detail::sweep_map_batch(index, PackedText(text), batch, 1, nullptr).size(), 1u);
}

}  // namespace
}  // namespace bwaver
