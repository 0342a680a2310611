// The shared engine-correctness testbed.
//
// One simulated reference + read workload runs through every engine the
// registry enumerates — the modeled FPGA, which searches each read to
// completion, and the three host engines, which search by the sweep — via
// the same map_records_over entry point the pipeline and the web service
// use. The paper's "no loss in accuracy" claim, promoted to a
// registry-wide invariant: byte-identical SAM and identical outcome
// counters from every engine.
#include <gtest/gtest.h>

#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "fmindex/dna.hpp"
#include "kernels/registry.hpp"
#include "mapper/map_service.hpp"
#include "mapper/pipeline.hpp"
#include "mapper/software_mapper.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"

namespace bwaver {

namespace kernels {
// Lists the parameter by its engine name, so the test names do not follow
// EngineSpec's size and bytes (gtest's default print of a struct).
void PrintTo(const EngineSpec& spec, std::ostream* os) { *os << spec.name; }
}  // namespace kernels

namespace {

class EngineTestbed : public ::testing::TestWithParam<kernels::EngineSpec> {
 protected:
  static void SetUpTestSuite() {
    GenomeSimConfig genome_config;
    genome_config.length = 60000;
    genome_config.seed = 1234;
    genome_ = new std::vector<std::uint8_t>(simulate_genome(genome_config));

    ReadSimConfig read_config;
    read_config.num_reads = 600;
    read_config.read_length = 48;
    read_config.mapping_ratio = 0.7;
    read_config.seed = 99;
    records_ = new std::vector<FastqRecord>(
        reads_to_fastq(simulate_reads(*genome_, read_config)));

    pipeline_ = new Pipeline(PipelineConfig{});
    pipeline_->build_from_sequence("testbed_ref", dna_decode_string(*genome_));

    PipelineConfig reference_config;
    reference_config.engine = MappingEngine::kCpu;
    reference_sam_ = new MappingOutcome(
        map_records_over(*pipeline_->stored(), reference_config, *records_));
  }

  static void TearDownTestSuite() {
    delete reference_sam_;
    delete pipeline_;
    delete records_;
    delete genome_;
    reference_sam_ = nullptr;
    pipeline_ = nullptr;
    records_ = nullptr;
    genome_ = nullptr;
  }

  static std::vector<std::uint8_t>* genome_;
  static std::vector<FastqRecord>* records_;
  static Pipeline* pipeline_;
  static MappingOutcome* reference_sam_;
};

std::vector<std::uint8_t>* EngineTestbed::genome_ = nullptr;
std::vector<FastqRecord>* EngineTestbed::records_ = nullptr;
Pipeline* EngineTestbed::pipeline_ = nullptr;
MappingOutcome* EngineTestbed::reference_sam_ = nullptr;

TEST_P(EngineTestbed, SamIsByteIdenticalToTheReferenceEngine) {
  PipelineConfig config;
  config.engine = GetParam().engine;
  const MappingOutcome outcome = map_records_over(*pipeline_->stored(), config, *records_);
  EXPECT_EQ(outcome.reads, reference_sam_->reads);
  EXPECT_EQ(outcome.mapped, reference_sam_->mapped);
  EXPECT_EQ(outcome.occurrences, reference_sam_->occurrences);
  ASSERT_EQ(outcome.sam, reference_sam_->sam) << "engine " << GetParam().name;
}

TEST_P(EngineTestbed, ShardedPathMatchesSequential) {
  if (GetParam().device_model) {
    GTEST_SKIP() << "FPGA batches are not sharded by thread count";
  }
  PipelineConfig config;
  config.engine = GetParam().engine;
  config.threads = 3;
  config.shard_size = 100;
  const MappingOutcome sharded = map_records_over(*pipeline_->stored(), config, *records_);
  EXPECT_GT(sharded.shards, 1u);
  EXPECT_EQ(sharded.sam, reference_sam_->sam) << "engine " << GetParam().name;
}

TEST_P(EngineTestbed, SingleNReadsAreUnmapped) {
  // Each read is a true 50-base substring with one base replaced by N, at a
  // position where the packer's substitute equals the reference base: the
  // packed codes are an exact hit, but a read with an N is not.
  const std::span<const std::uint8_t> genome(*genome_);
  std::vector<FastqRecord> records;
  for (std::size_t start = 500; records.size() < 30 && start + 50 <= genome.size();
       start += 997) {
    std::string bases = dna_decode_string(genome.subspan(start, 50));
    for (std::size_t i = records.size() % 50; i < 50; ++i) {
      if (dna_encode(bases[i]) == dna_substitute(i)) {
        bases[i] = 'N';
        records.push_back({"n_read_" + std::to_string(records.size()), bases,
                           std::string(50, 'I')});
        break;
      }
    }
  }
  records.push_back({"clean", dna_decode_string(genome.subspan(777, 50)),
                     std::string(50, 'I')});

  PipelineConfig config;
  config.engine = GetParam().engine;
  const MappingOutcome outcome = map_records_over(*pipeline_->stored(), config, records);
  EXPECT_EQ(outcome.mapped, 1u) << "engine " << GetParam().name;
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    EXPECT_NE(outcome.sam.find(records[i].name + "\t4\t*"), std::string::npos)
        << records[i].name << " mapped on " << GetParam().name;
  }
  PipelineConfig reference_config;
  reference_config.engine = MappingEngine::kCpu;
  EXPECT_EQ(outcome.sam,
            map_records_over(*pipeline_->stored(), reference_config, records).sam)
      << "engine " << GetParam().name;
}

TEST_P(EngineTestbed, TimedRunReportsEngineSeconds) {
  PipelineConfig config;
  config.engine = GetParam().engine;
  double seconds = -1.0;
  map_records_over(*pipeline_->stored(), config, *records_, &seconds);
  EXPECT_GE(seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineTestbed, ::testing::ValuesIn(kernels::engines().begin(),
                                                   kernels::engines().end()),
    [](const ::testing::TestParamInfo<kernels::EngineSpec>& info) {
      return std::string(info.param.name);
    });

TEST(EngineTestbedMappers, DerivedMappersShareBaseIndexState) {
  // The derived mappers borrow the base index's BWT/SA/C array/seed table
  // rather than rebuilding them; intervals must match the base engine
  // exactly.
  GenomeSimConfig genome_config;
  genome_config.length = 30000;
  genome_config.seed = 5;
  const auto genome = simulate_genome(genome_config);
  ReadSimConfig read_config;
  read_config.num_reads = 200;
  read_config.read_length = 40;
  const auto reads = simulate_reads(genome, read_config);
  const ReadBatch batch = ReadBatch::from_simulated(reads);

  const BwaverCpuMapper cpu(genome, RrrParams{15, 50});
  const std::span<const std::uint8_t> bwt = cpu.index().bwt().symbols;
  const DerivedOccMapper<EprOcc> epr(cpu.index(), EprOcc(bwt));
  const DerivedOccMapper<PlainWaveletOcc> plain(cpu.index(), PlainWaveletOcc(bwt));
  EXPECT_EQ(epr.index().size(), cpu.index().size());

  const auto want = cpu.map(batch);
  const auto via_epr = epr.map(batch);
  const auto via_plain = plain.map(batch);
  ASSERT_EQ(via_epr.size(), want.size());
  ASSERT_EQ(via_plain.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(via_epr[i].fwd_lo, want[i].fwd_lo) << i;
    EXPECT_EQ(via_epr[i].fwd_hi, want[i].fwd_hi) << i;
    EXPECT_EQ(via_epr[i].rev_lo, want[i].rev_lo) << i;
    EXPECT_EQ(via_epr[i].rev_hi, want[i].rev_hi) << i;
    EXPECT_EQ(via_plain[i].fwd_lo, want[i].fwd_lo) << i;
    EXPECT_EQ(via_plain[i].fwd_hi, want[i].fwd_hi) << i;
  }
}

}  // namespace
}  // namespace bwaver
