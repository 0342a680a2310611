#include "mapper/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "fmindex/dna.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "kernels/registry.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"

#include "test_temp_dir.hpp"

namespace bwaver {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_test_dir("bwaver_pipeline_test");

    GenomeSimConfig gconfig;
    gconfig.length = 30000;
    gconfig.seed = 17;
    genome_ = simulate_genome(gconfig);
    const FastaRecord ref{"test_ref", dna_decode_string(genome_)};
    fasta_path_ = (dir_ / "ref.fa").string();
    write_fasta(fasta_path_, std::span<const FastaRecord>(&ref, 1));

    ReadSimConfig rconfig;
    rconfig.num_reads = 200;
    rconfig.read_length = 50;
    rconfig.mapping_ratio = 0.5;
    reads_ = simulate_reads(genome_, rconfig);
    fastq_path_ = (dir_ / "reads.fq").string();
    write_fastq(fastq_path_, reads_to_fastq(reads_));
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::vector<std::uint8_t> genome_;
  std::vector<SimulatedRead> reads_;
  std::string fasta_path_;
  std::string fastq_path_;
};

TEST_F(PipelineTest, ThreeStepWorkflowThroughFiles) {
  Pipeline pipeline;
  const std::string index_path = (dir_ / "ref.bwvr").string();
  const std::string sam_path = (dir_ / "out.sam").string();

  // Step 1.
  const std::string name = pipeline.compute_bwt_sa(fasta_path_, index_path);
  EXPECT_EQ(name, "test_ref");
  EXPECT_TRUE(std::filesystem::exists(index_path));
  EXPECT_GT(pipeline.timings().bwt_sa_seconds, 0.0);

  // Step 2.
  pipeline.encode(index_path);
  ASSERT_TRUE(pipeline.ready());
  EXPECT_EQ(pipeline.index().size(), genome_.size());

  // Step 3.
  const MappingOutcome outcome = pipeline.map_reads(fastq_path_, sam_path);
  EXPECT_EQ(outcome.reads, 200u);
  EXPECT_EQ(outcome.mapped, 100u);  // exact mapping ratio
  EXPECT_TRUE(std::filesystem::exists(sam_path));

  const auto sam = read_file(sam_path);
  const std::string sam_text(sam.begin(), sam.end());
  EXPECT_NE(sam_text.find("@SQ\tSN:test_ref"), std::string::npos);
}

TEST_F(PipelineTest, IndexFileRoundTrip) {
  const auto sa = build_suffix_array(genome_);
  const Bwt bwt = build_bwt(genome_, sa);
  ReferenceSet reference;
  reference.add("roundtrip", genome_);
  const std::string path = (dir_ / "roundtrip.bwvr").string();
  Pipeline::save_index_file(path, reference, bwt, sa);

  ReferenceSet loaded_ref;
  Bwt loaded;
  std::vector<std::uint32_t> loaded_sa;
  Pipeline::load_index_file(path, loaded_ref, loaded, loaded_sa);
  ASSERT_EQ(loaded_ref.num_sequences(), 1u);
  EXPECT_EQ(loaded_ref.sequence(0).name, "roundtrip");
  EXPECT_EQ(loaded_ref.concatenated(), genome_);
  EXPECT_EQ(loaded.symbols, bwt.symbols);
  EXPECT_EQ(loaded.primary, bwt.primary);
  EXPECT_EQ(loaded_sa, sa);
}

TEST_F(PipelineTest, CorruptIndexFileThrows) {
  const std::string path = (dir_ / "corrupt.bwvr").string();
  write_file(path, std::string("not an index file at all"));
  Pipeline pipeline;
  EXPECT_THROW(pipeline.encode(path), IoError);
}

TEST_F(PipelineTest, MapBeforeEncodeThrows) {
  Pipeline pipeline;
  EXPECT_THROW(pipeline.map_reads(fastq_path_), std::logic_error);
}

TEST_F(PipelineTest, AllEnginesAgreeOnMappedCounts) {
  MappingOutcome outcomes[3];
  const MappingEngine engines[] = {MappingEngine::kFpga, MappingEngine::kCpu,
                                   MappingEngine::kBowtie2Like};
  for (int i = 0; i < 3; ++i) {
    PipelineConfig config;
    config.engine = engines[i];
    config.threads = 2;
    Pipeline pipeline(config);
    pipeline.build_from_sequence("ref", dna_decode_string(genome_));
    outcomes[i] = pipeline.map_reads(fastq_path_);
  }
  EXPECT_EQ(outcomes[0].mapped, outcomes[1].mapped);
  EXPECT_EQ(outcomes[1].mapped, outcomes[2].mapped);
  EXPECT_EQ(outcomes[0].occurrences, outcomes[1].occurrences);
  EXPECT_EQ(outcomes[1].occurrences, outcomes[2].occurrences);
  EXPECT_EQ(outcomes[0].sam, outcomes[1].sam);
  EXPECT_EQ(outcomes[1].sam, outcomes[2].sam);
}

TEST_F(PipelineTest, SamPositionsAreCorrect) {
  Pipeline pipeline;
  pipeline.build_from_sequence("ref", dna_decode_string(genome_));
  const MappingOutcome outcome = pipeline.map_reads(fastq_path_);

  // Every mapped forward-strand alignment position, converted back to
  // 0-based, must reproduce the read as a reference substring.
  std::istringstream stream(outcome.sam);
  std::string line;
  std::size_t checked = 0;
  while (std::getline(stream, line)) {
    if (line.empty() || line[0] == '@') continue;
    std::istringstream fields(line);
    std::string qname, flag, rname, pos, mapq, cigar;
    fields >> qname >> flag >> rname >> pos >> mapq >> cigar;
    if (flag != "0") continue;  // forward mapped only
    const std::size_t position = std::stoul(pos) - 1;
    const std::size_t length = std::stoul(cigar.substr(0, cigar.size() - 1));
    ASSERT_LE(position + length, genome_.size());
    // Find the read by name to compare content.
    const auto records = read_fastq(fastq_path_);
    for (const auto& record : records) {
      if (record.name == qname) {
        const auto read_codes = dna_encode_string(record.sequence);
        for (std::size_t k = 0; k < length; ++k) {
          ASSERT_EQ(genome_[position + k], read_codes[k]) << qname;
        }
        ++checked;
        break;
      }
    }
    if (checked >= 10) break;  // spot-check is enough; parsing is O(n^2)
  }
  EXPECT_GE(checked, 5u);
}

TEST_F(PipelineTest, MaxHitsCapLimitsSamLines) {
  // A read of a single repeated base maps at many loci; the cap must bound
  // the emitted lines.
  std::string homopolymer(31000, 'A');
  PipelineConfig config;
  config.max_hits_per_read = 5;
  Pipeline pipeline(config);
  pipeline.build_from_sequence("poly", homopolymer);

  std::vector<FastqRecord> records = {{"rep", std::string(20, 'A'),
                                       std::string(20, 'I')}};
  const MappingOutcome outcome = pipeline.map_records(records);
  EXPECT_GT(outcome.occurrences, 5u);
  std::istringstream stream(outcome.sam);
  std::string line;
  int alignment_lines = 0;
  while (std::getline(stream, line)) {
    if (!line.empty() && line[0] != '@') ++alignment_lines;
  }
  EXPECT_EQ(alignment_lines, 5);
}

TEST_F(PipelineTest, MultiChromosomeReferenceMapsToCorrectSequence) {
  // Two chromosomes; reads sampled from each must report the right @SQ name
  // and local coordinates, and a read straddling the boundary must not map.
  const std::string chr1 = dna_decode_string(genome_);
  GenomeSimConfig gconfig;
  gconfig.length = 20000;
  gconfig.seed = 99;
  const auto genome2 = simulate_genome(gconfig);
  const std::string chr2 = dna_decode_string(genome2);

  Pipeline pipeline;
  pipeline.build_from_records({{"chr1", chr1}, {"chr2", chr2}});
  ASSERT_EQ(pipeline.reference().num_sequences(), 2u);

  std::vector<FastqRecord> records;
  records.push_back({"from_chr1", chr1.substr(500, 60), std::string(60, 'I')});
  records.push_back({"from_chr2", chr2.substr(700, 60), std::string(60, 'I')});
  // A read straddling the chr1|chr2 boundary in the concatenated text.
  records.push_back({"straddler", chr1.substr(chr1.size() - 30) + chr2.substr(0, 30),
                     std::string(60, 'I')});

  const MappingOutcome outcome = pipeline.map_records(records);
  EXPECT_EQ(outcome.mapped, 2u);
  EXPECT_NE(outcome.sam.find("@SQ\tSN:chr1\tLN:" + std::to_string(chr1.size())),
            std::string::npos);
  EXPECT_NE(outcome.sam.find("@SQ\tSN:chr2\tLN:" + std::to_string(chr2.size())),
            std::string::npos);
  EXPECT_NE(outcome.sam.find("from_chr1\t0\tchr1\t501\t"), std::string::npos)
      << outcome.sam.substr(0, 500);
  EXPECT_NE(outcome.sam.find("from_chr2\t0\tchr2\t701\t"), std::string::npos);
  EXPECT_NE(outcome.sam.find("straddler\t4\t*"), std::string::npos);
}

TEST_F(PipelineTest, MultiChromosomeIndexFileRoundTripsThroughDisk) {
  const std::string chr1 = dna_decode_string(genome_).substr(0, 5000);
  const std::string chr2 = dna_decode_string(genome_).substr(5000, 4000);
  const FastaRecord refs[] = {{"c1", chr1}, {"c2", chr2}};
  const std::string fasta = (dir_ / "multi.fa").string();
  write_fasta(fasta, refs);

  Pipeline pipeline;
  const std::string index_path = (dir_ / "multi.bwvr").string();
  pipeline.compute_bwt_sa(fasta, index_path);
  pipeline.encode(index_path);
  ASSERT_EQ(pipeline.reference().num_sequences(), 2u);
  EXPECT_EQ(pipeline.reference().sequence(1).name, "c2");
  EXPECT_EQ(pipeline.index().size(), chr1.size() + chr2.size());
}

TEST_F(PipelineTest, StreamingMapMatchesWholeFileMap) {
  // Every registry engine, each fed the file in one chunk and in chunks
  // of 1000 bytes (about a dozen reads each) through the same engine
  // instance (the index's host engine, or one FPGA model).
  const std::string whole_sam_path = (dir_ / "whole.sam").string();
  const std::string stream_sam_path = (dir_ / "stream.sam").string();
  for (const kernels::EngineSpec& spec : kernels::engines()) {
    SCOPED_TRACE(spec.name);
    PipelineConfig config;
    config.engine = spec.engine;
    Pipeline pipeline(config);
    pipeline.build_from_sequence("ref", dna_decode_string(genome_));

    const MappingOutcome whole = pipeline.map_reads(fastq_path_, whole_sam_path);
    const MappingOutcome streamed = pipeline.map_reads(fastq_path_, stream_sam_path, 1000);

    EXPECT_EQ(streamed.reads, whole.reads);
    EXPECT_EQ(streamed.mapped, whole.mapped);
    EXPECT_EQ(streamed.occurrences, whole.occurrences);
    const auto whole_sam = read_file(whole_sam_path);
    EXPECT_EQ(read_file(stream_sam_path), whole_sam);
    // With no SAM path the same document collects in the outcome.
    EXPECT_EQ(pipeline.map_reads(fastq_path_, "", 1000).sam,
              std::string(whole_sam.begin(), whole_sam.end()));
  }
}

TEST_F(PipelineTest, StreamingMapFpgaProgramsOnce) {
  PipelineConfig config;
  config.engine = MappingEngine::kFpga;
  Pipeline pipeline(config);
  pipeline.build_from_sequence("ref", dna_decode_string(genome_));
  const MappingOutcome outcome = pipeline.map_reads(fastq_path_, "", 1000);
  EXPECT_EQ(outcome.mapped, 100u);
  // The fixed program overhead appears exactly once in the modeled time.
  EXPECT_GT(pipeline.timings().mapping_seconds, 0.17);
  EXPECT_LT(pipeline.timings().mapping_seconds, 0.4);
}

TEST_F(PipelineTest, StreamingMapRejectsBadArguments) {
  Pipeline pipeline;
  EXPECT_THROW(pipeline.map_reads(fastq_path_, ""), std::logic_error);
  pipeline.build_from_sequence("ref", dna_decode_string(genome_));
  EXPECT_THROW(pipeline.map_reads(fastq_path_, "", 0), std::invalid_argument);
  EXPECT_THROW(pipeline.map_reads((dir_ / "missing.fq").string()), IoError);
}

TEST_F(PipelineTest, ChunkCutAtEveryByteWritesTheSameSam) {
  // A small file with CRLF line ends, blank lines, '+name' separators,
  // lowercase and N bases and header comments: cut into chunks of every
  // size from 1 byte to the whole file, it must map to the same SAM.
  std::string fastq;
  for (int i = 0; i < 6; ++i) {
    const auto& read = reads_[static_cast<std::size_t>(i)];
    std::string bases = dna_decode_string(read.codes);
    if (i == 2) bases[7] = 'N';
    if (i == 3) bases = std::string(bases.size() / 2, 'a') + bases.substr(bases.size() / 2);
    const std::string eol = i % 2 == 0 ? "\r\n" : "\n";
    fastq += "@r" + std::to_string(i) + (i == 4 ? "\tlane=1 x" : " c") + eol;
    fastq += bases + eol + (i == 1 ? "+r1" : "+") + eol;
    fastq += std::string(bases.size(), 'I') + eol + (i == 3 ? "\n\n" : "");
  }
  const std::string path = (dir_ / "small.fq").string();
  write_file(path, fastq);

  PipelineConfig config;
  config.engine = MappingEngine::kEpr;
  Pipeline pipeline(config);
  pipeline.build_from_sequence("ref", dna_decode_string(genome_));
  const MappingOutcome whole = pipeline.map_reads(path);
  ASSERT_EQ(whole.reads, 6u);
  EXPECT_NE(whole.sam.find("\nr4\t"), std::string::npos) << whole.sam;
  for (std::size_t chunk = 1; chunk <= fastq.size(); ++chunk) {
    const MappingOutcome chunked = pipeline.map_reads(path, "", chunk);
    ASSERT_EQ(chunked.sam, whole.sam) << "chunk " << chunk;
    ASSERT_EQ(chunked.reads, whole.reads) << "chunk " << chunk;
  }
}

TEST_F(PipelineTest, SeededAndUnseededMappingProduceIdenticalSam) {
  // The k-mer seed table is a pure accelerator: disabling it must not move
  // a single output byte, across every software engine.
  for (const MappingEngine engine : {MappingEngine::kCpu, MappingEngine::kFpga}) {
    PipelineConfig seeded_config;
    seeded_config.engine = engine;
    Pipeline seeded(seeded_config);
    seeded.build_from_sequence("ref", dna_decode_string(genome_));
    ASSERT_NE(seeded.index().seed_table(), nullptr);

    PipelineConfig unseeded_config;
    unseeded_config.engine = engine;
    unseeded_config.seed_k = 0;
    Pipeline unseeded(unseeded_config);
    unseeded.build_from_sequence("ref", dna_decode_string(genome_));
    ASSERT_EQ(unseeded.index().seed_table(), nullptr);

    const MappingOutcome with_seeds = seeded.map_reads(fastq_path_);
    const MappingOutcome without = unseeded.map_reads(fastq_path_);
    EXPECT_EQ(with_seeds.reads, without.reads);
    EXPECT_EQ(with_seeds.mapped, without.mapped);
    EXPECT_EQ(with_seeds.occurrences, without.occurrences);
    EXPECT_EQ(with_seeds.sam, without.sam);
  }
}

TEST_F(PipelineTest, ShardedMappingIsDeterministic) {
  PipelineConfig sequential_config;
  sequential_config.engine = MappingEngine::kCpu;
  sequential_config.threads = 1;
  Pipeline sequential(sequential_config);
  sequential.build_from_sequence("ref", dna_decode_string(genome_));
  const MappingOutcome one_thread = sequential.map_reads(fastq_path_);
  EXPECT_EQ(one_thread.shards, 1u);

  // A tiny shard size forces many shards whose completion order is up to
  // the scheduler; the merged output must still be byte-identical.
  PipelineConfig sharded_config;
  sharded_config.engine = MappingEngine::kCpu;
  sharded_config.threads = 4;
  sharded_config.shard_size = 7;
  Pipeline sharded(sharded_config);
  sharded.build_from_sequence("ref", dna_decode_string(genome_));
  for (int repeat = 0; repeat < 3; ++repeat) {
    const MappingOutcome parallel = sharded.map_reads(fastq_path_);
    EXPECT_GT(parallel.shards, 1u);
    EXPECT_EQ(parallel.reads, one_thread.reads);
    EXPECT_EQ(parallel.mapped, one_thread.mapped);
    EXPECT_EQ(parallel.occurrences, one_thread.occurrences);
    ASSERT_EQ(parallel.sam, one_thread.sam) << "repeat " << repeat;
  }
}

TEST_F(PipelineTest, FpgaHostVerificationPassesOnHonestKernel) {
  PipelineConfig config;
  config.engine = MappingEngine::kFpga;
  config.fpga_verify_stride = 3;  // re-check every 3rd kernel result
  Pipeline pipeline(config);
  pipeline.build_from_sequence("ref", dna_decode_string(genome_));
  const MappingOutcome outcome = pipeline.map_reads(fastq_path_);
  EXPECT_EQ(outcome.mapped, 100u);
}

TEST_F(PipelineTest, GzippedInputsWorkEndToEnd) {
  const FastaRecord ref{"gz_ref", dna_decode_string(genome_)};
  const std::string gz_fasta = (dir_ / "ref.fa.gz").string();
  write_fasta(gz_fasta, std::span<const FastaRecord>(&ref, 1), /*gzipped=*/true);
  const std::string gz_fastq = (dir_ / "reads.fq.gz").string();
  write_fastq(gz_fastq, reads_to_fastq(reads_), /*gzipped=*/true);

  Pipeline pipeline;
  const std::string index_path = (dir_ / "gz.bwvr").string();
  pipeline.compute_bwt_sa(gz_fasta, index_path);
  pipeline.encode(index_path);
  const MappingOutcome outcome = pipeline.map_reads(gz_fastq);
  EXPECT_EQ(outcome.mapped, 100u);
}

}  // namespace
}  // namespace bwaver
