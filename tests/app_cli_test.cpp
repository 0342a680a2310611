// End-to-end smoke tests of the `bwaver` CLI binary (subprocess level):
// simulate -> index -> map / map-approx / stats, checking exit codes and
// the artifacts left on disk. The binary path is injected by CMake.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "fmindex/dna.hpp"
#include "io/byte_io.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "mapper/paired_end.hpp"

#include "test_temp_dir.hpp"

#ifndef BWAVER_BIN
#error "BWAVER_BIN must be defined by the build"
#endif

namespace bwaver {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_test_dir("bwaver_cli_test");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Runs the CLI with `args`, returns its exit code; stdout goes to a log.
  int run(const std::string& args) {
    const std::string log = (dir_ / "cli.log").string();
    const std::string command =
        std::string(BWAVER_BIN) + " " + args + " > " + log + " 2>&1";
    const int status = std::system(command.c_str());
    return WEXITSTATUS(status);
  }

  std::string log_contents() {
    return std::string(reinterpret_cast<const char*>(
                           read_file((dir_ / "cli.log").string()).data()),
                       read_file((dir_ / "cli.log").string()).size());
  }

  std::string path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(CliTest, NoArgumentsPrintsUsage) {
  EXPECT_EQ(run(""), 2);
  EXPECT_NE(log_contents().find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownSubcommandFails) {
  EXPECT_EQ(run("frobnicate"), 2);
}

TEST_F(CliTest, FullWorkflow) {
  ASSERT_EQ(run("simulate-genome --length 60000 --seed 3 --out " + path("ref.fa")), 0);
  ASSERT_TRUE(std::filesystem::exists(path("ref.fa")));

  ASSERT_EQ(run("simulate-reads --ref " + path("ref.fa") +
                " --num 500 --length 50 --mapping-ratio 0.8 --out " +
                path("reads.fq.gz")),
            0);
  ASSERT_TRUE(std::filesystem::exists(path("reads.fq.gz")));

  ASSERT_EQ(run("index --ref " + path("ref.fa") + " --out " + path("ref.bwvr")), 0);
  ASSERT_TRUE(std::filesystem::exists(path("ref.bwvr")));

  ASSERT_EQ(run("map --index " + path("ref.bwvr") + " --reads " + path("reads.fq.gz") +
                " --engine fpga --out " + path("out.sam")),
            0);
  const auto contents = log_contents();
  EXPECT_NE(contents.find("mapped 400/500"), std::string::npos) << contents;
  ASSERT_TRUE(std::filesystem::exists(path("out.sam")));
}

TEST_F(CliTest, MapApproxReportsStages) {
  ASSERT_EQ(run("simulate-genome --length 40000 --seed 5 --out " + path("ref.fa")), 0);
  ASSERT_EQ(run("simulate-reads --ref " + path("ref.fa") +
                " --num 100 --length 40 --out " + path("reads.fq")),
            0);
  ASSERT_EQ(run("index --ref " + path("ref.fa") + " --out " + path("ref.bwvr")), 0);
  ASSERT_EQ(run("map-approx --index " + path("ref.bwvr") + " --reads " +
                path("reads.fq") + " --mismatches 1"),
            0);
  const auto contents = log_contents();
  EXPECT_NE(contents.find("staged approximate mapping"), std::string::npos);
  EXPECT_NE(contents.find("0 mm"), std::string::npos);
}

TEST_F(CliTest, StatsReportsStructure) {
  ASSERT_EQ(run("simulate-genome --length 30000 --seed 7 --out " + path("ref.fa")), 0);
  ASSERT_EQ(run("index --ref " + path("ref.fa") + " --out " + path("ref.bwvr")), 0);
  ASSERT_EQ(run("stats --index " + path("ref.bwvr")), 0);
  const auto contents = log_contents();
  EXPECT_NE(contents.find("BWT runs:"), std::string::npos);
  EXPECT_NE(contents.find("device fit:       YES"), std::string::npos) << contents;
}

TEST_F(CliTest, PipelineSubcommandEndToEnd) {
  ASSERT_EQ(run("simulate-genome --length 50000 --seed 11 --out " + path("r.fa")), 0);
  ASSERT_EQ(run("simulate-reads --ref " + path("r.fa") +
                " --num 300 --length 60 --mapping-ratio 0.5 --out " + path("r.fq")),
            0);
  ASSERT_EQ(run("pipeline --ref " + path("r.fa") + " --reads " + path("r.fq") +
                " --engine cpu --threads 2 --out " + path("p.sam")),
            0);
  EXPECT_NE(log_contents().find("mapped 150/300"), std::string::npos);
}

TEST_F(CliTest, MapPairedClassifiesPairs) {
  ASSERT_EQ(run("simulate-genome --length 80000 --seed 13 --out " + path("r.fa")), 0);
  ASSERT_EQ(run("index --ref " + path("r.fa") + " --out " + path("r.bwvr")), 0);

  // Build FR mate files from the reference itself.
  const auto fasta = read_fasta(path("r.fa"));
  const auto genome = dna_encode_string(fasta.front().sequence, true);
  const auto pairs = simulate_read_pairs(genome, 50, 60, 400, 50, 21);
  std::vector<FastqRecord> m1, m2;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    m1.push_back({"p" + std::to_string(i), dna_decode_string(pairs[i].mate1),
                  std::string(60, 'I')});
    m2.push_back({"p" + std::to_string(i), dna_decode_string(pairs[i].mate2),
                  std::string(60, 'I')});
  }
  write_fastq(path("m1.fq"), m1);
  write_fastq(path("m2.fq"), m2);

  ASSERT_EQ(run("map-paired --index " + path("r.bwvr") + " --reads1 " + path("m1.fq") +
                " --reads2 " + path("m2.fq") + " --min-insert 200 --max-insert 600"),
            0);
  const auto contents = log_contents();
  EXPECT_NE(contents.find("proper:       50"), std::string::npos) << contents;
}

TEST_F(CliTest, IndexStoreBuildInfoAndMap) {
  ASSERT_EQ(run("simulate-genome --length 40000 --seed 19 --out " + path("a.fa")), 0);
  ASSERT_EQ(run("simulate-genome --length 30000 --seed 23 --out " + path("b.fa")), 0);
  ASSERT_EQ(run("simulate-reads --ref " + path("a.fa") +
                " --num 200 --length 50 --mapping-ratio 1.0 --out " + path("a.fq")),
            0);

  // Build two archives into one store.
  ASSERT_EQ(run("index build --ref " + path("a.fa") + " --store-dir " +
                path("store") + " --name refA"),
            0);
  EXPECT_NE(log_contents().find("built 'refA'"), std::string::npos);
  ASSERT_EQ(run("index build --ref " + path("b.fa") + " --store-dir " +
                path("store") + " --name refB"),
            0);
  ASSERT_TRUE(std::filesystem::exists(path("store/refA.bwva")));
  ASSERT_TRUE(std::filesystem::exists(path("store/refB.bwva")));
  ASSERT_TRUE(std::filesystem::exists(path("store/manifest.tsv")));

  // Store listing and per-archive section table.
  ASSERT_EQ(run("index info --store-dir " + path("store")), 0);
  auto contents = log_contents();
  EXPECT_NE(contents.find("refA"), std::string::npos) << contents;
  EXPECT_NE(contents.find("refB"), std::string::npos) << contents;
  EXPECT_NE(contents.find("seed table: k "), std::string::npos) << contents;

  ASSERT_EQ(run("index info --archive " + path("store/refA.bwva")), 0);
  contents = log_contents();
  EXPECT_NE(contents.find("format version: 6"), std::string::npos) << contents;
  // 40 kbp: suffix-array entries run 0..40,000, 16 bits each.
  EXPECT_NE(contents.find("text packing: 2 bits/base; suffix array: 16 bits/entry"),
            std::string::npos)
      << contents;
  EXPECT_EQ(contents.find("\nbwt "), std::string::npos) << contents;  // no raw BWT section
  // 40 kbp affords 4^7 <= 20,000 boundaries: 4 * (4^7 + 1) bytes plus the
  // section's 64-byte head.
  EXPECT_NE(contents.find("seed table: k 7, 65604 bytes"), std::string::npos) << contents;
  for (const char* section : {"meta", "text", "occ", "sa", "kmer", "epr"}) {
    EXPECT_NE(contents.find(section), std::string::npos) << contents;
  }

  // Mapping straight from the store skips the whole build.
  ASSERT_EQ(run("map --store-dir " + path("store") + " --ref-name refA --reads " +
                path("a.fq") + " --engine cpu --out " + path("a.sam")),
            0);
  EXPECT_NE(log_contents().find("mapped 200/200"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(path("a.sam")));

  // A truncated archive is refused, not served.
  const auto archive = read_file(path("store/refA.bwva"));
  auto clipped = archive;
  clipped.resize(archive.size() / 2);
  write_file(path("store/refA.bwva"), clipped);
  EXPECT_EQ(run("index info --archive " + path("store/refA.bwva")), 1);
  EXPECT_NE(log_contents().find("error"), std::string::npos);
  EXPECT_EQ(run("map --store-dir " + path("store") + " --ref-name refA --reads " +
                path("a.fq")),
            1);
}

TEST_F(CliTest, BlockwiseBuildFlagsAndProvenance) {
  // 1.5 Mbp with --block-mb 1 (1 MiB of bases per block) forces the
  // blockwise constructor through a real merge pass at the CLI level.
  ASSERT_EQ(run("simulate-genome --length 1500000 --seed 29 --out " + path("g.fa")), 0);

  ASSERT_EQ(run("index build --ref " + path("g.fa") + " --store-dir " +
                path("bw") + " --name g --block-mb 1 --seed-k 8 --build-meta"),
            0);
  auto contents = log_contents();
  EXPECT_NE(contents.find("blockwise"), std::string::npos) << contents;
  EXPECT_NE(contents.find("merge pass"), std::string::npos) << contents;

  // Provenance rides in the archive and surfaces in `index info`.
  ASSERT_EQ(run("index info --archive " + path("bw/g.bwva")), 0);
  contents = log_contents();
  EXPECT_NE(contents.find("builder: blockwise"), std::string::npos) << contents;
  EXPECT_NE(contents.find("build"), std::string::npos) << contents;

  // Without --build-meta the blockwise and direct paths must produce
  // byte-identical archives — the subsystem's core guarantee, end to end.
  ASSERT_EQ(run("index build --ref " + path("g.fa") + " --store-dir " +
                path("bw2") + " --name g --block-mb 1 --seed-k 8"),
            0);
  ASSERT_EQ(run("index build --ref " + path("g.fa") + " --store-dir " +
                path("direct") + " --name g --seed-k 8"),
            0);
  EXPECT_NE(log_contents().find("direct"), std::string::npos);
  EXPECT_EQ(read_file(path("bw2/g.bwva")), read_file(path("direct/g.bwva")));

  ASSERT_EQ(run("index info --archive " + path("direct/g.bwva")), 0);
  EXPECT_NE(log_contents().find("builder: unknown"), std::string::npos);

  // The blockwise store serves like any other.
  ASSERT_EQ(run("simulate-reads --ref " + path("g.fa") +
                " --num 50 --length 50 --mapping-ratio 1.0 --out " + path("g.fq")),
            0);
  ASSERT_EQ(run("map --store-dir " + path("bw") + " --ref-name g --reads " +
                path("g.fq") + " --engine cpu --out " + path("g.sam")),
            0);
  EXPECT_NE(log_contents().find("mapped 50/50"), std::string::npos);
}

TEST_F(CliTest, MapWithUnknownStoreReferenceFails) {
  ASSERT_EQ(run("simulate-genome --length 30000 --seed 31 --out " + path("r.fa")), 0);
  ASSERT_EQ(run("index build --ref " + path("r.fa") + " --store-dir " +
                path("store") + " --name known"),
            0);
  EXPECT_EQ(run("map --store-dir " + path("store") +
                " --ref-name unknown --reads " + path("r.fa")),
            1);
  EXPECT_NE(log_contents().find("error"), std::string::npos);
}

TEST_F(CliTest, MapWithMissingIndexFails) {
  EXPECT_EQ(run("map --index " + path("nope.bwvr") + " --reads " + path("nope.fq")),
            1);
  EXPECT_NE(log_contents().find("error"), std::string::npos);
}

TEST_F(CliTest, MapMissingArgumentsShowsUsage) {
  EXPECT_EQ(run("map"), 2);
}

TEST_F(CliTest, PlainEngineIsRejected) {
  // `plain` is an ablation backend, not an engine: the error names
  // the four that are.
  EXPECT_EQ(run("map --index " + path("x.bwvr") + " --reads " + path("x.fq") +
                " --engine plain"),
            1);
  EXPECT_NE(log_contents().find("unknown engine: plain (fpga|rrr|sampled|epr)"),
            std::string::npos)
      << log_contents();
}

}  // namespace
}  // namespace bwaver
