// ArchiveStreamWriter + write_file_atomic tests: byte-exact layout against
// the in-RAM ByteWriter rendering, section-order enforcement, and the crash
// contract — an unfinished writer (including a process killed mid-write)
// never disturbs the previous archive under the final name.
#include "store/archive_stream_writer.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "io/byte_io.hpp"
#include "io/checksum.hpp"
#include "store/index_archive.hpp"

#include "test_temp_dir.hpp"

namespace bwaver {
namespace {

class StreamWriterTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = test::unique_test_dir("bwaver_build_stream_writer"); }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

std::vector<std::uint8_t> bytes_0_to(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i);
  return out;
}

TEST_F(StreamWriterTest, MatchesInRamRenderingByteForByte) {
  const auto alpha = bytes_0_to(100);  // not 64-aligned: exercises padding
  const std::vector<std::uint32_t> beta{7, 11, 0xdeadbeef};

  const std::string file = path("out.bwva");
  {
    ArchiveStreamWriter writer(file, /*format_version=*/3, {"alpha", "beta"});
    writer.begin_section("alpha");
    writer.append(alpha);
    writer.end_section();
    writer.begin_section("beta");
    writer.append_u64(beta.size());
    writer.pad_section_to(64);
    writer.append_raw_u32(beta);
    writer.end_section();
    writer.finish();
  }

  // The same archive rendered the way write_index_archive does it: payloads
  // into per-section ByteWriters, then header + 64-aligned payloads.
  ByteWriter beta_payload;
  beta_payload.u64(beta.size());
  beta_payload.pad_to(64);
  beta_payload.raw_u32(beta);
  std::vector<ArchiveSectionPlan> plans;
  plans.push_back({"alpha", alpha.size(), crc32_ieee(alpha)});
  plans.push_back({"beta", beta_payload.data().size(), crc32_ieee(beta_payload.data())});
  ByteWriter expected;
  expected.bytes(render_archive_header(3, plans));
  expected.pad_to(kSectionAlign);
  expected.bytes(alpha);
  expected.pad_to(kSectionAlign);
  expected.bytes(beta_payload.data());

  EXPECT_EQ(read_file(file), expected.data());
  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));
}

TEST_F(StreamWriterTest, BytesWrittenTracksFileSize) {
  const std::string file = path("sized.bwva");
  std::uint64_t reported = 0;
  {
    ArchiveStreamWriter writer(file, 3, {"only"});
    writer.begin_section("only");
    writer.append(bytes_0_to(1000));
    writer.end_section();
    writer.finish();
    reported = writer.bytes_written();
  }
  EXPECT_EQ(reported, std::filesystem::file_size(file));
}

TEST_F(StreamWriterTest, EnforcesDeclaredSectionOrder) {
  ArchiveStreamWriter writer(path("order.bwva"), 3, {"first", "second"});
  EXPECT_THROW(writer.begin_section("second"), std::logic_error);
  writer.begin_section("first");
  EXPECT_THROW(writer.begin_section("second"), std::logic_error);  // still open
  writer.end_section();
  EXPECT_THROW(writer.begin_section("first"), std::logic_error);
  writer.begin_section("second");
  writer.end_section();
}

TEST_F(StreamWriterTest, FinishRequiresAllDeclaredSections) {
  ArchiveStreamWriter writer(path("missing.bwva"), 3, {"first", "second"});
  writer.begin_section("first");
  writer.end_section();
  EXPECT_THROW(writer.finish(), std::logic_error);
}

TEST_F(StreamWriterTest, DestructionWithoutFinishLeavesNothing) {
  const std::string file = path("aborted.bwva");
  {
    ArchiveStreamWriter writer(file, 3, {"only"});
    writer.begin_section("only");
    writer.append(bytes_0_to(5000));
  }
  EXPECT_FALSE(std::filesystem::exists(file));
  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));
}

TEST_F(StreamWriterTest, AbortedRewriteLeavesPreviousArchiveIntact) {
  const std::string file = path("stable.bwva");
  {
    ArchiveStreamWriter writer(file, 3, {"only"});
    writer.begin_section("only");
    writer.append(bytes_0_to(100));
    writer.end_section();
    writer.finish();
  }
  const auto before = read_file(file);
  {
    ArchiveStreamWriter writer(file, 3, {"only"});
    writer.begin_section("only");
    writer.append(bytes_0_to(77));
    // destroyed unfinished
  }
  EXPECT_EQ(read_file(file), before);
}

// The satellite's kill-mid-write case: a child process dies (no destructors,
// no finish) while streaming a replacement archive. The previous archive
// under the final name must survive byte-for-byte.
TEST_F(StreamWriterTest, ProcessKilledMidWritePreservesArchive) {
  const std::string file = path("killed.bwva");
  {
    ArchiveStreamWriter writer(file, 3, {"only"});
    writer.begin_section("only");
    writer.append(bytes_0_to(100));
    writer.end_section();
    writer.finish();
  }
  const auto before = read_file(file);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: write enough to force flushes past the buffered threshold,
    // then die abruptly.
    auto writer = std::make_unique<ArchiveStreamWriter>(file, 3,
                                                        std::vector<std::string>{"only"});
    writer->begin_section("only");
    const auto chunk = bytes_0_to(1 << 16);
    for (int i = 0; i < 64; ++i) writer->append(chunk);
    _exit(1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1);

  EXPECT_EQ(read_file(file), before);
  std::filesystem::remove(file + ".tmp");  // at most a stale temp remains
}

TEST_F(StreamWriterTest, WriteFileAtomicReplacesAndCleansUp) {
  const std::string file = path("atomic.bin");
  const auto first = bytes_0_to(10);
  const auto second = bytes_0_to(2000);
  write_file_atomic(file, first);
  EXPECT_EQ(read_file(file), first);
  write_file_atomic(file, second);
  EXPECT_EQ(read_file(file), second);
  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));
}

}  // namespace
}  // namespace bwaver
