// Chunked FASTQ input: FastqFileReader hands a file out in chunks and
// FastqScanner leaves a record cut by a chunk end for the next chunk, so
// `bwaver map` holds one chunk at a time.
#include "io/fastq.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "io/gzip.hpp"

#include "test_temp_dir.hpp"

namespace bwaver {
namespace {

class StreamingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_test_dir("bwaver_streaming_test");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write(const std::string& name, const std::string& content,
                    bool gzipped = false) {
    const std::string path = (dir_ / name).string();
    if (gzipped) {
      write_file(path, gzip_compress(std::span<const std::uint8_t>(
                           reinterpret_cast<const std::uint8_t*>(content.data()),
                           content.size())));
    } else {
      write_file(path, content);
    }
    return path;
  }

  /// Every record of `path`, read in chunks of `chunk_bytes` the way
  /// Pipeline::map_reads reads them.
  static std::vector<FastqRecord> read_chunked(const std::string& path,
                                               std::size_t chunk_bytes) {
    FastqFileReader reader(path, chunk_bytes);
    std::vector<FastqRecord> records;
    while (reader.read_more()) {
      FastqScanner scanner(reader.text(), reader.at_end(), records.size());
      FastqView view;
      while (scanner.next(view)) {
        records.push_back({std::string(view.name), std::string(view.sequence),
                           std::string(view.quality)});
      }
      reader.consume(scanner.consumed());
    }
    return records;
  }

  std::filesystem::path dir_;
};

TEST_F(StreamingTest, ScannerSplitsLfCrLfAndUnterminatedLines) {
  const std::string text = "@one\nAC\n+\nII\r\n@two c\r\nG\r\n+\r\n!\n@three\nT\n+\nI";
  FastqScanner scanner(text);
  FastqView view;
  ASSERT_TRUE(scanner.next(view));
  EXPECT_EQ(view.name, "one");
  EXPECT_EQ(view.quality, "II");
  ASSERT_TRUE(scanner.next(view));
  EXPECT_EQ(view.name, "two c");
  EXPECT_EQ(view.sequence, "G");
  ASSERT_TRUE(scanner.next(view));
  EXPECT_EQ(view.quality, "I");  // no trailing newline at the end of the input
  EXPECT_FALSE(scanner.next(view));
  EXPECT_EQ(scanner.consumed(), text.size());

  // Before the end of the input, the unterminated record is left unread.
  FastqScanner partial(text, /*final=*/false);
  ASSERT_TRUE(partial.next(view));
  ASSERT_TRUE(partial.next(view));
  EXPECT_FALSE(partial.next(view));
  EXPECT_EQ(partial.consumed(), text.rfind("@three"));
  EXPECT_EQ(partial.record_index(), 2u);
}

TEST_F(StreamingTest, RecordsCarryAcrossChunkBoundaries) {
  // One record far longer than a chunk, between short ones.
  const std::string long_read(200'000, 'A');
  const std::string content = "@short1\nAC\n+\nII\n@long\n" + long_read + "\n+\n" +
                              std::string(long_read.size(), 'I') + "\n@short2\nG\n+\n!\n";
  const auto path = write("long.fq", content);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{4096},
                                  std::size_t{65536}, content.size()}) {
    const auto records = read_chunked(path, chunk);
    ASSERT_EQ(records.size(), 3u) << "chunk " << chunk;
    EXPECT_EQ(records[1].sequence, long_read);
    EXPECT_EQ(records[2].name, "short2");
  }
}

TEST_F(StreamingTest, MissingFileThrows) {
  EXPECT_THROW(FastqFileReader((dir_ / "missing.fq").string(), 4096), IoError);
  const auto path = write("reads.fq", "@a\nA\n+\nI\n");
  EXPECT_THROW(FastqFileReader(path, 0), std::invalid_argument);
}

TEST_F(StreamingTest, FastqStreamingMatchesWholeFileParser) {
  std::string content;
  for (int i = 0; i < 1000; ++i) {
    content += "@read_" + std::to_string(i) + "\nACGTACGT\n+\nIIIIIIII\n";
  }
  const auto path = write("reads.fq", content);
  const auto whole = parse_fastq(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(content.data()), content.size()));

  for (const std::size_t chunk : {std::size_t{13}, std::size_t{1000}, std::size_t{1} << 20}) {
    const auto records = read_chunked(path, chunk);
    ASSERT_EQ(records.size(), whole.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < records.size(); ++i) {
      ASSERT_EQ(records[i].name, whole[i].name);
      ASSERT_EQ(records[i].sequence, whole[i].sequence);
      ASSERT_EQ(records[i].quality, whole[i].quality);
    }
  }
}

TEST_F(StreamingTest, FastqStreamingFromGzip) {
  const auto path = write("reads.fq.gz", "@a\nACGT\n+\nIIII\n@b\nGG\n+\n!!\n", true);
  for (const std::size_t chunk : {std::size_t{3}, std::size_t{4096}}) {
    const auto records = read_chunked(path, chunk);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].name, "a");
    EXPECT_EQ(records[1].sequence, "GG");
  }
}

TEST_F(StreamingTest, FastqStreamingMalformedThrows) {
  const auto path = write("bad.fq", "@a\nACGT\nIIII\n");  // missing '+'
  EXPECT_THROW(read_chunked(path, 4096), IoError);
  EXPECT_THROW(read_chunked(path, 2), IoError);
}

TEST_F(StreamingTest, FastqStreamingTruncatedThrows) {
  const auto path = write("trunc.fq", "@a\nACGT\n+\n");
  EXPECT_THROW(read_chunked(path, 4096), IoError);
  EXPECT_THROW(read_chunked(path, 1), IoError);
}

TEST_F(StreamingTest, EmptyFileYieldsNothing) {
  const auto path = write("nothing.fq", "");
  EXPECT_TRUE(read_chunked(path, 4096).empty());
  const auto blank = write("blank.fq", "\n\r\n\n");
  EXPECT_TRUE(read_chunked(blank, 1).empty());
}

}  // namespace
}  // namespace bwaver
