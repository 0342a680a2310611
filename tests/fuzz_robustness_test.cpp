// Failure-injection / fuzz robustness: malformed and random inputs into
// every parser and loader must raise typed exceptions (IoError/GzipError /
// std::invalid_argument), never crash, hang, or silently succeed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string_view>
#include <filesystem>

#include "fmindex/fm_index.hpp"
#include "fmindex/occ_backends.hpp"
#include "fpga/query_packet.hpp"
#include "io/byte_io.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "io/gzip.hpp"
#include "mapper/pipeline.hpp"
#include "mapper/read_batch.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace bwaver {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

/// A small FASTQ body with the awkward shapes real uploads have: CRLF line
/// ends, blank lines, '+name' separators, lowercase, U, N and NUL bases,
/// and header comments (some leaving no name), plus the odd stray byte.
std::string awkward_fastq_body(Xoshiro256& rng) {
  static constexpr std::string_view kBases("ACGTacgtUuNn.\0", 14);
  static constexpr std::string_view kStray("@+\n\r\0 x", 7);
  std::string body;
  const std::size_t records = rng.below(5);
  for (std::size_t r = 0; r < records; ++r) {
    const std::string eol = rng.below(3) == 0 ? "\r\n" : "\n";
    if (rng.below(4) == 0) body += eol;
    std::string name = "r" + std::to_string(r);
    switch (rng.below(6)) {
      case 0: name += " comment"; break;
      case 1: name += "\tlane:1"; break;
      case 2: name = " nameless"; break;
      default: break;
    }
    std::string bases;
    const std::size_t length = rng.below(12);
    for (std::size_t i = 0; i < length; ++i) bases.push_back(kBases[rng.below(kBases.size())]);
    body += "@" + name + eol + bases + eol + (rng.below(2) == 0 ? "+" + name : "+") + eol +
            std::string(length, 'I') + eol;
  }
  if (rng.below(8) == 0) {
    body.insert(rng.below(body.size() + 1), 1, kStray[rng.below(kStray.size())]);
  }
  return body;
}

/// The batch builder against its oracle, parse_fastq then the records
/// adapter: IoError from exactly the same bodies, and otherwise the same
/// names, codes and ambiguity flags.
void expect_builder_matches_parser(const std::vector<std::uint8_t>& body,
                                   const std::string& context) {
  std::optional<ReadBatch> expected;
  try {
    expected = ReadBatch::from_fastq(parse_fastq(body));
  } catch (const IoError&) {
  }
  std::optional<ReadBatch> built;
  try {
    built = ReadBatch::from_fastq_bytes(body);
  } catch (const IoError&) {
  }
  ASSERT_EQ(built.has_value(), expected.has_value()) << context;
  if (!built) return;
  ASSERT_EQ(built->size(), expected->size()) << context;
  for (std::size_t i = 0; i < built->size(); ++i) {
    ASSERT_EQ(built->name(i), expected->name(i)) << context << " read " << i;
    ASSERT_TRUE(std::ranges::equal(built->read(i), expected->read(i)))
        << context << " read " << i;
    ASSERT_EQ(built->ambiguous(i), expected->ambiguous(i)) << context << " read " << i;
  }
}

TEST(Fuzz, ReadBatchBuilderMatchesParseFastq) {
  Xoshiro256 rng(2024);
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    const std::string text = awkward_fastq_body(rng);
    const std::vector<std::uint8_t> body(text.begin(), text.end());
    const std::string context = "trial " + std::to_string(trial);
    expect_builder_matches_parser(body, context);
    // Truncated at every byte: mostly cut records, which both must reject.
    for (std::size_t cut = 0; cut < body.size(); ++cut) {
      expect_builder_matches_parser(
          std::vector<std::uint8_t>(body.begin(), body.begin() + static_cast<long>(cut)),
          context + " cut " + std::to_string(cut));
    }
    // Gzip-wrapped, whole and truncated.
    const auto gz = gzip_compress(body);
    expect_builder_matches_parser(gz, context + " gzip");
    expect_builder_matches_parser(
        std::vector<std::uint8_t>(gz.begin(), gz.begin() + static_cast<long>(gz.size() / 2)),
        context + " gzip cut");
  }
}

TEST(Fuzz, InflateRandomGarbageThrowsOrReturns) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto garbage = random_bytes(1 + seed % 300, seed);
    try {
      const auto out = inflate(garbage);
      // Rarely, random bytes form a tiny valid stream — that is fine.
      (void)out;
    } catch (const GzipError&) {
      // expected for almost all inputs
    }
  }
}

TEST(Fuzz, GzipRandomGarbageThrows) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    auto garbage = random_bytes(20 + seed % 200, seed + 1000);
    EXPECT_THROW(gzip_decompress(garbage), GzipError) << "seed=" << seed;
    // With valid magic bytes the parser must still fail cleanly.
    garbage[0] = 0x1f;
    garbage[1] = 0x8b;
    garbage[2] = 8;
    try {
      gzip_decompress(garbage);
    } catch (const GzipError&) {
    }
  }
}

TEST(Fuzz, TruncatedValidGzipAlwaysThrows) {
  const auto payload = random_bytes(5000, 42);
  const auto compressed = gzip_compress(payload);
  for (std::size_t cut = 1; cut < compressed.size(); cut += 7) {
    std::vector<std::uint8_t> truncated(compressed.begin(), compressed.begin() + cut);
    EXPECT_THROW(gzip_decompress(truncated), GzipError) << "cut=" << cut;
  }
}

TEST(Fuzz, BitflippedGzipNeverSucceedsSilently) {
  const auto payload = random_bytes(2000, 43);
  const auto compressed = gzip_compress(payload);
  Xoshiro256 rng(44);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = compressed;
    corrupted[rng.below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    try {
      const auto out = gzip_decompress(corrupted);
      // If decode "succeeded", CRC must have caught any payload change —
      // so the output must equal the original (the flip hit a headers-only
      // bit that decodes identically, which cannot alter the payload).
      ASSERT_EQ(out, payload);
    } catch (const GzipError&) {
      // expected for most flips
    }
  }
}

TEST(Fuzz, FastaParserRandomGarbage) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const auto garbage = random_bytes(200, seed + 2000);
    try {
      const auto records = parse_fasta(garbage);
      for (const auto& record : records) {
        ASSERT_FALSE(record.sequence.empty());
      }
    } catch (const IoError&) {
    }
  }
}

TEST(Fuzz, FastqParserRandomGarbage) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const auto garbage = random_bytes(200, seed + 3000);
    try {
      const auto records = parse_fastq(garbage);
      for (const auto& record : records) {
        ASSERT_EQ(record.sequence.size(), record.quality.size());
      }
    } catch (const IoError&) {
    }
  }
}

TEST(Fuzz, IndexLoadRandomGarbage) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const auto garbage = random_bytes(100 + seed, seed + 4000);
    ByteReader reader(garbage);
    EXPECT_THROW(FmIndex<SampledOcc>::load(reader), IoError) << "seed=" << seed;
  }
}

TEST(Fuzz, RrrLoadRandomGarbage) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const auto garbage = random_bytes(64, seed + 5000);
    ByteReader reader(garbage);
    try {
      RrrVector::load(reader);
    } catch (const IoError&) {
    }
  }
}

TEST(Fuzz, QueryPacketRandomRawDecode) {
  Xoshiro256 rng(6000);
  for (int trial = 0; trial < 500; ++trial) {
    QueryPacket packet;
    for (auto& byte : packet.raw) byte = static_cast<std::uint8_t>(rng.below(256));
    try {
      const auto codes = packet.decode();
      ASSERT_GE(codes.size(), 1u);
      ASSERT_LE(codes.size(), QueryPacket::kMaxBases);
      for (std::uint8_t c : codes) ASSERT_LT(c, 4);
    } catch (const std::invalid_argument&) {
      // malformed length field
    }
  }
}

TEST(Fuzz, SearchNeverReadsOutOfBoundsOnAdversarialPatterns) {
  // Patterns of extreme composition against extreme references.
  const std::vector<std::uint8_t> homopolymer(2000, 0);
  const FmIndex<RrrWaveletOcc> index(
      homopolymer, [](std::span<const std::uint8_t> bwt) {
        return RrrWaveletOcc(bwt, RrrParams{15, 50});
      });
  // All-A pattern: n - p + 1 occurrences.
  for (std::size_t len : {1u, 2u, 1999u, 2000u}) {
    const std::vector<std::uint8_t> pattern(len, 0);
    EXPECT_EQ(index.count(pattern).count(), homopolymer.size() - len + 1);
  }
  // Any pattern containing a non-A never matches.
  const std::vector<std::uint8_t> probe = {0, 0, 3, 0};
  EXPECT_TRUE(index.count(probe).empty());
}

TEST(Fuzz, PipelineRejectsTamperedIndexFiles) {
  // A structurally valid header with absurd counts must be rejected, not
  // trigger a gigantic allocation-and-crash.
  ByteWriter writer;
  writer.u32(0x52565742);
  writer.u32(2);
  writer.u64(1);  // one sequence
  writer.str("seq");
  writer.u32(0);
  writer.u32(1000);
  writer.u32(1000);   // text_length
  writer.u32(0);      // primary
  writer.u64(1u << 30);  // claims a gigabyte of BWT symbols follow

  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "bwaver_tampered.bwvr").string();
  write_file(path, writer.data());
  Pipeline pipeline;
  EXPECT_THROW(pipeline.encode(path), IoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bwaver
