// Failure-injection / fuzz robustness: malformed and random inputs into
// every parser and loader must raise typed exceptions (IoError/GzipError /
// std::invalid_argument), never crash, hang, or silently succeed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <string_view>

#include "fmindex/dna.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/occ_backends.hpp"
#include "fmindex/reference_set.hpp"
#include "fpga/query_packet.hpp"
#include "io/byte_io.hpp"
#include "io/chunk_reader.hpp"
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

/// The window sizes a streamed body is packed in: 0 stands for the whole
/// body in one window.
constexpr std::size_t kWindows[] = {1, 2, 3, 7, 64, 4096, 0};

/// What packing gave: a value, or the IoError's message.
template <typename T>
struct Packed {
  std::optional<T> value;
  std::string error;
};

template <typename T>
Packed<T> pack_or_error(const std::function<T()>& pack) {
  try {
    return {pack(), ""};
  } catch (const IoError& e) {
    return {std::nullopt, e.what()};
  }
}

/// `body` packed from a ChunkReader in windows of `window` bytes (0: one).
template <typename T>
Packed<T> pack_streamed(const std::vector<std::uint8_t>& body, std::size_t window,
                        const std::function<T(ChunkReader&)>& pack) {
  return pack_or_error<T>([&] {
    MemorySource source(body);
    ChunkReader reader(source, window == 0 ? std::max<std::size_t>(body.size(), 1) : window);
    return pack(reader);
  });
}

/// The streamed batch builder against the whole-body one: the same names,
/// codes and ambiguity flags, or the same IoError message, at every window.
void expect_streamed_batch_matches(const std::vector<std::uint8_t>& body,
                                   const std::string& context) {
  const auto whole =
      pack_or_error<ReadBatch>([&] { return ReadBatch::from_fastq_bytes(body); });
  for (const std::size_t window : kWindows) {
    const auto streamed = pack_streamed<ReadBatch>(
        body, window, [](ChunkReader& reader) { return ReadBatch::from_fastq_chunks(reader); });
    const std::string where = context + " window " + std::to_string(window);
    ASSERT_EQ(streamed.error, whole.error) << where;
    if (!whole.value) continue;
    const ReadBatch& a = *streamed.value;
    const ReadBatch& b = *whole.value;
    ASSERT_EQ(a.size(), b.size()) << where;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.name(i), b.name(i)) << where << " read " << i;
      ASSERT_TRUE(std::ranges::equal(a.read(i), b.read(i))) << where << " read " << i;
      ASSERT_EQ(a.ambiguous(i), b.ambiguous(i)) << where << " read " << i;
    }
  }
}

TEST(Fuzz, ReadBatchBuilderMatchesParseFastq) {
  Xoshiro256 rng(2024);
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    const std::string text = awkward_fastq_body(rng);
    const std::vector<std::uint8_t> body(text.begin(), text.end());
    const std::string context = "trial " + std::to_string(trial);
    expect_builder_matches_parser(body, context);
    expect_streamed_batch_matches(body, context);
    // Truncated at every byte: mostly cut records, which both must reject.
    for (std::size_t cut = 0; cut < body.size(); ++cut) {
      const std::vector<std::uint8_t> head(body.begin(), body.begin() + static_cast<long>(cut));
      expect_builder_matches_parser(head, context + " cut " + std::to_string(cut));
      expect_streamed_batch_matches(head, context + " cut " + std::to_string(cut));
    }
    // Gzip-wrapped, whole and truncated.
    const auto gz = gzip_compress(body);
    const std::vector<std::uint8_t> gz_cut(gz.begin(),
                                           gz.begin() + static_cast<long>(gz.size() / 2));
    expect_builder_matches_parser(gz, context + " gzip");
    expect_streamed_batch_matches(gz, context + " gzip");
    expect_builder_matches_parser(gz_cut, context + " gzip cut");
    expect_streamed_batch_matches(gz_cut, context + " gzip cut");
  }
}

/// A small FASTA body with the shapes real references have: CRLF line
/// ends, blank lines, spaces and tabs inside sequence lines, lowercase, N
/// and other IUPAC codes spread over several lines (so substitutions land
/// at positions that cross line and window ends), header comments and
/// trailing header whitespace, and now and then data before the first
/// header, an empty record, or no record at all.
std::string awkward_fasta_body(Xoshiro256& rng) {
  static constexpr std::string_view kBases("ACGTACGTacgtUuNnRYKMSWBDHV-*. \t");
  static constexpr std::string_view kTrail[] = {"", " ", "\t", " \t ", "\r", " \r"};
  std::string body;
  switch (rng.below(10)) {
    case 0: body += "ACGT\n"; break;  // data before the first header
    case 1: body += "\r\n\n \n"; break;  // a blank line, then a space-only one
    case 2: body += "\r\r\n"; break;  // a line of nothing but CRs is blank
    default: break;
  }
  const std::size_t records = rng.below(5);
  for (std::size_t r = 0; r < records; ++r) {
    const std::string eol = rng.below(3) == 0 ? "\r\n" : "\n";
    if (rng.below(4) == 0) body += eol;
    std::string name = "seq" + std::to_string(r);
    if (rng.below(3) == 0) name += " description text";
    body += ">" + name + std::string(kTrail[rng.below(std::size(kTrail))]) + eol;
    const std::size_t lines = rng.below(5);  // 0: an empty record
    for (std::size_t l = 0; l < lines; ++l) {
      const std::size_t length = rng.below(40);
      for (std::size_t i = 0; i < length; ++i) body.push_back(kBases[rng.below(kBases.size())]);
      body += eol;
      if (rng.below(6) == 0) body += eol;
    }
  }
  if (rng.below(6) == 0 && !body.empty()) body.pop_back();  // no final line end
  return body;
}

/// The streamed FASTA packer against parse_fasta then reference_from_fasta:
/// the same names, offsets and 2-bit codes, or the same IoError message, at
/// every window.
void expect_streamed_reference_matches(const std::vector<std::uint8_t>& body,
                                       const std::string& context) {
  const auto whole = pack_or_error<ReferenceSet>(
      [&] { return reference_from_fasta(parse_fasta(body)); });
  for (const std::size_t window : kWindows) {
    const auto streamed = pack_streamed<ReferenceSet>(
        body, window, [](ChunkReader& reader) { return pack_fasta(reader); });
    const std::string where = context + " window " + std::to_string(window);
    ASSERT_EQ(streamed.error, whole.error) << where;
    if (!whole.value) continue;
    const ReferenceSet& a = *streamed.value;
    const ReferenceSet& b = *whole.value;
    ASSERT_EQ(a.num_sequences(), b.num_sequences()) << where;
    for (std::size_t i = 0; i < a.num_sequences(); ++i) {
      ASSERT_EQ(a.sequence(i).name, b.sequence(i).name) << where << " sequence " << i;
      ASSERT_EQ(a.sequence(i).offset, b.sequence(i).offset) << where << " sequence " << i;
      ASSERT_EQ(a.sequence(i).length, b.sequence(i).length) << where << " sequence " << i;
    }
    ASSERT_TRUE(a.concatenated() == b.concatenated()) << where;
  }
}

TEST(Fuzz, FastaPackerMatchesParseFasta) {
  Xoshiro256 rng(2025);
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    const std::string text = awkward_fasta_body(rng);
    const std::vector<std::uint8_t> body(text.begin(), text.end());
    const std::string context = "trial " + std::to_string(trial);
    expect_streamed_reference_matches(body, context);
    for (std::size_t cut = 0; cut < body.size(); ++cut) {
      expect_streamed_reference_matches(
          std::vector<std::uint8_t>(body.begin(), body.begin() + static_cast<long>(cut)),
          context + " cut " + std::to_string(cut));
    }
    const auto gz = gzip_compress(body);
    expect_streamed_reference_matches(gz, context + " gzip");
    expect_streamed_reference_matches(
        std::vector<std::uint8_t>(gz.begin(), gz.begin() + static_cast<long>(gz.size() / 2)),
        context + " gzip cut");
  }
}

TEST(Fuzz, FastaPackerSubstitutesAcrossLinesAndWindows) {
  // One record of N runs split over lines of every width: each N's
  // substitute is seeded by its position in the record, not in its line or
  // window.
  std::string sequence;
  for (int i = 0; i < 3000; ++i) sequence.push_back("ACGTNnRYN"[i % 9]);
  std::string text = ">n_rich\n";
  for (std::size_t at = 0, width = 1; at < sequence.size(); at += width, width = width % 97 + 1) {
    text += sequence.substr(at, width) + (width % 3 == 0 ? "\r\n" : "\n");
  }
  const std::vector<std::uint8_t> body(text.begin(), text.end());
  expect_streamed_reference_matches(body, "n_rich");
  MemorySource source(body);
  ChunkReader reader(source, 5);
  const ReferenceSet packed = pack_fasta(reader);
  EXPECT_TRUE(packed.concatenated() == dna_encode_string(sequence, /*substitute_invalid=*/true));
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
