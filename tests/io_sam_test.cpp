#include "io/sam.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace bwaver {
namespace {

/// A mapped line written through write_sam_mapped into a buffer sized the
/// way the mapper sizes it.
std::string mapped_line(std::string_view qname, bool reverse, std::string_view rname,
                        std::uint32_t position, std::uint32_t length) {
  std::string line(kSamLineBytes + qname.size() + rname.size(), '\0');
  line.resize(static_cast<std::size_t>(
      write_sam_mapped(line.data(), qname, reverse, rname, position, length) - line.data()));
  return line;
}

std::string unmapped_line(std::string_view qname) {
  std::string line(kSamLineBytes + qname.size(), '\0');
  line.resize(
      static_cast<std::size_t>(write_sam_unmapped(line.data(), qname) - line.data()));
  return line;
}

TEST(Sam, HeaderContainsReference) {
  const std::vector<SamSequence> sequences = {{"chrX", 12345}};
  const std::string sam = format_sam_header(sequences);
  EXPECT_NE(sam.find("@HD\tVN:1.6"), std::string::npos);
  EXPECT_NE(sam.find("@SQ\tSN:chrX\tLN:12345"), std::string::npos);
  EXPECT_NE(sam.find("@PG\tID:bwaver"), std::string::npos);
}

TEST(Sam, MappedForwardAlignmentLine) {
  // Position converts to 1-based; every field of the line is fixed.
  EXPECT_EQ(mapped_line("read1", false, "ref", 99, 50),
            "read1\t0\tref\t100\t60\t50M\t*\t0\t0\t*\t*\n");
  // The widest numbers still fit the buffer the mapper sizes.
  EXPECT_EQ(mapped_line("r", true, "c", 0xfffffffeu, 0xffffffffu),
            "r\t16\tc\t4294967295\t60\t4294967295M\t*\t0\t0\t*\t*\n");
}

TEST(Sam, ReverseStrandSetsFlag16) {
  EXPECT_EQ(mapped_line("r", true, "ref", 0, 35).rfind("r\t16\tref\t1\t60\t35M", 0), 0u);
}

TEST(Sam, UnmappedReadUsesFlag4AndStars) {
  EXPECT_EQ(unmapped_line("lost"), "lost\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*\n");
}

TEST(Sam, OneLinePerAlignment) {
  std::string sam = format_sam_header(std::vector<SamSequence>{{"ref", 100}});
  sam += mapped_line("a", false, "ref", 1, 10);
  sam += mapped_line("a", false, "ref", 50, 10);
  sam += mapped_line("b", true, "ref", 2, 10);
  std::istringstream stream(sam);
  std::string line;
  int alignment_lines = 0;
  while (std::getline(stream, line)) {
    if (!line.empty() && line[0] != '@') ++alignment_lines;
  }
  EXPECT_EQ(alignment_lines, 3);
}

}  // namespace
}  // namespace bwaver
