// The reference text at its information width: 2 bits per base.
//
// An IntVector of width 2: base i sits in bits [2i mod 64, +2) of word
// i / 32, so archive format v6 stores the "text" section in IntVector's flat
// layout and a memory-mapped load adopts the words in place. The text is a
// quarter of the byte-per-base codes it replaces, and the sweep's one-row
// check (finish_on_text) compares 32 bases per 64-bit word instead of a
// byte at a time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "io/byte_io.hpp"
#include "succinct/int_vector.hpp"

namespace bwaver {

/// Eight byte codes (0..3, one per byte, first code lowest) packed into 16
/// bits, first code lowest: three shift-or steps, no BMI2 needed.
inline std::uint64_t pack_eight_codes(std::uint64_t bytes) noexcept {
  std::uint64_t x = bytes & 0x0303030303030303ULL;
  x = (x | (x >> 6)) & 0x000F000F000F000FULL;
  x = (x | (x >> 12)) & 0x000000FF000000FFULL;
  return (x | (x >> 24)) & 0xFFFFULL;
}

/// The first `count` (<= 32) byte codes at `codes` packed into one word,
/// code j in bits [2j, 2j + 2); reads no byte past codes[count - 1].
inline std::uint64_t pack_codes(const std::uint8_t* codes, std::size_t count) noexcept {
  std::uint64_t packed = 0;
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    std::uint64_t bytes;
    std::memcpy(&bytes, codes + i, 8);
    packed |= pack_eight_codes(bytes) << (2 * i);
  }
  if (i < count) {
    std::uint64_t bytes = 0;
    std::memcpy(&bytes, codes + i, count - i);
    packed |= pack_eight_codes(bytes) << (2 * i);
  }
  return packed;
}

class PackedText {
 public:
  static constexpr unsigned kBasesPerWord = 32;

  PackedText() = default;

  /// Packs 2-bit codes given one per byte (each code & 3 is kept).
  explicit PackedText(std::span<const std::uint8_t> codes) { append(codes); }

  std::size_t size() const noexcept { return codes_.size(); }
  bool empty() const noexcept { return codes_.empty(); }

  std::uint8_t operator[](std::size_t i) const noexcept {
    return static_cast<std::uint8_t>(
        (codes_.words()[i / kBasesPerWord] >> (2 * (i % kBasesPerWord))) & 3);
  }

  /// The 32 codes from position i < size() on (code i in bits 0..1);
  /// positions past the end read as 0.
  std::uint64_t window(std::size_t i) const noexcept {
    const std::span<const std::uint64_t> words = codes_.words();
    const std::size_t word = i / kBasesPerWord;
    const unsigned shift = static_cast<unsigned>(2 * (i % kBasesPerWord));
    std::uint64_t bits = words[word] >> shift;
    if (shift != 0 && word + 1 < words.size()) bits |= words[word + 1] << (64 - shift);
    return bits;
  }

  /// True iff text[pos, pos + count) spells codes[0, count) (codes one per
  /// byte, 0..3), compared a word of 32 bases at a time. Requires
  /// pos + count <= size().
  bool matches(std::size_t pos, const std::uint8_t* codes, std::size_t count) const noexcept {
    for (std::size_t done = 0; done < count; done += kBasesPerWord) {
      const std::size_t m = std::min<std::size_t>(kBasesPerWord, count - done);
      std::uint64_t have = window(pos + done);
      if (m < kBasesPerWord) have &= (std::uint64_t{1} << (2 * m)) - 1;
      if (have != pack_codes(codes + done, m)) return false;
    }
    return true;
  }

  [[gnu::always_inline]] void prefetch(std::size_t i) const noexcept { codes_.prefetch(i); }

  /// The packed words (code i in bits 2(i % 32) of word i / 32), for
  /// readers that decode in a tight loop (suffix-array construction).
  std::span<const std::uint64_t> words() const noexcept { return codes_.words(); }

  /// Appends codes given one per byte.
  void append(std::span<const std::uint8_t> codes);

  /// The codes of [first, first + count), one per byte.
  std::vector<std::uint8_t> unpack(std::size_t first, std::size_t count) const;
  /// Every code, one per byte (what suffix-array construction sorts).
  std::vector<std::uint8_t> unpack() const { return unpack(0, size()); }

  std::size_t size_in_bytes() const noexcept { return codes_.size_in_bytes(); }
  std::size_t heap_size_in_bytes() const noexcept { return codes_.heap_size_in_bytes(); }

  /// IntVector's flat layout (archive format v6 "text" section); adopt=true
  /// borrows the words from the reader's (mapped) backing. load_flat throws
  /// IoError unless the stored width is 2.
  void save_flat(ByteWriter& writer) const { codes_.save_flat(writer); }
  static PackedText load_flat(ByteReader& reader, bool adopt);

  friend bool operator==(const PackedText& a, const PackedText& b) noexcept {
    return a.codes_ == b.codes_;
  }
  friend bool operator==(const PackedText& a, std::span<const std::uint8_t> b) noexcept {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (a[i] != (b[i] & 3)) return false;
    }
    return true;
  }
  friend bool operator==(const PackedText& a, const std::vector<std::uint8_t>& b) noexcept {
    return a == std::span<const std::uint8_t>(b);
  }

 private:
  IntVector codes_ = IntVector(0, 2);
};

}  // namespace bwaver
