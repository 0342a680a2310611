// 512-bit query packet — the host/device interface unit (paper, Sec. III-C:
// "we implemented the query as a 512-bit data structure, which stores the
// sequence to be searched and some additional information", sized for the
// memory burst and for reads up to 176 bases).
//
// Layout (64 bytes):
//   bytes  0..43  2-bit-packed bases, LSB-first within each byte (176 max)
//   bytes 44..45  read length (u16, little-endian)
//   bytes 46..47  flags (reserved, zero)
//   bytes 48..51  query id (u32)
//   bytes 52..63  padding (zero)
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace bwaver {

struct QueryPacket {
  static constexpr unsigned kMaxBases = 176;
  static constexpr unsigned kBytes = 64;

  std::array<std::uint8_t, kBytes> raw{};

  static QueryPacket encode(std::span<const std::uint8_t> codes, std::uint32_t id) {
    if (codes.size() > kMaxBases) {
      throw std::length_error("QueryPacket: read longer than 176 bases");
    }
    if (codes.empty()) {
      throw std::invalid_argument("QueryPacket: empty read");
    }
    QueryPacket packet;
    for (std::size_t i = 0; i < codes.size(); ++i) {
      packet.raw[i >> 2] |= static_cast<std::uint8_t>((codes[i] & 3) << ((i & 3) * 2));
    }
    const auto length = static_cast<std::uint16_t>(codes.size());
    packet.raw[44] = static_cast<std::uint8_t>(length);
    packet.raw[45] = static_cast<std::uint8_t>(length >> 8);
    packet.raw[48] = static_cast<std::uint8_t>(id);
    packet.raw[49] = static_cast<std::uint8_t>(id >> 8);
    packet.raw[50] = static_cast<std::uint8_t>(id >> 16);
    packet.raw[51] = static_cast<std::uint8_t>(id >> 24);
    return packet;
  }

  std::uint16_t length() const noexcept {
    return static_cast<std::uint16_t>(raw[44] | (raw[45] << 8));
  }

  std::uint32_t id() const noexcept {
    return static_cast<std::uint32_t>(raw[48]) | (static_cast<std::uint32_t>(raw[49]) << 8) |
           (static_cast<std::uint32_t>(raw[50]) << 16) |
           (static_cast<std::uint32_t>(raw[51]) << 24);
  }

  std::uint8_t base(unsigned i) const noexcept {
    return static_cast<std::uint8_t>((raw[i >> 2] >> ((i & 3) * 2)) & 3);
  }

  std::vector<std::uint8_t> decode() const {
    const unsigned len = length();
    if (len == 0 || len > kMaxBases) {
      throw std::invalid_argument("QueryPacket: malformed length field");
    }
    std::vector<std::uint8_t> codes(len);
    for (unsigned i = 0; i < len; ++i) codes[i] = base(i);
    return codes;
  }
};

/// Per-query result returned by the kernel: the SA intervals of the read and
/// of its reverse complement (32 bytes on the wire; positions are resolved
/// by the host through the suffix array).
///
/// `*_verified` counts the strand's leading bases that were matched against
/// the reference text instead of searched: the rows then index the
/// remaining suffix, so each hit starts at SA[row] - verified. The sweep
/// scheduler sets it when it finishes a one-row search on the text; every
/// per-read search (and the kernel) consumes the whole read and leaves it 0.
struct QueryResult {
  static constexpr unsigned kBytes = 32;

  std::uint32_t id = 0;
  std::uint32_t fwd_lo = 0, fwd_hi = 0;  ///< empty when lo >= hi
  std::uint32_t rev_lo = 0, rev_hi = 0;
  std::uint32_t fwd_verified = 0, rev_verified = 0;

  bool fwd_mapped() const noexcept { return fwd_lo < fwd_hi; }
  bool rev_mapped() const noexcept { return rev_lo < rev_hi; }
  bool mapped() const noexcept { return fwd_mapped() || rev_mapped(); }
};

}  // namespace bwaver
