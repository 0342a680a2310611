// Occurrence-count (Occ) backends for the FM-index.
//
// All backends answer rank(c, i) = occurrences of code c in the *squeezed*
// BWT prefix [0, i) — the FmIndex layer handles the sentinel adjustment.
//
//   * RrrWaveletOcc   — the paper's structure: wavelet tree of RRR vectors
//                       with shared global tables (BWaveR proper);
//   * PlainWaveletOcc — wavelet tree of uncompressed bit-vectors with
//                       two-level rank directories (ablation);
//   * SampledOcc      — Bowtie-style 2-bit-packed BWT with checkpointed
//                       per-symbol counters and popcount scanning (the
//                       "re-sampling of the index data" design that CPU
//                       tools use, per the paper's introduction).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "succinct/header_body_vector.hpp"
#include "succinct/huffman_wavelet_tree.hpp"
#include "succinct/rank_support.hpp"
#include "succinct/rrr_vector.hpp"
#include "succinct/wavelet_tree.hpp"

namespace bwaver {

class RrrWaveletOcc {
 public:
  RrrWaveletOcc() = default;
  RrrWaveletOcc(std::span<const std::uint8_t> bwt, RrrParams params)
      : params_(params),
        tree_(bwt, kDnaAlphabetSizeLocal,
              [params](const BitVector& bits) { return RrrVector(bits, params); }) {}

  std::size_t rank(std::uint8_t c, std::size_t i) const noexcept {
    return tree_.rank(c, i);
  }

  /// rank(c, i1) and rank(c, i2) in one wavelet descent, i1 <= i2; narrow
  /// intervals additionally share the RRR superblock scans.
  std::pair<std::size_t, std::size_t> rank2(std::uint8_t c, std::size_t i1,
                                            std::size_t i2) const noexcept {
    return tree_.rank_pair(c, i1, i2);
  }

  std::uint8_t access(std::size_t i) const noexcept { return tree_.access(i); }
  std::size_t size() const noexcept { return tree_.size(); }

  /// Per-instance bytes; add shared_table_bytes() once per process/device.
  std::size_t size_in_bytes() const noexcept { return tree_.size_in_bytes(); }
  /// Bytes on the heap — smaller than size_in_bytes() when the node
  /// payloads were adopted from a memory-mapped archive.
  std::size_t heap_size_in_bytes() const noexcept {
    return tree_.heap_size_in_bytes();
  }
  std::size_t shared_table_bytes() const {
    return GlobalRankTable::get(params_.block_bits).device_size_in_bytes();
  }

  RrrParams params() const noexcept { return params_; }
  const WaveletTree<RrrVector>& tree() const noexcept { return tree_; }

  void save(ByteWriter& writer) const {
    writer.u32(params_.block_bits);
    writer.u32(params_.superblock_factor);
    tree_.save(writer);
  }
  static RrrWaveletOcc load(ByteReader& reader) {
    RrrWaveletOcc occ;
    occ.params_.block_bits = reader.u32();
    occ.params_.superblock_factor = reader.u32();
    occ.tree_ = WaveletTree<RrrVector>::load(reader);
    return occ;
  }

  /// Flat 64-byte-aligned layout (archive format v3).
  void save_flat(ByteWriter& writer) const {
    writer.u32(params_.block_bits);
    writer.u32(params_.superblock_factor);
    tree_.save_flat(writer);
  }
  static RrrWaveletOcc load_flat(ByteReader& reader, bool adopt) {
    RrrWaveletOcc occ;
    occ.params_.block_bits = reader.u32();
    occ.params_.superblock_factor = reader.u32();
    occ.tree_ = WaveletTree<RrrVector>::load_flat(reader, adopt);
    return occ;
  }

 private:
  static constexpr unsigned kDnaAlphabetSizeLocal = 4;
  RrrParams params_{};
  WaveletTree<RrrVector> tree_;
};

class PlainWaveletOcc {
 public:
  PlainWaveletOcc() = default;
  explicit PlainWaveletOcc(std::span<const std::uint8_t> bwt)
      : tree_(bwt, 4, [](const BitVector& bits) {
          return PlainRankBitVector(BitVector(bits));
        }) {}

  std::size_t rank(std::uint8_t c, std::size_t i) const noexcept {
    return tree_.rank(c, i);
  }
  std::pair<std::size_t, std::size_t> rank2(std::uint8_t c, std::size_t i1,
                                            std::size_t i2) const noexcept {
    return tree_.rank_pair(c, i1, i2);
  }
  std::uint8_t access(std::size_t i) const noexcept { return tree_.access(i); }
  std::size_t size() const noexcept { return tree_.size(); }
  std::size_t size_in_bytes() const noexcept { return tree_.size_in_bytes(); }

  void save(ByteWriter& writer) const { tree_.save(writer); }
  static PlainWaveletOcc load(ByteReader& reader) {
    PlainWaveletOcc occ;
    occ.tree_ = WaveletTree<PlainRankBitVector>::load(reader);
    return occ;
  }

 private:
  WaveletTree<PlainRankBitVector> tree_;
};

/// Wavelet tree over header/body codewords — the Waidyasooriya et al.
/// related-work structure (ablation backend; ~32/body_bits space overhead
/// over the raw bits, single-fetch rank).
class HeaderBodyOcc {
 public:
  HeaderBodyOcc() = default;
  explicit HeaderBodyOcc(std::span<const std::uint8_t> bwt,
                         HeaderBodyParams params = {})
      : tree_(bwt, 4, [params](const BitVector& bits) {
          return HeaderBodyVector(bits, params);
        }) {}

  std::size_t rank(std::uint8_t c, std::size_t i) const noexcept {
    return tree_.rank(c, i);
  }
  std::pair<std::size_t, std::size_t> rank2(std::uint8_t c, std::size_t i1,
                                            std::size_t i2) const noexcept {
    return tree_.rank_pair(c, i1, i2);
  }
  std::uint8_t access(std::size_t i) const noexcept { return tree_.access(i); }
  std::size_t size() const noexcept { return tree_.size(); }
  std::size_t size_in_bytes() const noexcept { return tree_.size_in_bytes(); }

  void save(ByteWriter& writer) const { tree_.save(writer); }
  static HeaderBodyOcc load(ByteReader& reader) {
    HeaderBodyOcc occ;
    occ.tree_ = WaveletTree<HeaderBodyVector>::load(reader);
    return occ;
  }

 private:
  WaveletTree<HeaderBodyVector> tree_;
};

/// Huffman-shaped wavelet tree over RRR nodes — the SDSL-style shape used
/// by the BWT-WT related work (ablation backend; wins on skewed
/// compositions, ties the balanced tree on near-uniform DNA).
class HuffmanRrrOcc {
 public:
  HuffmanRrrOcc() = default;
  HuffmanRrrOcc(std::span<const std::uint8_t> bwt, RrrParams params)
      : params_(params), tree_(bwt, 4, [params](const BitVector& bits) {
          return RrrVector(bits, params);
        }) {}

  std::size_t rank(std::uint8_t c, std::size_t i) const noexcept {
    return tree_.rank(c, i);
  }
  std::uint8_t access(std::size_t i) const noexcept { return tree_.access(i); }
  std::size_t size() const noexcept { return tree_.size(); }
  std::size_t size_in_bytes() const noexcept { return tree_.size_in_bytes(); }
  double average_code_length() const noexcept { return tree_.average_code_length(); }
  RrrParams params() const noexcept { return params_; }

 private:
  RrrParams params_{};
  HuffmanWaveletTree<RrrVector> tree_;
};

class SampledOcc {
 public:
  SampledOcc() = default;

  /// `checkpoint_words` 64-bit words (32 bases each) per checkpoint block.
  explicit SampledOcc(std::span<const std::uint8_t> bwt, unsigned checkpoint_words = 4);

  std::size_t rank(std::uint8_t c, std::size_t i) const noexcept;

  /// Pulls the checkpoint row and the first packed word a rank at offset
  /// `i` will scan toward L1 (the sweep scheduler's lookahead hook). The
  /// two arrays are separate fetch streams, so both get a prefetch.
  [[gnu::always_inline]] void prefetch(std::size_t i) const noexcept {
    const std::size_t word = i >> 5;
    __builtin_prefetch(&checkpoints_[word / checkpoint_words_], /*rw=*/0,
                       /*locality=*/1);
    if (word < packed_.size()) {
      __builtin_prefetch(&packed_[word], /*rw=*/0, /*locality=*/1);
    }
  }

  std::uint8_t access(std::size_t i) const noexcept {
    return static_cast<std::uint8_t>((packed_[i >> 5] >> ((i & 31) * 2)) & 3);
  }
  std::size_t size() const noexcept { return n_; }
  std::size_t size_in_bytes() const noexcept {
    return packed_.size() * sizeof(std::uint64_t) +
           checkpoints_.size() * sizeof(checkpoints_[0]);
  }

  void save(ByteWriter& writer) const;
  static SampledOcc load(ByteReader& reader);

 private:
  std::vector<std::uint64_t> packed_;  // 2-bit codes, 32 per word
  std::vector<std::array<std::uint32_t, 4>> checkpoints_;
  unsigned checkpoint_words_ = 4;
  std::size_t n_ = 0;
};

}  // namespace bwaver
