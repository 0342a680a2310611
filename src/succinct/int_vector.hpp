// Fixed-width packed integer vector: n integers of `width` bits each,
// densely packed into 64-bit words (entry i occupies bits [i * width,
// (i + 1) * width) of the little-endian word stream). Used for the 4-bit RRR
// class array, sampled suffix-array values, and — since archive format v6 —
// the served suffix array and the 2-bit reference text (PackedText).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "io/byte_io.hpp"
#include "util/flat_array.hpp"

namespace bwaver {

/// Appends fixed-width values to a stream of 64-bit words in IntVector's
/// layout, one word at a time — so a writer can emit a packed array without
/// holding it (the blockwise builder streams its suffix array this way).
class BitPacker {
 public:
  explicit BitPacker(unsigned width) : width_(width) {}

  /// Appends `value` (< 2^width); `emit(word)` receives each completed word.
  template <typename Emit>
  void put(std::uint64_t value, Emit&& emit) {
    acc_ |= value << used_;
    used_ += width_;
    if (used_ >= 64) {
      emit(acc_);
      used_ -= 64;
      acc_ = used_ == 0 ? 0 : value >> (width_ - used_);
    }
  }

  /// Emits the partial last word (zero-padded), if any.
  template <typename Emit>
  void finish(Emit&& emit) {
    if (used_ != 0) emit(acc_);
    acc_ = 0;
    used_ = 0;
  }

 private:
  unsigned width_;
  unsigned used_ = 0;
  std::uint64_t acc_ = 0;
};

class IntVector {
 public:
  IntVector() = default;

  /// n entries of `width` bits (1 <= width <= 64), zero-initialized.
  IntVector(std::size_t n, unsigned width);

  /// `values` packed at `width` bits each. Throws std::invalid_argument if
  /// a value does not fit (it is checked in the packing pass).
  static IntVector pack(std::span<const std::uint32_t> values, unsigned width);

  /// The same, consuming `values` (left empty; its contents unspecified if
  /// a value does not fit): every page of them already
  /// packed is handed back to the kernel as the pass goes, so the two forms
  /// never coexist in full — packing a 4-byte suffix array costs its w-bit
  /// form's pages, not both arrays.
  static IntVector pack_consuming(std::vector<std::uint32_t>&& values, unsigned width);

  /// A zero-copy alias of `other`'s words; `other` must outlive the view.
  static IntVector view_of(const IntVector& other);

  std::size_t size() const noexcept { return size_; }
  unsigned width() const noexcept { return width_; }
  bool empty() const noexcept { return size_ == 0; }

  std::uint64_t get(std::size_t i) const noexcept {
    const std::size_t bit = i * width_;
    const std::size_t word = bit >> 6;
    const unsigned shift = bit & 63;
    std::uint64_t value = words_[word] >> shift;
    if (shift + width_ > 64) value |= words_[word + 1] << (64 - shift);
    return width_ < 64 ? value & ((std::uint64_t{1} << width_) - 1) : value;
  }
  void set(std::size_t i, std::uint64_t value);

  std::uint64_t operator[](std::size_t i) const noexcept { return get(i); }

  /// Grows or shrinks to n entries (width() >= 1); new entries read 0.
  void resize(std::size_t n);

  /// Makes room for n entries, so growing up to n moves no word.
  void reserve(std::size_t n) { words_.reserve((n * width_ + 63) / 64); }

  /// The packed words, for readers that decode several entries per word
  /// (PackedText); mutable_words() detaches a borrowed view first.
  std::span<const std::uint64_t> words() const noexcept { return words_; }
  std::uint64_t* mutable_words() { return words_.mutable_data(); }

  /// Pulls the word holding entry `i` toward L1 ahead of a get(i).
  /// always_inline: a call whose only effect is a prefetch is otherwise
  /// deleted by GCC.
  [[gnu::always_inline]] void prefetch(std::size_t i) const noexcept {
    __builtin_prefetch(words_.data() + ((i * width_) >> 6));
  }

  /// Every entry, widened to 32 bits (width <= 32).
  std::vector<std::uint32_t> unpack_u32() const;

  /// Payload bytes (wherever they live — heap or mapped archive).
  std::size_t size_in_bytes() const noexcept { return words_.bytes(); }

  /// Bytes actually charged to the heap (0 for a mapped view).
  std::size_t heap_size_in_bytes() const noexcept { return words_.heap_bytes(); }

  friend bool operator==(const IntVector& a, const IntVector& b) noexcept {
    return a.size_ == b.size_ && a.width_ == b.width_ && a.words_ == b.words_;
  }

  void save(ByteWriter& writer) const;
  static IntVector load(ByteReader& reader);

  /// Flat 64-byte-aligned layout (archive format v3): u64 size, u32 width,
  /// zero padding to 64 bytes, then the raw words. adopt=true borrows the
  /// words from the reader's backing buffer instead of copying them.
  void save_flat(ByteWriter& writer) const;
  static IntVector load_flat(ByteReader& reader, bool adopt);

 private:
  /// pack()'s pass; `packed(count)` runs after every chunk of values.
  template <typename OnChunk>
  static IntVector pack_values(std::span<const std::uint32_t> values, unsigned width,
                               OnChunk&& packed);

  FlatArray<std::uint64_t> words_;
  std::size_t size_ = 0;
  unsigned width_ = 0;
};

}  // namespace bwaver
