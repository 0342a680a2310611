#include "succinct/int_vector.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>

namespace bwaver {

namespace {

/// Words of `n` entries of `width` bits; throws IoError when a stored size
/// could not fit in `available` bytes (a corrupt count, not an overflow).
std::size_t word_count(std::uint64_t n, unsigned width, std::size_t available,
                       const char* where) {
  if (width != 0 && n > available * 8 / width) {
    throw IoError(std::string(where) + ": size exceeds the payload");
  }
  return static_cast<std::size_t>((n * width + 63) / 64);
}

}  // namespace

IntVector::IntVector(std::size_t n, unsigned width) : size_(n), width_(width) {
  if (width == 0 || width > 64) {
    throw std::invalid_argument("IntVector: width must be in [1, 64]");
  }
  words_.assign((n * width + 63) / 64, 0);
}

template <typename OnChunk>
IntVector IntVector::pack_values(std::span<const std::uint32_t> values, unsigned width,
                                 OnChunk&& packed) {
  if (width == 0 || width > 32) {
    throw std::invalid_argument("IntVector::pack: width must be in [1, 32]");
  }
  IntVector v;
  v.size_ = values.size();
  v.width_ = width;
  std::vector<std::uint64_t> words;
  words.reserve((values.size() * width + 63) / 64);
  const auto emit = [&words](std::uint64_t word) { words.push_back(word); };
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  std::uint64_t all = 0;  // every value's bits, so one test after the pass
  BitPacker packer(width);
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  for (std::size_t first = 0; first < values.size(); first += kChunk) {
    const std::size_t last = std::min(values.size(), first + kChunk);
    for (std::size_t i = first; i < last; ++i) {
      all |= values[i];
      packer.put(values[i] & mask, emit);
    }
    packed(last);
  }
  packer.finish(emit);
  if ((all & ~mask) != 0) {
    throw std::invalid_argument("IntVector::pack: a value does not fit in " +
                                std::to_string(width) + " bits");
  }
  v.words_ = std::move(words);
  return v;
}

IntVector IntVector::pack(std::span<const std::uint32_t> values, unsigned width) {
  return pack_values(values, width, [](std::size_t) {});
}

IntVector IntVector::pack_consuming(std::vector<std::uint32_t>&& values, unsigned width) {
  // Only pages wholly inside the consumed prefix are released; their
  // contents are never read again, and the vector is freed after the pass.
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(values.data());
  std::uintptr_t released = (begin + page - 1) / page * page;
  IntVector v = pack_values(values, width, [&](std::size_t count) {
    const std::uintptr_t consumed = (begin + count * sizeof(std::uint32_t)) / page * page;
    if (consumed > released) {
      ::madvise(reinterpret_cast<void*>(released), consumed - released, MADV_DONTNEED);
      released = consumed;
    }
  });
  values = std::vector<std::uint32_t>();
  return v;
}

IntVector IntVector::view_of(const IntVector& other) {
  IntVector v;
  v.words_ = FlatArray<std::uint64_t>::view_of(other.words_);
  v.size_ = other.size_;
  v.width_ = other.width_;
  return v;
}

std::vector<std::uint32_t> IntVector::unpack_u32() const {
  std::vector<std::uint32_t> values(size_);
  for (std::size_t i = 0; i < size_; ++i) values[i] = static_cast<std::uint32_t>(get(i));
  return values;
}

void IntVector::save(ByteWriter& writer) const {
  writer.u64(size_);
  writer.u32(width_);
  for (std::uint64_t word : words_) writer.u64(word);
}

IntVector IntVector::load(ByteReader& reader) {
  IntVector v;
  v.size_ = reader.u64();
  v.width_ = reader.u32();
  if (v.size_ > 0 && (v.width_ == 0 || v.width_ > 64)) {
    throw IoError("IntVector::load: corrupt width field");
  }
  std::vector<std::uint64_t> words(
      word_count(v.size_, v.width_, reader.remaining(), "IntVector::load"));
  for (auto& word : words) word = reader.u64();
  v.words_ = std::move(words);
  return v;
}

void IntVector::save_flat(ByteWriter& writer) const {
  writer.u64(size_);
  writer.u32(width_);
  writer.pad_to(64);
  writer.raw_u64(words_);
}

IntVector IntVector::load_flat(ByteReader& reader, bool adopt) {
  IntVector v;
  v.size_ = reader.u64();
  v.width_ = reader.u32();
  if (v.size_ > 0 && (v.width_ == 0 || v.width_ > 64)) {
    throw IoError("IntVector::load_flat: corrupt width field");
  }
  reader.align_to(64);
  const auto words =
      reader.span_u64(word_count(v.size_, v.width_, reader.remaining(), "IntVector::load_flat"));
  if (adopt) {
    v.words_ = FlatArray<std::uint64_t>::view_of(words);
  } else {
    v.words_ = std::vector<std::uint64_t>(words.begin(), words.end());
  }
  return v;
}

void IntVector::resize(std::size_t n) {
  if (width_ == 0) throw std::invalid_argument("IntVector::resize: no width");
  words_.resize((n * width_ + 63) / 64);  // added words are zero
  // Clear the bits past the shorter size in its last word: grown entries
  // read 0, and a shrunk vector's padding stays zero.
  const std::size_t bits = std::min(n, size_) * width_;
  if (bits % 64 != 0) words_.mut(bits / 64) &= (std::uint64_t{1} << (bits % 64)) - 1;
  size_ = n;
}

void IntVector::set(std::size_t i, std::uint64_t value) {
  if (width_ < 64) value &= (std::uint64_t{1} << width_) - 1;
  const std::size_t bit = i * width_;
  const std::size_t word = bit >> 6;
  const unsigned shift = bit & 63;
  std::uint64_t* words = words_.mutable_data();
  words[word] &= ~(((width_ < 64 ? (std::uint64_t{1} << width_) - 1 : ~std::uint64_t{0})) << shift);
  words[word] |= value << shift;
  if (shift + width_ > 64) {
    const unsigned spill = shift + width_ - 64;
    words[word + 1] &= ~((std::uint64_t{1} << spill) - 1);
    words[word + 1] |= value >> (64 - shift);
  }
}

}  // namespace bwaver
