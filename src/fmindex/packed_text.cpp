#include "fmindex/packed_text.hpp"

namespace bwaver {

void PackedText::append(std::span<const std::uint8_t> codes) {
  const std::size_t old_size = codes_.size();
  codes_.resize(old_size + codes.size());
  std::size_t i = 0;
  // Fill the partial last word code by code, then whole words of 32.
  for (; i < codes.size() && (old_size + i) % kBasesPerWord != 0; ++i) {
    codes_.set(old_size + i, codes[i] & 3u);
  }
  std::uint64_t* out = codes_.mutable_words() + (old_size + i) / kBasesPerWord;
  for (; i + kBasesPerWord <= codes.size(); i += kBasesPerWord) {
    *out++ = pack_codes(codes.data() + i, kBasesPerWord);
  }
  if (i < codes.size()) *out = pack_codes(codes.data() + i, codes.size() - i);
}

std::vector<std::uint8_t> PackedText::unpack(std::size_t first, std::size_t count) const {
  std::vector<std::uint8_t> codes(count);
  for (std::size_t i = 0; i < count; ++i) codes[i] = (*this)[first + i];
  return codes;
}

PackedText PackedText::load_flat(ByteReader& reader, bool adopt) {
  PackedText text;
  text.codes_ = IntVector::load_flat(reader, adopt);
  if (text.codes_.width() != 2) throw IoError("text section: width is not 2 bits");
  return text;
}

}  // namespace bwaver
