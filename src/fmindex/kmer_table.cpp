#include "fmindex/kmer_table.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace bwaver {

namespace {

/// Largest k <= limit with 4^k <= max_entries.
unsigned largest_k(unsigned limit, std::size_t max_entries) {
  unsigned k = 0;
  std::size_t entries = 1;
  while (k < limit && entries * 4 <= max_entries) {
    entries *= 4;
    ++k;
  }
  return k;
}

/// The seed length a stored table declares, refused when no table built
/// over `text` could have it (it must also fit the text for the short-
/// suffix codes to exist).
unsigned checked_k(std::uint32_t k, const PackedText& text) {
  if (k > KmerSeedTable::kMaxK || k > text.size()) {
    throw IoError("seed table (kmer section): corrupt k " + std::to_string(k));
  }
  return k;
}

/// The text's last codes, one per byte: every short suffix a table of any
/// k <= kMaxK needs.
std::vector<std::uint8_t> text_tail(const PackedText& text) {
  const std::size_t count = std::min<std::size_t>(text.size(), KmerSeedTable::kMaxK);
  return text.unpack(text.size() - count, count);
}

std::vector<std::uint32_t> read_flat_u32(ByteReader& reader) {
  const std::uint64_t count = reader.u64();
  reader.align_to(64);
  const auto values = reader.span_u32(count);
  return std::vector<std::uint32_t>(values.begin(), values.end());
}

}  // namespace

unsigned KmerSeedTable::capped_k(unsigned requested_k, std::size_t text_length) {
  if (requested_k == 0) return 0;
  return largest_k(std::min(requested_k, kMaxK),
                   std::max<std::size_t>(4096, 16 * text_length));
}

unsigned KmerSeedTable::budget_k(std::size_t text_length) {
  return largest_k(kMaxBudgetK, std::max<std::size_t>(4096, text_length / 2));
}

unsigned KmerSeedTable::resolve_k(std::optional<unsigned> requested_k,
                                  std::size_t text_length) {
  return requested_k ? capped_k(*requested_k, text_length) : budget_k(text_length);
}

KmerSeedTable::KmerSeedTable(unsigned k, std::span<const std::uint8_t> text) : k_(k) {
  short_codes_.fill(kNoCode);
  // The suffix of length j < k sorts just before the run of its code
  // padded with A (code 0) to k bases. Only the text's last k - 1 codes
  // are read, so `text` may be just its tail.
  const std::size_t n = text.size();
  for (unsigned j = 1; j < k; ++j) {
    std::uint32_t code = 0;
    for (std::size_t i = n - j; i < n; ++i) code = (code << 2) | (text[i] & 3);
    short_codes_[j - 1] = code << (2 * (k - j));
  }
}

template <typename Text>
KmerSeedTable KmerSeedTable::count_kmers(const Text& text,
                                         std::optional<unsigned> requested_k) {
  const std::size_t n = text.size();
  const unsigned k = resolve_k(requested_k, n);
  if (k == 0 || n < k) return KmerSeedTable{};
  std::vector<std::uint8_t> tail(k - 1);
  for (unsigned i = 0; i + 1 < k; ++i) tail[i] = text[n - (k - 1) + i];
  KmerSeedTable table(k, tail);

  // B[x] = 1 + (k-mers of code < x) + (short suffixes padded to <= x): the
  // prefix sum of one row for the sentinel at 0, one per k-mer of code y
  // at y + 1, and one per short suffix at its padded code.
  const std::size_t entries = std::size_t{1} << (2 * k);
  std::vector<std::uint32_t> bounds(entries + 1, 0);
  const std::uint32_t mask = static_cast<std::uint32_t>(entries - 1);
  std::uint32_t code = 0;
  for (std::size_t i = 0; i < n; ++i) {
    code = ((code << 2) | (text[i] & 3)) & mask;
    if (i + 1 >= k) ++bounds[code + 1];
  }
  ++bounds[0];
  for (const std::uint32_t short_code : table.short_codes_) {
    if (short_code != kNoCode) ++bounds[short_code];
  }
  for (std::size_t x = 1; x <= entries; ++x) bounds[x] += bounds[x - 1];
  table.bounds_ = std::move(bounds);
  return table;
}

KmerSeedTable KmerSeedTable::build(std::span<const std::uint8_t> text,
                                   std::optional<unsigned> requested_k) {
  return count_kmers(text, requested_k);
}

KmerSeedTable KmerSeedTable::build(const PackedText& text,
                                   std::optional<unsigned> requested_k) {
  return count_kmers(text, requested_k);
}

void KmerSeedTable::fill_absent(std::vector<std::uint32_t>& bounds, std::size_t rows) const {
  const std::size_t entries = bounds.size() - 1;
  bounds[entries] = static_cast<std::uint32_t>(rows);
  for (std::size_t x = entries; x-- > 0;) {
    if (bounds[x] == 0) {
      bounds[x] = bounds[x + 1] - short_rows(static_cast<std::uint32_t>(x + 1));
    }
  }
}

void KmerSeedTable::validate(std::size_t rows) const {
  const std::size_t expected = k_ == 0 ? 0 : (std::size_t{1} << (2 * k_)) + 1;
  if (bounds_.size() != expected) {
    throw IoError("seed table (kmer section): boundary count does not match k");
  }
  if (k_ == 0) return;
  // A branch-free OR of every step keeps the 4^k scan vectorized, so it
  // runs at memory speed like the CRC pass over the same bytes.
  const std::uint32_t* b = bounds_.data();
  std::uint32_t decreases = 0;
  for (std::size_t x = 1; x < expected; ++x) decreases |= b[x] < b[x - 1] ? 1u : 0u;
  if (decreases != 0) throw IoError("seed table (kmer section): boundaries decrease");
  if (b[expected - 1] != rows) {
    throw IoError("seed table (kmer section): last boundary is not the SA row count");
  }
  // Row 0 (the sentinel) and the short suffixes padded to code 0 precede
  // every run; any other short suffix needs its row in the gap before the
  // run of its code.
  if (b[0] < 1 + std::uint64_t{short_rows(0)}) {
    throw IoError("seed table (kmer section): first boundary leaves no sentinel row");
  }
  for (const std::uint32_t code : short_codes_) {
    if (code == kNoCode || code == 0) continue;
    if (b[code] < b[code - 1] + std::uint64_t{short_rows(code)}) {
      throw IoError("seed table (kmer section): no room for the short-suffix rows at code " +
                    std::to_string(code));
    }
  }
}

void KmerSeedTable::save_flat(ByteWriter& writer) const {
  writer.u32(k_);
  writer.u64(bounds_.size());
  writer.pad_to(64);
  writer.raw_u32(bounds_);
}

KmerSeedTable KmerSeedTable::load_flat(ByteReader& reader, bool adopt,
                                       const PackedText& text) {
  KmerSeedTable table(checked_k(reader.u32(), text), text_tail(text));
  const std::uint64_t count = reader.u64();
  reader.align_to(64);
  const auto values = reader.span_u32(count);
  if (adopt) {
    table.bounds_ = FlatArray<std::uint32_t>::view_of(values);
  } else {
    table.bounds_ = std::vector<std::uint32_t>(values.begin(), values.end());
  }
  table.validate(text.size() + 1);
  return table;
}

void KmerSeedTable::save_intervals(ByteWriter& writer, bool flat) const {
  std::vector<std::uint32_t> lo(entries(), 0);
  std::vector<std::uint32_t> hi(entries(), 0);
  for (std::size_t x = 0; x < entries(); ++x) {
    const SaInterval iv = interval(static_cast<std::uint32_t>(x));
    if (iv.empty()) continue;  // absent k-mers were written as [0, 0)
    lo[x] = iv.lo;
    hi[x] = iv.hi;
  }
  writer.u32(k_);
  if (!flat) {
    writer.vec_u32(lo);
    writer.vec_u32(hi);
    return;
  }
  for (const auto* array : {&lo, &hi}) {
    writer.u64(array->size());
    writer.pad_to(64);
    writer.raw_u32(*array);
  }
}

KmerSeedTable KmerSeedTable::load_intervals(ByteReader& reader, bool flat,
                                            const PackedText& text) {
  KmerSeedTable table(checked_k(reader.u32(), text), text_tail(text));
  const std::vector<std::uint32_t> lo = flat ? read_flat_u32(reader) : reader.vec_u32();
  const std::vector<std::uint32_t> hi = flat ? read_flat_u32(reader) : reader.vec_u32();
  const std::size_t entries = table.k_ == 0 ? 0 : std::size_t{1} << (2 * table.k_);
  if (lo.size() != entries || hi.size() != entries) {
    throw IoError("seed table (kmer section): interval count does not match k");
  }
  if (entries == 0) return table;

  // Present k-mers' starts are their boundaries; the rest follow from them.
  std::vector<std::uint32_t> bounds(entries + 1, 0);
  for (std::size_t x = 0; x < entries; ++x) {
    if (lo[x] < hi[x]) bounds[x] = lo[x];
  }
  const std::size_t rows = text.size() + 1;
  table.fill_absent(bounds, rows);
  table.bounds_ = std::move(bounds);
  table.validate(rows);
  // The stored ends must be the ones the boundaries imply.
  for (std::size_t x = 0; x < entries; ++x) {
    if (lo[x] < hi[x] &&
        table.interval(static_cast<std::uint32_t>(x)) != SaInterval{lo[x], hi[x]}) {
      throw IoError("seed table (kmer section): intervals do not tile the suffix array");
    }
  }
  return table;
}

}  // namespace bwaver
