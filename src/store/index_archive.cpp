#include "store/index_archive.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "fmindex/bwt.hpp"
#include "io/byte_io.hpp"
#include "io/checksum.hpp"
#include "store/archive_stream_writer.hpp"

namespace bwaver {

namespace {

constexpr std::uint32_t kArchiveMagic = 0x41565742;  // "BWVA" little-endian

struct ParsedHeader {
  std::uint32_t version = 0;
  std::vector<ArchiveSection> sections;
};

/// Parses and validates the header fields, the header CRC and the section
/// bounds against `file_size` — without touching any section payload, so it
/// works on a small prefix of a multi-gigabyte archive.
ParsedHeader parse_header_fields(std::span<const std::uint8_t> prefix,
                                 std::uint64_t file_size, const std::string& path) {
  ByteReader reader(prefix);
  if (reader.u32() != kArchiveMagic) {
    throw IoError("index archive: bad magic: " + path);
  }
  ParsedHeader header;
  header.version = reader.u32();
  if (header.version < kArchiveVersionMin || header.version > kArchiveVersionLatest) {
    throw IoError("index archive: unsupported version " +
                  std::to_string(header.version) + " (expected " +
                  std::to_string(kArchiveVersionMin) + ".." +
                  std::to_string(kArchiveVersionLatest) + "): " + path);
  }
  const std::uint32_t section_count = reader.u32();
  if (section_count == 0 || section_count > 64) {
    throw IoError("index archive: implausible section count: " + path);
  }
  for (std::uint32_t i = 0; i < section_count; ++i) {
    ArchiveSection section;
    section.name = reader.str();
    section.offset = reader.u64();
    section.length = reader.u64();
    section.crc32 = reader.u32();
    header.sections.push_back(std::move(section));
  }
  const std::size_t header_bytes = prefix.size() - reader.remaining();
  const std::uint32_t stored_header_crc = reader.u32();
  if (crc32_ieee(prefix.subspan(0, header_bytes)) != stored_header_crc) {
    throw IoError("index archive: header checksum mismatch: " + path);
  }
  for (const ArchiveSection& section : header.sections) {
    if (section.offset > file_size || section.length > file_size - section.offset) {
      throw IoError("index archive: truncated section '" + section.name +
                    "': " + path);
    }
  }
  return header;
}

/// Parses and validates the header, the header CRC, the section bounds and
/// every section payload CRC.
ParsedHeader parse_header(std::span<const std::uint8_t> file, const std::string& path) {
  ParsedHeader header = parse_header_fields(file, file.size(), path);
  for (const ArchiveSection& section : header.sections) {
    if (crc32_ieee(file.subspan(section.offset, section.length)) != section.crc32) {
      throw IoError("index archive: section '" + section.name +
                    "' checksum mismatch: " + path);
    }
  }
  return header;
}

const ArchiveSection* find_section_entry(const ParsedHeader& header,
                                         const std::string& name) {
  for (const ArchiveSection& section : header.sections) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

/// A reader over one section's payload, carrying the section name and its
/// absolute file offset so truncation/misalignment errors point at the spot.
ByteReader section_reader(std::span<const std::uint8_t> file,
                          const ParsedHeader& header, const std::string& name,
                          const std::string& path) {
  const ArchiveSection* entry = find_section_entry(header, name);
  if (entry == nullptr) {
    throw IoError("index archive: missing section '" + name + "': " + path);
  }
  return ByteReader(file.subspan(entry->offset, entry->length), name,
                    entry->offset);
}

struct MetaSection {
  std::vector<ReferenceSet::Sequence> sequences;
  std::uint32_t text_length = 0;
  std::array<std::uint32_t, 4> c_table{};
  std::uint32_t primary = 0;  ///< v6+: the BWT's sentinel row (no "bwt" section)
};

MetaSection parse_meta(ByteReader reader, std::uint32_t version, const std::string& path) {
  MetaSection meta;
  meta.sequences = ReferenceSet::load_table(reader);
  meta.text_length = reader.u32();
  for (auto& c : meta.c_table) c = reader.u32();
  if (version >= 6) meta.primary = reader.u32();
  if (!reader.done()) {
    throw IoError("index archive: trailing bytes in meta section: " + path);
  }
  return meta;
}

/// v1/v2: element-wise deserialization onto the heap, reference text
/// recovered from the BWT.
StoredIndex load_v1v2(std::span<const std::uint8_t> file,
                      const ParsedHeader& header, const std::string& path) {
  const MetaSection meta =
      parse_meta(section_reader(file, header, kSectionMeta, path), header.version, path);

  Bwt bwt;
  {
    ByteReader reader = section_reader(file, header, kSectionBwt, path);
    bwt.text_length = reader.u32();
    bwt.primary = reader.u32();
    bwt.symbols = reader.vec_u8();
    if (!reader.done()) {
      throw IoError("index archive: trailing bytes in bwt section: " + path);
    }
  }
  if (bwt.symbols.size() != bwt.text_length || bwt.text_length != meta.text_length ||
      bwt.primary > bwt.text_length) {
    throw IoError("index archive: inconsistent BWT metadata: " + path);
  }

  RrrWaveletOcc occ;
  {
    ByteReader reader = section_reader(file, header, kSectionOcc, path);
    occ = RrrWaveletOcc::load(reader);
    if (!reader.done()) {
      throw IoError("index archive: trailing bytes in occ section: " + path);
    }
  }

  IntVector sa;
  {
    ByteReader reader = section_reader(file, header, kSectionSa, path);
    const std::vector<std::uint32_t> entries = reader.vec_u32();
    if (!reader.done()) {
      throw IoError("index archive: trailing bytes in sa section: " + path);
    }
    if (entries.size() != static_cast<std::size_t>(bwt.text_length) + 1) {
      throw IoError("index archive: SA/BWT size mismatch: " + path);
    }
    sa = pack_stored_suffix_array(entries, bwt.text_length);
  }
  if (occ.size() != bwt.symbols.size()) {
    throw IoError("index archive: Occ/BWT size mismatch: " + path);
  }
  if (c_table_of(bwt) != meta.c_table) {
    throw IoError("index archive: C table does not match BWT: " + path);
  }

  // The reference text is recovered from the BWT; the meta section's
  // sequence table carves it back into named sequences.
  const auto text = inverse_bwt(bwt);
  ReferenceSet reference;
  for (const auto& seq : meta.sequences) {
    if (static_cast<std::size_t>(seq.offset) + seq.length > text.size()) {
      throw IoError("index archive: sequence table out of range: " + path);
    }
    reference.add(seq.name,
                  std::span<const std::uint8_t>(text.data() + seq.offset, seq.length));
  }
  if (reference.total_length() != text.size()) {
    throw IoError("index archive: sequence table does not cover text: " + path);
  }

  std::shared_ptr<const KmerSeedTable> seeds;
  if (find_section_entry(header, kSectionKmer) != nullptr) {
    ByteReader reader = section_reader(file, header, kSectionKmer, path);
    auto table = KmerSeedTable::load_intervals(reader, /*flat=*/false,
                                               reference.concatenated());
    if (!reader.done()) {
      throw IoError("index archive: trailing bytes in kmer section: " + path);
    }
    seeds = std::make_shared<const KmerSeedTable>(std::move(table));
  }

  StoredIndex stored{std::move(reference),
                     FmIndex<RrrWaveletOcc>(std::move(bwt), std::move(sa), std::move(occ),
                                            meta.c_table),
                     nullptr, nullptr, LoadMode::kCopy};
  stored.index.set_seed_table(std::move(seeds));
  return stored;
}

/// Reads one flat u8 array (count, pad, raw bytes); adopts or copies.
FlatArray<std::uint8_t> read_flat_u8(ByteReader& reader, bool adopt) {
  const std::uint64_t count = reader.u64();
  reader.align_to(kSectionAlign);
  const auto bytes = reader.span_u8(count);
  if (adopt) return FlatArray<std::uint8_t>::view_of(bytes);
  return FlatArray<std::uint8_t>(
      std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
}

/// v3+: flat 64-byte-aligned payloads; adopt=true borrows every bulk array
/// from `file` (which the caller keeps mapped), adopt=false copies them.
/// A v6 archive stores the text at 2 bits and the suffix array at
/// suffix_array_width(n) bits, both adopted as they are; v3..v5 byte text
/// and 4-byte suffix arrays are packed onto the heap at load in both modes
/// (pack_stored_suffix_array), so serving sees one layout. v3..v5 keep their
/// "bwt" section (viewed at its own width); v6 has none, its primary row is
/// in "meta", and its "epr" section is required. A v3/v4 seed table has the two-array layout and is
/// converted onto the heap in both modes.
StoredIndex load_flat_archive(std::span<const std::uint8_t> file, const ParsedHeader& header,
                              const std::string& path, bool adopt) {
  const bool packed = header.version >= 6;
  const MetaSection meta =
      parse_meta(section_reader(file, header, kSectionMeta, path), header.version, path);
  const std::uint32_t n = meta.text_length;

  PackedText text;
  {
    ByteReader reader = section_reader(file, header, kSectionText, path);
    if (packed) {
      text = PackedText::load_flat(reader, adopt);
    } else {
      text = PackedText(read_flat_u8(reader, /*adopt=*/true));
    }
    if (!reader.done()) {
      throw IoError("index archive: trailing bytes in text section: " + path);
    }
  }
  if (text.size() != n) {
    throw IoError("index archive: text/meta size mismatch: " + path);
  }
  // from_parts revalidates that the sequence table tiles the text.
  ReferenceSet reference = ReferenceSet::from_parts(meta.sequences, std::move(text));

  Bwt bwt;
  bwt.text_length = n;
  bwt.primary = meta.primary;
  if (!packed) {
    ByteReader reader = section_reader(file, header, kSectionBwt, path);
    bwt.text_length = reader.u32();
    bwt.primary = reader.u32();
    bwt.symbols = read_flat_u8(reader, adopt);
    if (!reader.done()) {
      throw IoError("index archive: trailing bytes in bwt section: " + path);
    }
    if (bwt.symbols.size() != bwt.text_length || bwt.text_length != n) {
      throw IoError("index archive: inconsistent BWT metadata: " + path);
    }
  }
  if (bwt.primary > n) {
    throw IoError("index archive: primary row " + std::to_string(bwt.primary) +
                  " past the text (" + std::to_string(n) + " bases): " + path);
  }

  RrrWaveletOcc occ;
  {
    ByteReader reader = section_reader(file, header, kSectionOcc, path);
    occ = RrrWaveletOcc::load_flat(reader, adopt);
    if (!reader.done()) {
      throw IoError("index archive: trailing bytes in occ section: " + path);
    }
  }
  if (occ.size() != n) {
    throw IoError("index archive: Occ/BWT size mismatch: " + path);
  }

  const unsigned width = suffix_array_width(n);
  IntVector sa;
  {
    ByteReader reader = section_reader(file, header, kSectionSa, path);
    if (packed) {
      sa = IntVector::load_flat(reader, adopt);
      if (sa.width() != width) {
        throw IoError("index archive: suffix array entries are " + std::to_string(sa.width()) +
                      " bits, expected " + std::to_string(width) + ": " + path);
      }
    } else {
      const std::uint64_t count = reader.u64();
      reader.align_to(kSectionAlign);
      sa = pack_stored_suffix_array(reader.span_u32(count), n);
    }
    if (!reader.done()) {
      throw IoError("index archive: trailing bytes in sa section: " + path);
    }
  }
  if (sa.size() != static_cast<std::size_t>(n) + 1) {
    throw IoError("index archive: SA/BWT size mismatch: " + path);
  }

  std::shared_ptr<const KmerSeedTable> seeds;
  if (find_section_entry(header, kSectionKmer) != nullptr) {
    ByteReader reader = section_reader(file, header, kSectionKmer, path);
    auto table = header.version >= 5
                     ? KmerSeedTable::load_flat(reader, adopt, reference.concatenated())
                     : KmerSeedTable::load_intervals(reader, /*flat=*/true,
                                                     reference.concatenated());
    if (!reader.done()) {
      throw IoError("index archive: trailing bytes in kmer section: " + path);
    }
    seeds = std::make_shared<const KmerSeedTable>(std::move(table));
  }

  std::shared_ptr<const EprOcc> epr;
  if (packed || find_section_entry(header, kSectionEpr) != nullptr) {
    ByteReader reader = section_reader(file, header, kSectionEpr, path);
    auto dict = EprOcc::load_flat(reader, adopt);
    if (!reader.done()) {
      throw IoError("index archive: trailing bytes in epr section: " + path);
    }
    if (dict.size() != n) {
      throw IoError("index archive: EPR/BWT size mismatch: " + path);
    }
    epr = std::make_shared<const EprOcc>(std::move(dict));
  }

  // The C table comes from the checksummed meta section; the four-arg
  // constructor validates plausibility without rescanning the BWT.
  StoredIndex stored{std::move(reference),
                     FmIndex<RrrWaveletOcc>(std::move(bwt), std::move(sa), std::move(occ),
                                            meta.c_table),
                     std::move(epr), nullptr, LoadMode::kCopy};
  stored.index.set_seed_table(std::move(seeds));
  return stored;
}

}  // namespace

LoadMode default_load_mode() {
  if (const char* env = std::getenv("BWAVER_LOAD_MODE")) {
    if (const auto mode = parse_load_mode(env)) return *mode;
  }
  return LoadMode::kCopy;
}

std::optional<LoadMode> parse_load_mode(std::string_view name) {
  if (name == "mmap") return LoadMode::kMmap;
  if (name == "copy") return LoadMode::kCopy;
  return std::nullopt;
}

const char* load_mode_name(LoadMode mode) {
  return mode == LoadMode::kMmap ? "mmap" : "copy";
}

std::vector<SectionFootprint> stored_index_sections(const StoredIndex& stored) {
  // Heap bytes never exceed the payload in the footprint: a heap copy's
  // spare capacity is not charged, and a view's payload is all mapped.
  const auto section = [](const char* name, std::size_t bytes, std::size_t heap) {
    return SectionFootprint{name, bytes, std::min(bytes, heap)};
  };
  const auto& text = stored.reference.concatenated();
  const auto& bwt = stored.index.bwt().symbols;
  const auto& sa = stored.index.suffix_array();
  const auto& occ = stored.index.occ_backend();
  std::vector<SectionFootprint> sections{
      section(kSectionText, text.size_in_bytes(), text.heap_size_in_bytes())};
  // A v6 index holds no raw BWT: every symbol is read through an Occ.
  if (!bwt.empty()) sections.push_back(section(kSectionBwt, bwt.bytes(), bwt.heap_bytes()));
  sections.push_back(section(kSectionOcc, occ.size_in_bytes(), occ.heap_size_in_bytes()));
  sections.push_back(section(kSectionSa, sa.size_in_bytes(), sa.heap_size_in_bytes()));
  if (const KmerSeedTable* seeds = stored.index.seed_table()) {
    sections.push_back(
        section(kSectionKmer, seeds->size_in_bytes(), seeds->heap_size_in_bytes()));
  }
  if (stored.epr) {
    sections.push_back(
        section(kSectionEpr, stored.epr->size_in_bytes(), stored.epr->heap_size_in_bytes()));
  }
  return sections;
}

IndexFootprint stored_index_footprint(const StoredIndex& stored) {
  IndexFootprint footprint;
  for (const SectionFootprint& section : stored_index_sections(stored)) {
    footprint.heap_bytes += section.heap_bytes;
    footprint.mapped_bytes += section.bytes - section.heap_bytes;
  }
  return footprint;
}

std::size_t stored_index_bytes(const StoredIndex& stored) {
  return stored_index_footprint(stored).total();
}

std::uint64_t archive_payload_start(std::span<const ArchiveSectionPlan> sections) {
  std::uint64_t header_bytes = 3 * sizeof(std::uint32_t);
  for (const ArchiveSectionPlan& section : sections) {
    header_bytes += 8 + section.name.size() + 8 + 8 + 4;
  }
  return header_bytes + sizeof(std::uint32_t);  // + header CRC
}

std::vector<std::uint8_t> render_archive_header(std::uint32_t format_version,
                                                std::span<const ArchiveSectionPlan> sections) {
  const bool flat = format_version >= 3;
  ByteWriter writer;
  writer.u32(kArchiveMagic);
  writer.u32(format_version);
  writer.u32(static_cast<std::uint32_t>(sections.size()));
  std::uint64_t offset = archive_payload_start(sections);
  for (const ArchiveSectionPlan& section : sections) {
    if (flat) offset = (offset + kSectionAlign - 1) & ~(kSectionAlign - 1);
    writer.str(section.name);
    writer.u64(offset);
    writer.u64(section.length);
    writer.u32(section.crc32);
    offset += section.length;
  }
  writer.u32(crc32_ieee(writer.data()));
  return writer.take();
}

std::vector<std::string> archive_section_names(std::uint32_t format_version, bool kmer,
                                               bool provenance) {
  const bool flat = format_version >= 3;
  std::vector<std::string> names{kSectionMeta};
  if (flat) names.emplace_back(kSectionText);
  if (format_version < 6) names.emplace_back(kSectionBwt);
  names.emplace_back(kSectionOcc);
  names.emplace_back(kSectionSa);
  if (format_version >= 2 && kmer) names.emplace_back(kSectionKmer);
  if (format_version >= 4) names.emplace_back(kSectionEpr);
  if (flat && provenance) names.emplace_back(kSectionBuild);
  return names;
}

void save_meta_section(ByteWriter& writer, const ReferenceSet& reference,
                       std::uint32_t text_length, const std::array<std::uint32_t, 4>& c_table,
                       std::uint32_t primary, std::uint32_t format_version) {
  reference.save_table(writer);
  writer.u32(text_length);
  for (const std::uint32_t c : c_table) writer.u32(c);
  if (format_version >= 6) writer.u32(primary);
}

void save_text_section(ByteWriter& writer, const PackedText& text,
                       std::uint32_t format_version) {
  if (format_version >= 6) {
    text.save_flat(writer);
    return;
  }
  writer.u64(text.size());
  writer.pad_to(kSectionAlign);
  // One byte per base, unpacked a slice at a time.
  constexpr std::size_t kSlice = std::size_t{1} << 20;
  for (std::size_t first = 0; first < text.size(); first += kSlice) {
    writer.raw_u8(text.unpack(first, std::min(kSlice, text.size() - first)));
  }
}

void save_bwt_section(ByteWriter& writer, const Bwt& bwt, std::uint32_t format_version) {
  writer.u32(bwt.text_length);
  writer.u32(bwt.primary);
  if (format_version >= 3) {
    writer.u64(bwt.symbols.size());
    writer.pad_to(kSectionAlign);
    writer.raw_u8(bwt.symbols);
  } else {
    writer.vec_u8(bwt.symbols);
  }
}

void save_kmer_section(ByteWriter& writer, const KmerSeedTable& table,
                       std::uint32_t format_version) {
  if (format_version >= 5) {
    table.save_flat(writer);
  } else {
    table.save_intervals(writer, /*flat=*/format_version >= 3);
  }
}

void save_build_provenance(ByteWriter& writer, const BuildProvenance& provenance) {
  writer.str(provenance.builder);
  writer.u64(provenance.block_bases);
  writer.u64(provenance.merge_passes);
  writer.u64(provenance.memory_budget_bytes);
}

void write_index_archive(const std::string& path, const ReferenceSet& reference,
                         const FmIndex<RrrWaveletOcc>& index,
                         std::uint32_t format_version, const BuildProvenance* provenance) {
  if (format_version < kArchiveVersionMin || format_version > kArchiveVersionLatest) {
    throw std::invalid_argument("write_index_archive: unsupported format version " +
                                std::to_string(format_version));
  }
  const bool flat = format_version >= 3;
  const bool packed = format_version >= 6;
  const std::uint32_t n = static_cast<std::uint32_t>(index.size());
  // The raw BWT feeds the v1..v5 "bwt" section and the "epr" section, so
  // only an index built in memory can be written: one loaded from a v6
  // archive holds no raw BWT.
  const Bwt& bwt = index.bwt();
  if (bwt.symbols.size() != n) {
    throw std::invalid_argument(
        "write_index_archive: the index holds no raw BWT (loaded from a v6 archive)");
  }
  // v2+: the seed table rides along as its own checksummed section so old
  // archives stay loadable and the table stays skippable.
  const KmerSeedTable* seeds = format_version >= 2 ? index.seed_table() : nullptr;
  const bool with_provenance = flat && provenance != nullptr;

  ArchiveStreamWriter writer(
      path, format_version,
      archive_section_names(format_version, seeds != nullptr, with_provenance));
  writer.write_section(kSectionMeta, [&](ByteWriter& out) {
    save_meta_section(out, reference, n,
                      {index.c_array(0), index.c_array(1), index.c_array(2), index.c_array(3)},
                      bwt.primary, format_version);
  });
  if (flat) {
    writer.write_section(kSectionText, [&](ByteWriter& out) {
      save_text_section(out, reference.concatenated(), format_version);
    });
  }
  if (!packed) {
    writer.write_section(kSectionBwt,
                         [&](ByteWriter& out) { save_bwt_section(out, bwt, format_version); });
  }
  writer.write_section(kSectionOcc, [&](ByteWriter& out) {
    if (flat) {
      index.occ_backend().save_flat(out);
    } else {
      index.occ_backend().save(out);
    }
  });
  writer.write_section(kSectionSa, [&](ByteWriter& out) {
    const IntVector& sa = index.suffix_array();
    if (packed) {
      sa.save_flat(out);
    } else if (flat) {
      out.u64(sa.size());
      out.pad_to(kSectionAlign);
      out.raw_u32(sa.unpack_u32());
    } else {
      out.vec_u32(sa.unpack_u32());
    }
  });
  if (seeds != nullptr) {
    writer.write_section(kSectionKmer, [&](ByteWriter& out) {
      save_kmer_section(out, *seeds, format_version);
    });
  }
  // v4+: the EPR dictionary, transposed from the BWT at write time so the
  // epr engine serves straight off the archive (required from v6 on: it is
  // the only copy of the BWT's symbols there).
  if (format_version >= 4) {
    writer.write_section(kSectionEpr,
                         [&](ByteWriter& out) { EprOcc(bwt.symbols).save_flat(out); });
  }
  if (with_provenance) {
    writer.write_section(kSectionBuild,
                         [&](ByteWriter& out) { save_build_provenance(out, *provenance); });
  }
  writer.finish();
}

StoredIndex read_index_archive(const std::string& path, LoadMode mode) {
  auto file = std::make_shared<MappedFile>(path);
  // The CRC verification pass in parse_header touches every byte front to
  // back; tell the kernel so before switching to the serving access pattern.
  file->advise(MappedFile::Advice::kSequential);
  const auto bytes = file->bytes();
  const ParsedHeader header = parse_header(bytes, path);
  if (header.version >= 3) {
    const bool adopt = mode == LoadMode::kMmap;
    StoredIndex stored = load_flat_archive(bytes, header, path, adopt);
    if (adopt) {
      file->advise(MappedFile::Advice::kRandom);
      stored.backing = std::move(file);
      stored.load_mode = LoadMode::kMmap;
    }
    return stored;
  }
  // v1/v2 have no zero-copy layout: always deserialize onto the heap.
  return load_v1v2(bytes, header, path);
}

StoredIndex read_index_archive(const std::string& path) {
  return read_index_archive(path, default_load_mode());
}

ArchiveInfo read_index_archive_info(const std::string& path) {
  // Deliberately NOT a whole-file read: `index info` and registry adoption
  // run against multi-gigabyte archives (and, for the blockwise builder,
  // inside a tight memory budget), so only the header and the two small
  // metadata sections are read and checksummed. Bulk payload CRCs are
  // verified when the archive is actually loaded.
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("read_file: cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());

  const auto read_slice = [&](std::uint64_t offset,
                              std::size_t length) -> std::vector<std::uint8_t> {
    std::vector<std::uint8_t> bytes(length);
    in.seekg(static_cast<std::streamoff>(offset));
    if (length > 0 &&
        !in.read(reinterpret_cast<char*>(bytes.data()),
                 static_cast<std::streamsize>(length))) {
      throw IoError("read_file: short read from " + path);
    }
    return bytes;
  };

  // A 64-section table with names tops out well under a page; 64 KiB of
  // slack means a valid header always fits, and a header that runs off the
  // prefix fails the ByteReader bounds check exactly like a truncated file.
  const auto prefix = read_slice(
      0, static_cast<std::size_t>(std::min<std::uint64_t>(file_size, 64 * 1024)));
  const ParsedHeader header = parse_header_fields(prefix, file_size, path);

  const auto read_section = [&](const std::string& name) -> std::vector<std::uint8_t> {
    const ArchiveSection* entry = find_section_entry(header, name);
    if (entry == nullptr) {
      throw IoError("index archive: missing section '" + name + "': " + path);
    }
    auto payload = read_slice(entry->offset, static_cast<std::size_t>(entry->length));
    if (crc32_ieee(payload) != entry->crc32) {
      throw IoError("index archive: section '" + name + "' checksum mismatch: " + path);
    }
    return payload;
  };

  const auto meta_bytes = read_section(kSectionMeta);
  const ArchiveSection* meta_entry = find_section_entry(header, kSectionMeta);
  const MetaSection meta = parse_meta(
      ByteReader(meta_bytes, kSectionMeta, meta_entry->offset), header.version, path);
  ArchiveInfo info;
  info.version = header.version;
  info.file_bytes = file_size;
  info.sections = header.sections;
  info.sequences = meta.sequences;
  info.text_length = meta.text_length;
  if (header.version >= 6) {
    info.text_bits = 2;
    if (const ArchiveSection* entry = find_section_entry(header, kSectionSa)) {
      // The leading u64 count and u32 width of the IntVector layout.
      const auto head = read_slice(
          entry->offset, static_cast<std::size_t>(std::min<std::uint64_t>(entry->length, 12)));
      ByteReader reader(head, kSectionSa, entry->offset);
      reader.u64();
      info.sa_width = reader.u32();
    }
  } else {
    info.text_bits = header.version >= 3 ? 8 : 0;
    info.sa_width = 32;
  }
  if (const ArchiveSection* entry = find_section_entry(header, kSectionKmer)) {
    const auto word = read_slice(
        entry->offset, static_cast<std::size_t>(std::min<std::uint64_t>(entry->length, 4)));
    info.seed_k = ByteReader(word, kSectionKmer, entry->offset).u32();
  }
  if (const ArchiveSection* entry = find_section_entry(header, kSectionBuild)) {
    const auto build_bytes = read_section(kSectionBuild);
    ByteReader reader(build_bytes, kSectionBuild, entry->offset);
    BuildProvenance provenance;
    provenance.builder = reader.str();
    provenance.block_bases = reader.u64();
    provenance.merge_passes = reader.u64();
    provenance.memory_budget_bytes = reader.u64();
    if (!reader.done()) {
      throw IoError("index archive: trailing bytes in build section: " + path);
    }
    info.build = std::move(provenance);
  }
  return info;
}

}  // namespace bwaver
