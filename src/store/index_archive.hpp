// Versioned on-disk archive of one fully built BWaveR index.
//
// The paper's pipeline rebuilds BWT + SA + the succinct structure for every
// deployment; the archive makes the build-once/load-many split explicit: a
// reference is indexed once (`bwaver index build`, POST /reference) and the
// complete structure — reference metadata, C table, RRR-wavelet-tree Occ
// backend and the suffix array — is written as independently checksummed
// sections, so loading skips every construction step and corruption is
// detected before an index is served.
//
// Layout (all integers little-endian):
//
//   u32 magic   "BWVA"
//   u32 version (currently 6; v1..v5 archives still load)
//   u32 section_count
//   section table, section_count entries:
//     str name | u64 file offset | u64 length | u32 crc32 (IEEE, of payload)
//   u32 crc32 of every header byte above
//   section payloads, in table order
//
// v1 sections, each a self-contained ByteWriter stream:
//   "meta" — sequence table (name/offset/length per sequence), text length,
//            and the 4-entry C table (validated against the loaded BWT);
//   "bwt"  — text_length, primary row, squeezed BWT symbols;
//   "occ"  — the serialized RrrWaveletOcc (params + wavelet tree of RRR);
//   "sa"   — the (n+1)-entry suffix array.
//
// v2 adds one OPTIONAL section:
//   "kmer" — the serialized KmerSeedTable (seed length k plus 4^k SA
//            intervals). Absent when the index was built with seeding
//            disabled; v1 archives (no such section) load with searches
//            falling back to the classic recurrence.
//
// v3 (zero-copy layout) keeps the same header but changes the payloads:
//
//   * every section's file offset is rounded up to 64 bytes (zero padding
//     between payloads; section CRCs cover payload bytes only);
//   * inside each section, every bulk array is written as `count` (or the
//     structure's scalars), zero padding to the next 64-byte boundary, then
//     the raw little-endian element words exactly as the in-memory
//     containers hold them — so with 64-aligned section offsets every array
//     is 64-byte aligned in the file and naturally aligned for its element
//     type;
//   * a new "text" section stores the concatenated 2-bit reference codes,
//     so loading skips the O(n) inverse-BWT reconstruction that v1/v2 pay.
//
// v4 adds one OPTIONAL flat section:
//   "epr"  — the bit-transposed EPR dictionary (EprOcc) over the same BWT,
//            so serving with --engine epr adopts the constant-time rank
//            structure straight from the file instead of re-transposing the
//            BWT at load. v3 archives (no such section) still load; the epr
//            engine then transposes the BWT once per loaded index.
//
// v5 changes the "kmer" payload (same name, same optionality) from two
// arrays of 4^k interval starts and ends to ONE flat array of 4^k + 1 run
// boundaries (KmerSeedTable::save_flat; fmindex/kmer_table.hpp gives the
// rule), half the bytes. The codes of the <= k-1 suffixes shorter than k
// come from the "text" section's tail, so they are not stored. v2..v4
// tables are converted to boundaries on the heap at load; tables of every
// version are checked against the text's SA row count before serving.
//
// v6 stores each served section at its information width:
//
//   * "text" holds 2-bit codes in IntVector's flat layout (u64 count, u32
//     width 2, zero padding to 64 bytes, the raw words; PackedText) —
//     0.25 B/base instead of 1;
//   * "sa" holds the n + 1 entries at suffix_array_width(n) =
//     ceil(log2(n + 1)) bits in the same layout (23 bits on E. coli, 26 on
//     chr21) — 2.875 / 3.25 B/base instead of 4;
//   * there is no "bwt" section: "meta" gains a trailing u32 primary row,
//     and the now REQUIRED "epr" section is the only copy of the symbols
//     (the `sampled` engine decodes its BWT from it once per engine build).
//
// Loads of v3..v5 archives pack their byte text and 4-byte suffix array
// onto the heap (in both modes) and keep their "bwt" section at its own
// width, so every engine serves one text and one suffix-array layout.
//
// A v3+ archive can therefore be loaded two ways (LoadMode):
//
//   kCopy — the flat arrays are copied into heap vectors (like v1/v2);
//   kMmap — the file is mapped read-only and every flat array is adopted
//           in place (FlatArray views); the map is retained by
//           StoredIndex::backing and unmapped when the index is dropped.
//
// Per-section CRCs are verified at open in BOTH modes, before anything is
// served. v1/v2 archives always load through the copy path. Any truncation,
// bad magic, unknown version, or checksum mismatch raises IoError.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fmindex/epr_occ.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/occ_backends.hpp"
#include "fmindex/reference_set.hpp"
#include "io/byte_io.hpp"
#include "io/mapped_file.hpp"
#include "mapper/engine_set.hpp"

namespace bwaver {

/// How read_index_archive materializes section payloads (v3 archives only;
/// older formats always deserialize element-wise onto the heap).
enum class LoadMode {
  kCopy,  ///< copy payloads into heap-owned containers
  kMmap,  ///< map the file read-only and adopt the flat arrays zero-copy
};

/// Process default: $BWAVER_LOAD_MODE ("mmap" or "copy"), else kCopy.
LoadMode default_load_mode();

/// "mmap"/"copy" -> LoadMode; nullopt for anything else (CLI parsing).
std::optional<LoadMode> parse_load_mode(std::string_view name);

/// Stable name for stats/logs.
const char* load_mode_name(LoadMode mode);

/// A complete loaded index: what the registry hands to concurrent readers.
struct StoredIndex {
  ReferenceSet reference;
  FmIndex<RrrWaveletOcc> index;
  /// The "epr" section (v4+, always from v6): the EPR dictionary over the
  /// same BWT, served zero-copy (mmap loads alias the file). Null for v1..v3
  /// archives and in-memory builds — the epr engine then transposes the BWT
  /// once, when built.
  std::shared_ptr<const EprOcc> epr;
  /// Keeps the mapped archive alive while any structure views into it;
  /// null for heap-owned (copy/v1/v2) loads. Destroying the last reference
  /// unmaps the file.
  std::shared_ptr<const MappedFile> backing;
  /// Mode the index was actually loaded with (kCopy for v1/v2 archives
  /// regardless of the requested mode).
  LoadMode load_mode = LoadMode::kCopy;
  /// The host engines over this index, each built once on first use.
  /// Declared last so the engines are destroyed before what they view.
  EngineSet engines{};

  /// The host engine `engine` over this index (see EngineSet::get).
  const HostEngine& engine(MappingEngine engine) const {
    return engines.get(engine, *this);
  }
};

/// Resident footprint of a loaded index, split by where the bytes live.
/// Mapped pages are clean and reclaimable by the OS, so budget accounting
/// weighs them differently from heap bytes (see IndexRegistry).
struct IndexFootprint {
  std::size_t heap_bytes = 0;    ///< private, unevictable allocations
  std::size_t mapped_bytes = 0;  ///< file-backed pages adopted zero-copy
  std::size_t total() const noexcept { return heap_bytes + mapped_bytes; }
};

IndexFootprint stored_index_footprint(const StoredIndex& stored);

/// Approximate resident footprint (heap + mapped) of a loaded index — the
/// historical single-number form; equals stored_index_footprint().total().
std::size_t stored_index_bytes(const StoredIndex& stored);

/// Resident bytes of one section of a loaded index.
struct SectionFootprint {
  const char* name = "";       ///< the archive's section name
  std::size_t bytes = 0;       ///< payload, heap or mapped
  std::size_t heap_bytes = 0;  ///< the part on the heap (<= bytes)
};

/// The bulk sections of a loaded index, named as the archive names them:
/// text, bwt (only when the raw BWT is held: not for a v6 load), occ, sa,
/// then kmer and epr when present. Their sum is stored_index_footprint().
std::vector<SectionFootprint> stored_index_sections(const StoredIndex& stored);

struct ArchiveSection {
  std::string name;
  std::uint64_t offset = 0;  ///< absolute file offset of the payload
  std::uint64_t length = 0;
  std::uint32_t crc32 = 0;
};

/// Builder provenance recorded in the OPTIONAL "build" section (opt-in:
/// archives with and without it differ byte-for-byte, and the blockwise
/// byte-identity guarantee is stated over archives written with the same
/// provenance setting). Loaders ignore unknown sections, so provenance-
/// carrying archives load under every reader since v3.
struct BuildProvenance {
  std::string builder;                    ///< "direct" or "blockwise"
  std::uint64_t block_bases = 0;          ///< blockwise block size (0 for direct)
  std::uint64_t merge_passes = 0;         ///< rank-interleave merges performed
  std::uint64_t memory_budget_bytes = 0;  ///< requested budget (0 = unbounded)
};

struct ArchiveInfo {
  std::uint32_t version = 0;
  std::uint64_t file_bytes = 0;
  std::vector<ArchiveSection> sections;
  std::vector<ReferenceSet::Sequence> sequences;  ///< from the meta section
  std::uint32_t text_length = 0;
  /// Present when the archive carries a "build" section.
  std::optional<BuildProvenance> build;
  /// Seed length of the "kmer" section (0 when there is none), read from
  /// the section's leading word; its payload CRC is checked at load.
  std::uint32_t seed_k = 0;
  /// Bits per suffix-array entry as stored: the "sa" section's width field
  /// from v6 on, 32 before.
  std::uint32_t sa_width = 0;
  /// Bits per base of the "text" section: 2 from v6 on, 8 for v3..v5, 0
  /// for v1/v2 (no text section; the text is recovered from the BWT).
  std::uint32_t text_bits = 0;
};

/// Oldest archive format the loader still accepts (no "kmer" section).
inline constexpr std::uint32_t kArchiveVersionMin = 1;
/// Format written by write_index_archive and the blockwise builder: flat
/// 64-byte-aligned sections, the 2-bit text, the bit-packed suffix array,
/// the required "epr" dictionary, no raw BWT, and the boundary-array "kmer"
/// section.
inline constexpr std::uint32_t kArchiveVersionLatest = 6;

/// Canonical section names. The loader resolves sections by name and ignores
/// unknown ones, so writers may append new optional sections freely.
inline constexpr const char* kSectionMeta = "meta";
inline constexpr const char* kSectionText = "text";    // v3+; 2 bits/base from v6
inline constexpr const char* kSectionBwt = "bwt";      // v1..v5 only
inline constexpr const char* kSectionOcc = "occ";
inline constexpr const char* kSectionSa = "sa";
inline constexpr const char* kSectionKmer = "kmer";    // optional, v2+
inline constexpr const char* kSectionEpr = "epr";      // v4+; required from v6
inline constexpr const char* kSectionBuild = "build";  // optional provenance

/// v3+ sections start on 64-byte file offsets so the flat arrays inside
/// (themselves padded to 64 within the section) are absolutely aligned.
inline constexpr std::uint64_t kSectionAlign = 64;

/// One planned section for header rendering: its name plus the payload's
/// final byte length and CRC32 (IEEE, of the payload bytes only).
struct ArchiveSectionPlan {
  std::string name;
  std::uint64_t length = 0;
  std::uint32_t crc32 = 0;
};

/// Absolute file offset of the byte right after the header CRC for a header
/// naming these sections — where the first payload would start before any
/// section alignment. Depends only on the section names, so a streaming
/// writer can lay out payloads before their lengths and CRCs are known.
std::uint64_t archive_payload_start(std::span<const ArchiveSectionPlan> sections);

/// Renders the complete archive header (magic, version, section table with
/// 64-byte-aligned offsets for flat formats, header CRC) — what
/// ArchiveStreamWriter back-fills once every payload is written.
std::vector<std::uint8_t> render_archive_header(std::uint32_t format_version,
                                                std::span<const ArchiveSectionPlan> sections);

/// The sections an archive of `format_version` carries, in file order:
/// meta, text (v3+), bwt (v1..v5), occ, sa, then kmer (v2+, with a seed
/// table), epr (v4+) and build (v3+, with provenance).
std::vector<std::string> archive_section_names(std::uint32_t format_version, bool kmer,
                                               bool provenance);

/// Serializes the "meta" section payload: the sequence table, the text
/// length and the C table, then (v6+) the BWT's primary row.
void save_meta_section(ByteWriter& writer, const ReferenceSet& reference,
                       std::uint32_t text_length, const std::array<std::uint32_t, 4>& c_table,
                       std::uint32_t primary, std::uint32_t format_version);

/// Serializes the "text" section payload (v3+): the 2-bit codes in
/// IntVector's flat layout from v6, one byte per base before.
void save_text_section(ByteWriter& writer, const PackedText& text, std::uint32_t format_version);

/// Serializes the "bwt" section payload (v1..v5): text length, primary
/// row and the squeezed symbols (a flat array from v3).
void save_bwt_section(ByteWriter& writer, const Bwt& bwt, std::uint32_t format_version);

/// Serializes the "kmer" section payload in the layout of `format_version`
/// (v5: boundaries; v3/v4: two flat interval arrays; v2: two streams).
void save_kmer_section(ByteWriter& writer, const KmerSeedTable& table,
                       std::uint32_t format_version);

/// Serializes the "build" section payload (see BuildProvenance).
void save_build_provenance(ByteWriter& writer, const BuildProvenance& provenance);

/// Serializes a built index to `path` via a temp file + fsync + atomic
/// rename, so a crash mid-write never leaves a torn archive under the final
/// name. Each section streams through ArchiveStreamWriter as it is
/// rendered, so no copy of the archive is held in memory (the "epr"
/// section's dictionary, ~0.5 B/base, is the one structure built for the
/// write). Takes components by reference: FmIndex is move-only, and the
/// writer only reads. `format_version` exists for backward-compat tests: writing
/// kArchiveVersionMin produces a v1 archive (the index's seed table, if any,
/// is omitted). A non-null `provenance` appends the optional "build" section
/// (v3+ only). Throws std::invalid_argument for an index that holds no raw
/// BWT (one loaded from a v6 archive): every format's "epr" or "bwt" section
/// is written from it.
void write_index_archive(const std::string& path, const ReferenceSet& reference,
                         const FmIndex<RrrWaveletOcc>& index,
                         std::uint32_t format_version = kArchiveVersionLatest,
                         const BuildProvenance* provenance = nullptr);

/// Loads and fully validates an archive. Throws IoError on any truncation,
/// bad magic, version mismatch, checksum failure, or cross-section
/// inconsistency — in both load modes, before anything is served.
StoredIndex read_index_archive(const std::string& path, LoadMode mode);

/// Same, with the process default mode (see default_load_mode()).
StoredIndex read_index_archive(const std::string& path);

/// Header + section table + meta/build sections (and the kmer section's
/// k word) only — the `index info` and registry-adoption path. Reads
/// O(header) bytes regardless of archive size: the header CRC, the section
/// bounds and the CRCs of the sections it parses are verified; bulk payload
/// CRCs are checked when the archive is loaded.
ArchiveInfo read_index_archive_info(const std::string& path);

}  // namespace bwaver
