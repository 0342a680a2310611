// The BWaveR hybrid workflow (paper, Sec. III-D / Fig. 4), three steps:
//
//   1. "BWT and SA computation" — parse the (optionally gzipped) FASTA,
//      compute the suffix array and BWT, persist them to an index file;
//   2. "BWT encoding"           — build the succinct RRR-wavelet-tree
//      structure from the stored BWT;
//   3. "Sequence mapping"       — map the (optionally gzipped) FASTQ reads
//      and their reverse complements, resolve SA intervals to positions on
//      the host, and emit SAM.
//
// Steps 1-2 and all memory management run on the host CPU; step 3 is
// dispatched to the selected engine (the FPGA model, or one of the host
// engines of the index's engine table — mapper/engine_set.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fmindex/fm_index.hpp"
#include "fmindex/occ_backends.hpp"
#include "fmindex/reference_set.hpp"
#include "fpga/device_spec.hpp"
#include "io/fasta.hpp"
#include "io/sam.hpp"
#include "kernels/registry.hpp"
#include "mapper/fpga_mapper.hpp"
#include "mapper/software_mapper.hpp"
#include "store/index_archive.hpp"

namespace bwaver {

struct PipelineConfig {
  RrrParams rrr{};
  MappingEngine engine = MappingEngine::kFpga;
  unsigned threads = 1;              ///< software engines only
  DeviceSpec device{};               ///< FPGA engine only
  std::size_t max_hits_per_read = 64;  ///< SAM lines emitted per read (cap)
  /// Requested k-mer seed length for new index builds. No value sizes k
  /// from the reference (KmerSeedTable::budget_k: at most 2 bytes/base);
  /// an explicit k is capped by reference size (KmerSeedTable::capped_k),
  /// and 0 disables the table. Ignored by from_archive(): a loaded archive
  /// carries (or lacks) its own table.
  std::optional<unsigned> seed_k;
  /// Reads per parallel mapping shard for software engines (0 = auto-size
  /// from the batch and thread count). Only used when threads > 1.
  std::size_t shard_size = 0;
  /// FPGA engine only: re-derive every Nth kernel result through the
  /// host-side seeded search and fail on disagreement (0 disables). See
  /// BwaverFpgaMapper::host_verify_stride.
  std::size_t fpga_verify_stride = 0;
  /// Peak-memory target for build_archive() in bytes (0 = unbounded). When
  /// the direct path's estimated peak exceeds it, the build switches to the
  /// memory-bounded blockwise constructor (src/build/build_plan.hpp).
  std::size_t build_memory_budget_bytes = 0;
  /// Explicit blockwise block size in bases for build_archive(); non-zero
  /// forces the blockwise path (0 = derive from the budget).
  std::size_t build_block_bases = 0;
  /// Appends the optional "build" provenance section (builder, block size,
  /// merge passes, budget) to archives written by build_archive(). Off by
  /// default: provenance-free output stays byte-identical to save_index().
  bool build_provenance = false;
};

/// What Pipeline::build_archive() did: which constructor ran and its scale.
struct BuildArchiveResult {
  bool blockwise = false;
  std::size_t block_bases = 0;          ///< 0 on the direct path
  std::size_t merge_passes = 0;         ///< 0 on the direct path
  std::uint64_t bytes_written = 0;      ///< final archive size
  std::size_t estimated_peak_bytes = 0; ///< planner's estimate for the chosen path
};

struct PipelineTimings {
  double bwt_sa_seconds = 0.0;
  double encode_seconds = 0.0;
  double mapping_seconds = 0.0;  ///< wall-clock (software) or modeled (FPGA)
};

/// Parsed FASTA records as the reference every index is built over: each
/// record becomes one sequence, its bases 2-bit coded with invalid ones
/// (N, IUPAC codes) substituted.
ReferenceSet reference_from_fasta(const std::vector<FastaRecord>& records);

/// The one in-memory builder of a servable index — steps 1 and 2 of the
/// workflow over `text`: the suffix array and BWT, then the k-mer seed
/// table at KmerSeedTable::resolve_k(config.seed_k, n) and the RRR Occ with
/// config.rrr. `index build`, the web service's uploads and rollovers, and
/// the Pipeline all build through it, so they serve the same structures.
/// SA-IS reads the 2-bit text in place; the 4-byte SA is handed back page
/// by page as it is packed, before the BWT is drawn from the packed forms
/// and the seed table is counted from the 2-bit text. The peak is ~4.5
/// bytes per base beside the seed table (docs/index_store.md gives the
/// measured phases).
/// `timings`, when given, receives the step 1 / step 2 split.
FmIndex<RrrWaveletOcc> build_fm_index(const PackedText& text, const PipelineConfig& config,
                                      PipelineTimings* timings = nullptr);

/// Step 2 alone, from step 1's `sa` and `bwt` of `text` (the index file
/// Pipeline::encode reads).
FmIndex<RrrWaveletOcc> build_fm_index(std::span<const std::uint8_t> text,
                                      std::vector<std::uint32_t> sa, Bwt bwt,
                                      const PipelineConfig& config);

/// build_fm_index() over `reference`, as the handle a registry installs.
StoredIndex build_stored_index(ReferenceSet reference, const PipelineConfig& config,
                               PipelineTimings* timings = nullptr);

/// Per-stage decomposition of one mapping run (milliseconds). parse covers
/// packing FASTQ text into read batches in one pass (`bwaver map`; a served
/// request is parsed on its connection thread, outside the run), pack the
/// records adapter's FastqRecord -> ReadBatch conversion, search the
/// engine's backward search (wall-clock for software, modeled for the
/// FPGA), locate the SA-interval -> position resolution, sam the SAM
/// rendering. On the sharded path search/locate/sam are summed CPU time
/// across shards, so total_ms() can exceed the wall clock; at threads == 1
/// it tracks it.
struct MappingStageTimings {
  double parse_ms = 0.0;
  double pack_ms = 0.0;
  double search_ms = 0.0;
  double locate_ms = 0.0;
  double sam_ms = 0.0;

  double total_ms() const noexcept {
    return parse_ms + pack_ms + search_ms + locate_ms + sam_ms;
  }

  MappingStageTimings& operator+=(const MappingStageTimings& other) noexcept {
    parse_ms += other.parse_ms;
    pack_ms += other.pack_ms;
    search_ms += other.search_ms;
    locate_ms += other.locate_ms;
    sam_ms += other.sam_ms;
    return *this;
  }
};

struct MappingOutcome {
  std::uint64_t reads = 0;
  std::uint64_t mapped = 0;
  std::uint64_t occurrences = 0;  ///< total located positions, both strands
  std::uint64_t shards = 1;       ///< parallel shards dispatched (1 = sequential)
  MappingStageTimings stages;     ///< per-stage timing split
  SweepStats sweep;               ///< sweep-scheduler counters (zero per-read)
  std::string sam;                ///< rendered SAM document (see map_reads)
};

class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config = PipelineConfig{}) : config_(config) {}

  /// Step 1. Reads `fasta_path` (every record becomes a reference
  /// sequence; multi-chromosome references are concatenated, BWA-style),
  /// computes SA + BWT and writes them to `index_path`. Returns the first
  /// sequence's name.
  std::string compute_bwt_sa(const std::string& fasta_path,
                             const std::string& index_path);

  /// Step 2. Loads an index file and builds the succinct structure.
  void encode(const std::string& index_path);

  /// Steps 1+2 without touching disk (used by tests and benches).
  void build_from_sequence(const std::string& name, const std::string& bases);

  /// Steps 1+2 over parsed multi-sequence FASTA records.
  void build_from_records(const std::vector<FastaRecord>& records);

  /// Writes the complete built index (reference metadata, C table, succinct
  /// structure, suffix array) to a checksummed archive (see
  /// store/index_archive.hpp). Requires encode()/build_from_*() first.
  void save_index(const std::string& path) const;

  /// Builds an index over `reference` and writes it straight to an archive
  /// at `path` without retaining a resident pipeline — the `index build`
  /// path. Honors config.build_memory_budget_bytes / build_block_bases:
  /// when the direct build would exceed the budget (or a block size is
  /// forced) the memory-bounded blockwise constructor streams the archive
  /// instead (see src/build/blockwise_builder.hpp); both paths produce
  /// byte-identical files and write temp + fsync + atomic rename.
  /// `progress` (optional) receives human-readable status lines.
  static BuildArchiveResult build_archive(
      const std::string& path, const ReferenceSet& reference,
      const PipelineConfig& config,
      const std::function<void(const std::string&)>& progress = {});

  /// Loads a pipeline from an archive written by save_index() — no
  /// construction work is redone, so this is the fast deployment path. The
  /// RRR parameters in `config` are ignored (they come from the archive).
  /// `load_mode` selects copy vs zero-copy mmap loading for v3 archives
  /// (v1/v2 always copy); an mmap-backed pipeline keeps the file mapped for
  /// its lifetime.
  static Pipeline from_archive(const std::string& path,
                               PipelineConfig config = PipelineConfig{},
                               LoadMode load_mode = default_load_mode());

  /// FASTQ bytes map_reads() reads per chunk by default.
  static constexpr std::size_t kDefaultChunkBytes = std::size_t{4} << 20;

  /// Step 3. Maps the FASTQ(.gz) reads in `fastq_path` in chunks of
  /// `chunk_bytes` (each packed in one pass and mapped by the same engine
  /// instance: the index's host engine, or one FPGA model programmed once,
  /// so the fixed overhead is paid once). SAM goes to `sam_path` chunk by
  /// chunk, so memory stays flat however many reads the file holds; with no
  /// path it collects in the outcome's `sam`. Requires
  /// encode()/build_from_*() first.
  MappingOutcome map_reads(const std::string& fastq_path, const std::string& sam_path = "",
                           std::size_t chunk_bytes = kDefaultChunkBytes);

  /// Step 3 over in-memory records (the records adapter).
  MappingOutcome map_records(const std::vector<FastqRecord>& records);

  bool ready() const noexcept { return stored_ != nullptr; }
  const PipelineTimings& timings() const noexcept { return timings_; }
  /// The loaded index with its engine table — the same handle type the
  /// IndexRegistry serves. Null before encode()/build_from_*()/from_archive().
  const std::shared_ptr<const StoredIndex>& stored() const noexcept { return stored_; }
  const FmIndex<RrrWaveletOcc>& index() const { return stored_->index; }
  const ReferenceSet& reference() const { return stored_->reference; }
  /// Name of the first reference sequence.
  const std::string& reference_name() const {
    return reference().sequence(0).name;
  }

  /// Serialized index-file helpers (exposed for tests).
  static void save_index_file(const std::string& path, const ReferenceSet& reference,
                              const Bwt& bwt, const std::vector<std::uint32_t>& sa);
  static void load_index_file(const std::string& path, ReferenceSet& reference,
                              Bwt& bwt, std::vector<std::uint32_t>& sa);

 private:
  PipelineConfig config_;
  PipelineTimings timings_;
  std::shared_ptr<const StoredIndex> stored_;
};

}  // namespace bwaver
