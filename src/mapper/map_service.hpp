// The one mapping loop, over a loaded index.
//
// A served request is packed into one ReadBatch on the connection thread
// (parse_request_reads); `bwaver map` packs its FASTQ file chunk by chunk
// (Pipeline::map_reads). Either way a MappingRun then maps batch after
// batch: the engine searches runs of the batch in place (ReadSpan),
// locate_hits resolves each run's SA intervals into a flat hit list, and
// write_sam_lines writes the hits' lines straight from the batch, the hit
// and the reference into the SAM buffer.
//
// Pipeline holds its index through the same shared StoredIndex handle the
// multi-tenant web service borrows from the IndexRegistry, and both map
// through this loop — concurrently against shared, immutable indexes whose
// engines are built once (StoredIndex::engines) — so their SAM output is
// byte-identical by construction.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fmindex/reference_set.hpp"
#include "fpga/query_packet.hpp"
#include "io/fastq.hpp"
#include "mapper/pipeline.hpp"
#include "mapper/read_batch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/index_archive.hpp"
#include "util/cancellation.hpp"

namespace bwaver {

/// The SAM header of `reference`: @HD, one @SQ per sequence, @PG.
std::string sam_header(const ReferenceSet& reference);

/// One SAM line to write: a reported hit of a read, or its unmapped line.
struct SamHit {
  static constexpr std::uint32_t kUnmapped = 0xffffffffu;

  std::uint32_t read = 0;              ///< index in the batch
  std::uint32_t sequence = kUnmapped;  ///< reference sequence of the hit
  std::uint32_t position = 0;          ///< 0-based offset in that sequence
  bool reverse = false;
};

/// locate: resolves the SA intervals of `results`, the results of reads
/// [first, first + results.size()) of `batch`, into `hits` (appended in
/// read order) and adds to outcome's counters. A strand's hits are at
/// SA[row] - verified (QueryResult::fwd_verified); hits that straddle a
/// sequence boundary are dropped, at most `max_hits_per_read` are kept per
/// read, and a read with none — or flagged ambiguous() — gets one unmapped
/// line. A non-null `cancel` is polled every few thousand rows.
void locate_hits(const ReferenceSet& reference, const IntVector& suffix_array,
                 const ReadBatch& batch, std::size_t first, std::span<const QueryResult> results,
                 std::size_t max_hits_per_read, MappingOutcome& outcome, std::vector<SamHit>& hits,
                 const CancelToken* cancel = nullptr);

/// sam: appends the line of every hit to `sam`, sized once for all of them.
void write_sam_lines(const ReferenceSet& reference, const ReadBatch& batch,
                     std::span<const SamHit> hits, std::string& sam);

/// One mapping run: the engine is chosen once — the index's host engine,
/// or an FPGA model programmed once for the run — then fed batch after
/// batch. A run opens a "map_records" trace span for its lifetime.
class MappingRun {
 public:
  MappingRun(const StoredIndex& stored, const PipelineConfig& config);
  ~MappingRun();
  MappingRun(const MappingRun&) = delete;
  MappingRun& operator=(const MappingRun&) = delete;

  /// Maps `batch`, appending one SAM line per reported hit or unmapped read
  /// to `sam`. Software engines with config.threads > 1 map shards of the
  /// batch in parallel; the lines keep batch order either way. A non-null
  /// `cancel` is polled between runs of a few thousand reads and while
  /// locating; once it reports a stop the call unwinds with
  /// OperationCancelled (DELETE /jobs/{id} and job deadlines).
  void map(const ReadBatch& batch, std::string& sam, const CancelToken* cancel = nullptr);

  /// Counts `ms` of turning input into batches as stage "parse" (FASTQ text
  /// packed in one pass) or, for the records adapter, "pack".
  void add_parse_ms(double ms) noexcept;
  void add_pack_ms(double ms) noexcept;

  /// Counters and stage times of the batches so far (its sam stays empty).
  const MappingOutcome& outcome() const noexcept { return outcome_; }

  /// Engine time so far: wall-clock for host engines, modeled for the FPGA
  /// (its program time counted once).
  double mapping_seconds() const noexcept { return seconds_; }

  /// Records the stage split in the ambient metrics registry
  /// (bwaver_map_stage_seconds) and as stage spans under the run's span in
  /// the ambient trace. Call once, after the last batch.
  void publish() const;

 private:
  /// Search, locate and sam of reads [first, first + count) on this
  /// thread; returns the engine's seconds. Touches no member but the FPGA
  /// model's, so shards of a host engine run it concurrently.
  double map_range(const ReadBatch& batch, std::size_t first, std::size_t count, std::string& sam,
                   MappingOutcome& outcome, std::vector<SamHit>& hits, const CancelToken* cancel);
  void map_sharded(const ReadBatch& batch, std::string& sam, const CancelToken* cancel);

  const StoredIndex& stored_;
  const PipelineConfig config_;
  obs::TraceSpan span_;
  obs::ObsContext context_;  ///< snapshot for shard workers and publish()
  const HostEngine* host_ = nullptr;
  std::unique_ptr<BwaverFpgaMapper> fpga_;
  FpgaMapReport fpga_total_;  ///< modeled device phases across batches
  MappingOutcome outcome_;
  std::vector<SamHit> hits_;
  double seconds_ = 0.0;
  std::uint64_t shards_ = 0;  ///< parallel shards dispatched so far
  bool parsed_ = false;
  bool packed_ = false;
};

/// Maps one batch — a served request — and renders the SAM document
/// (header and lines) into the outcome, publishing its stages. If
/// `mapping_seconds` is non-null it receives the engine's wall-clock (host)
/// or modeled (FPGA) time.
MappingOutcome map_batch_over(const StoredIndex& stored, const PipelineConfig& config,
                              const ReadBatch& batch, double* mapping_seconds = nullptr,
                              const CancelToken* cancel = nullptr);

/// The records adapter: packs `records` (stage "pack") and maps them as one
/// batch, exactly as map_batch_over. Kept for tests and benches that hold
/// parsed records.
MappingOutcome map_records_over(const StoredIndex& stored, const PipelineConfig& config,
                                const std::vector<FastqRecord>& records,
                                double* mapping_seconds = nullptr,
                                const CancelToken* cancel = nullptr);

/// Packs a FASTQ(.gz) request body on the calling (connection) thread, so
/// a malformed body gets a 400 before anything is queued, and records the
/// time in `metrics` as stage "parse" of `engine`. Throws IoError.
std::shared_ptr<const ReadBatch> parse_request_reads(std::span<const std::uint8_t> body,
                                                     MappingEngine engine,
                                                     obs::MetricsRegistry& metrics);

}  // namespace bwaver
