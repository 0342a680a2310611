#include "mapper/map_service.hpp"

#include <algorithm>
#include <memory>

#include "mapper/fpga_mapper.hpp"
#include "mapper/software_mapper.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace bwaver {

namespace {

/// Reads dispatched to the engine between cancellation checkpoints. Large
/// enough that the per-run engine call amortizes, small enough that a
/// DELETE /jobs/{id} or deadline takes effect promptly.
constexpr std::size_t kCancellableChunk = 2048;

/// Rows resolved between checkpoints inside one run.
constexpr std::size_t kResolveCheckStride = 1024;

/// Results whose first suffix-array rows locate prefetches ahead of itself.
constexpr std::size_t kLocatePrefetch = 8;

/// Smallest worthwhile parallel shard: below this the batch/dispatch
/// overhead beats the parallelism.
constexpr std::size_t kMinShardSize = 64;

/// Reads per shard for the parallel software path. Auto mode aims for a
/// few shards per worker (load balancing without excessive per-shard
/// overhead); a cancel token caps the shard so cancellation latency stays
/// bounded like the sequential chunked path.
std::size_t effective_shard_size(std::size_t total, unsigned threads,
                                 std::size_t configured, bool cancellable) {
  std::size_t shard = configured;
  if (shard == 0) {
    const std::size_t target_shards = static_cast<std::size_t>(threads) * 4;
    shard = std::max(kMinShardSize, (total + target_shards - 1) / target_shards);
  }
  if (cancellable) shard = std::min(shard, kCancellableChunk);
  return std::max<std::size_t>(shard, 1);
}

/// Stage-latency bucket ladder (seconds): finer than the request-latency
/// ladder because stage splits of small batches live in the 10 µs .. 100 ms
/// range.
std::vector<double> stage_time_bounds() {
  return {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0};
}

void observe_stage(obs::MetricsRegistry& metrics, const char* engine, const char* stage,
                   double ms) {
  metrics
      .histogram("bwaver_map_stage_seconds", "Per-stage mapping time, by engine and stage",
                 stage_time_bounds(), {{"engine", engine}, {"stage", stage}})
      .observe_ms(ms);
}

void publish_sweep(obs::MetricsRegistry& metrics, const char* engine,
                   const SweepStats& sweep) {
  const obs::Labels labels{{"engine", engine}};
  metrics
      .counter("bwaver_sweep_batches_total",
               "Sweep-scheduler invocations (one per shard or chunk)", labels)
      .inc(sweep.batches);
  metrics
      .counter("bwaver_sweep_passes_total",
               "Step sweeps over the in-flight state pool (search depth)", labels)
      .inc(sweep.passes);
  metrics
      .counter("bwaver_sweep_state_steps_total",
               "Single-read search steps executed by the sweep scheduler", labels)
      .inc(sweep.state_steps);
  metrics
      .counter("bwaver_sweep_verified_total",
               "Searches the sweep finished against the reference text at a "
               "one-row interval",
               labels)
      .inc(sweep.verified);
  metrics
      .counter("bwaver_sweep_seed_misses_total",
               "Searches the sweep retired as no hit at an absent seed k-mer", labels)
      .inc(sweep.seed_misses);
  metrics
      .gauge("bwaver_sweep_peak_active",
             "Largest in-flight state pool of the latest sweep run (batch occupancy)",
             labels)
      .set(static_cast<double>(sweep.peak_active));
}

}  // namespace

std::string sam_header(const ReferenceSet& reference) {
  std::vector<SamSequence> sequences;
  sequences.reserve(reference.num_sequences());
  for (const auto& seq : reference.sequences()) {
    sequences.push_back(SamSequence{seq.name, seq.length});
  }
  return format_sam_header(sequences);
}

void locate_hits(const ReferenceSet& reference, const IntVector& suffix_array,
                 const ReadBatch& batch, std::size_t first, std::span<const QueryResult> results,
                 std::size_t max_hits_per_read, MappingOutcome& outcome, std::vector<SamHit>& hits,
                 const CancelToken* cancel) {
  // Most reads hit one row, so the SA load of each result is a cache miss
  // of its own; issuing it a few results early overlaps them.
  const auto prefetch = [&](const QueryResult& result) {
    if (result.fwd_lo < result.fwd_hi) suffix_array.prefetch(result.fwd_lo);
    if (result.rev_lo < result.rev_hi) suffix_array.prefetch(result.rev_lo);
  };
  for (std::size_t i = 0; i < std::min(kLocatePrefetch, results.size()); ++i) {
    prefetch(results[i]);
  }
  outcome.reads += results.size();
  hits.reserve(hits.size() + results.size());
  std::size_t since_check = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i + kLocatePrefetch < results.size()) prefetch(results[i + kLocatePrefetch]);
    if (cancel != nullptr && ++since_check >= kResolveCheckStride) {
      since_check = 0;
      cancel->throw_if_stopped();
    }
    const QueryResult& result = results[i];
    const auto read = static_cast<std::uint32_t>(first + result.id);
    const auto read_length = static_cast<std::uint32_t>(batch.read(read).size());
    // A read with a base outside ACGTU is never an exact hit, whatever its
    // substituted codes matched.
    const bool ambiguous = batch.ambiguous(read);
    std::size_t survivors = 0;
    std::size_t emitted = 0;
    for (int strand = 0; strand < 2 && !ambiguous; ++strand) {
      const bool reverse = strand == 1;
      const std::uint32_t lo = reverse ? result.rev_lo : result.fwd_lo;
      const std::uint32_t hi = reverse ? result.rev_hi : result.fwd_hi;
      const std::uint32_t verified = reverse ? result.rev_verified : result.fwd_verified;
      for (std::uint32_t row = lo; row < hi; ++row) {
        // resolve_span bounds the position: an entry past the text, or one
        // below `verified`, wraps to no sequence.
        const auto position = static_cast<std::uint32_t>(suffix_array.get(row)) - verified;
        const auto local = reference.resolve_span(position, read_length);
        if (!local) continue;  // straddles a sequence boundary
        ++survivors;
        if (emitted < max_hits_per_read) {
          hits.push_back(SamHit{read, local->sequence_index, local->offset, reverse});
          ++emitted;
        }
      }
    }
    outcome.occurrences += survivors;
    if (survivors == 0) {
      hits.push_back(SamHit{read, SamHit::kUnmapped, 0, false});
    } else {
      ++outcome.mapped;
    }
  }
}

void write_sam_lines(const ReferenceSet& reference, const ReadBatch& batch,
                     std::span<const SamHit> hits, std::string& sam) {
  const auto& sequences = reference.sequences();
  std::size_t bound = 0;
  for (const SamHit& hit : hits) {
    bound += kSamLineBytes + batch.name(hit.read).size();
    if (hit.sequence != SamHit::kUnmapped) bound += sequences[hit.sequence].name.size();
  }
  const std::size_t start = sam.size();
  sam.resize(start + bound);
  char* const begin = sam.data() + start;
  char* out = begin;
  for (const SamHit& hit : hits) {
    if (hit.sequence == SamHit::kUnmapped) {
      out = write_sam_unmapped(out, batch.name(hit.read));
    } else {
      out = write_sam_mapped(out, batch.name(hit.read), hit.reverse,
                             sequences[hit.sequence].name, hit.position,
                             static_cast<std::uint32_t>(batch.read(hit.read).size()));
    }
  }
  sam.resize(start + static_cast<std::size_t>(out - begin));
}

MappingRun::MappingRun(const StoredIndex& stored, const PipelineConfig& config)
    : stored_(stored), config_(config), span_("map_records"), context_(obs::current_context()) {
  // A host engine comes from the index's engine table: built by the first
  // call that needs it, then shared. The FPGA model is programmed once for
  // the run and fed batch by batch.
  if (kernels::engine_spec(config.engine).device_model) {
    fpga_ = std::make_unique<BwaverFpgaMapper>(stored.index, config.device, 8192,
                                               config.fpga_verify_stride);
  } else {
    host_ = &stored.engine(config.engine);
  }
}

MappingRun::~MappingRun() = default;

void MappingRun::add_parse_ms(double ms) noexcept {
  outcome_.stages.parse_ms += ms;
  parsed_ = true;
}

void MappingRun::add_pack_ms(double ms) noexcept {
  outcome_.stages.pack_ms += ms;
  packed_ = true;
}

void MappingRun::map(const ReadBatch& batch, std::string& sam, const CancelToken* cancel) {
  if (cancel != nullptr) cancel->throw_if_stopped();
  if (host_ != nullptr && config_.threads > 1 && batch.size() > 1) {
    map_sharded(batch, sam, cancel);
    return;
  }
  // One line per read is the common case: size the buffer for that once,
  // so the runs below append without reallocating.
  std::size_t longest_rname = 0;
  for (const auto& sequence : stored_.reference.sequences()) {
    longest_rname = std::max(longest_rname, sequence.name.size());
  }
  sam.reserve(sam.size() + batch.size() * (kSamLineBytes + longest_rname) + batch.name_bytes());
  // With no cancel token the batch goes to the engine whole; with one,
  // each run boundary is a checkpoint.
  const std::size_t chunk =
      cancel == nullptr ? std::max<std::size_t>(batch.size(), 1) : kCancellableChunk;
  for (std::size_t first = 0; first < batch.size(); first += chunk) {
    if (cancel != nullptr) cancel->throw_if_stopped();
    seconds_ += map_range(batch, first, std::min(chunk, batch.size() - first), sam,
                          outcome_, hits_, cancel);
  }
}

double MappingRun::map_range(const ReadBatch& batch, std::size_t first, std::size_t count,
                             std::string& sam, MappingOutcome& outcome, std::vector<SamHit>& hits,
                             const CancelToken* cancel) {
  const ReadSpan reads = batch.reads(first, count);
  WallTimer timer;
  std::vector<QueryResult> results;
  double engine_seconds = 0.0;
  if (fpga_ != nullptr) {
    FpgaMapReport report;
    results = fpga_->map(reads, &report);
    // Modeled device time; the model is programmed once per run, so its
    // program time is counted with the first batch only.
    const double program = fpga_total_.program_seconds == 0.0 ? report.program_seconds : 0.0;
    fpga_total_.program_seconds += program;
    fpga_total_.transfer_seconds += report.transfer_seconds;
    fpga_total_.kernel_seconds += report.kernel_seconds;
    engine_seconds = program + report.mapping_seconds();
    outcome.stages.search_ms += engine_seconds * 1e3;
  } else {
    SoftwareMapReport report;
    results = host_->map(reads, 1, &report);
    engine_seconds = report.seconds;
    outcome.stages.search_ms += timer.milliseconds();
    outcome.sweep += report.sweep;
  }
  timer.reset();
  hits.clear();
  locate_hits(stored_.reference, stored_.index.suffix_array(), batch, first, results,
              config_.max_hits_per_read, outcome, hits, cancel);
  outcome.stages.locate_ms += timer.milliseconds();
  timer.reset();
  write_sam_lines(stored_.reference, batch, hits, sam);
  outcome.stages.sam_ms += timer.milliseconds();
  return engine_seconds;
}

void MappingRun::map_sharded(const ReadBatch& batch, std::string& sam, const CancelToken* cancel) {
  // Each shard maps, locates and writes its lines into its own buffers
  // (single-threaded engine call per shard), and the buffers are joined in
  // shard order afterwards — so the SAM and every counter are byte-identical
  // to the sequential path regardless of completion order.
  const std::size_t shard_size = effective_shard_size(batch.size(), config_.threads,
                                                      config_.shard_size, cancel != nullptr);
  const std::size_t num_shards = (batch.size() + shard_size - 1) / shard_size;
  struct Shard {
    MappingOutcome outcome;
    std::vector<SamHit> hits;
    std::string sam;
  };
  std::vector<Shard> shards(num_shards);

  WallTimer timer;
  {
    ThreadPool pool(config_.threads);
    // Exceptions (OperationCancelled from a checkpoint, engine failures)
    // propagate out of parallel_for; the pool joins every in-flight shard
    // before the shard buffers go out of scope.
    pool.parallel_for(num_shards, [&](std::size_t begin_shard, std::size_t end_shard) {
      // Re-install the run's context so shard spans land in the request's
      // trace.
      obs::ScopedObsContext scoped(context_);
      for (std::size_t s = begin_shard; s < end_shard; ++s) {
        if (cancel != nullptr) cancel->throw_if_stopped();
        obs::TraceSpan shard_span("shard");
        const std::size_t first = s * shard_size;
        map_range(batch, first, std::min(shard_size, batch.size() - first), shards[s].sam,
                  shards[s].outcome, shards[s].hits, cancel);
      }
    });
  }
  seconds_ += timer.seconds();

  shards_ += num_shards;
  outcome_.shards = shards_;
  std::size_t bytes = sam.size();
  for (const Shard& shard : shards) bytes += shard.sam.size();
  sam.reserve(bytes);
  for (Shard& shard : shards) {
    outcome_.reads += shard.outcome.reads;
    outcome_.mapped += shard.outcome.mapped;
    outcome_.occurrences += shard.outcome.occurrences;
    outcome_.stages += shard.outcome.stages;
    outcome_.sweep += shard.outcome.sweep;
    sam += shard.sam;
  }
}

void MappingRun::publish() const {
  const char* engine = kernels::engine_spec(config_.engine).name;
  const MappingStageTimings& stages = outcome_.stages;
  if (context_.metrics != nullptr) {
    if (parsed_) observe_stage(*context_.metrics, engine, "parse", stages.parse_ms);
    if (packed_) observe_stage(*context_.metrics, engine, "pack", stages.pack_ms);
    observe_stage(*context_.metrics, engine, "search", stages.search_ms);
    observe_stage(*context_.metrics, engine, "locate", stages.locate_ms);
    observe_stage(*context_.metrics, engine, "sam", stages.sam_ms);
    if (outcome_.sweep.batches != 0) publish_sweep(*context_.metrics, engine, outcome_.sweep);
  }
  if (context_.trace != nullptr) {
    const std::uint32_t parent = span_.id();
    if (parsed_) context_.trace->emit("parse", parent, -1.0, stages.parse_ms);
    if (packed_) context_.trace->emit("pack", parent, -1.0, stages.pack_ms);
    const std::uint32_t search = context_.trace->emit("search", parent, -1.0, stages.search_ms);
    if (fpga_ != nullptr) {
      // Modeled device phases nested under the search span — the split the
      // paper's OpenCL event profiling reports (program = structure load,
      // transfer = buffer movement).
      context_.trace->emit("fpga:program", search, -1.0, fpga_total_.program_seconds * 1e3);
      context_.trace->emit("fpga:transfer", search, -1.0,
                           fpga_total_.transfer_seconds * 1e3);
      context_.trace->emit("fpga:kernel", search, -1.0, fpga_total_.kernel_seconds * 1e3);
    }
    context_.trace->emit("locate", parent, -1.0, stages.locate_ms);
    context_.trace->emit("sam", parent, -1.0, stages.sam_ms);
  }
}

namespace {

MappingOutcome map_one_batch(MappingRun& run, const StoredIndex& stored,
                             const ReadBatch& batch, double* mapping_seconds,
                             const CancelToken* cancel) {
  std::string sam = sam_header(stored.reference);
  run.map(batch, sam, cancel);
  run.publish();
  MappingOutcome outcome = run.outcome();
  outcome.sam = std::move(sam);
  if (mapping_seconds != nullptr) *mapping_seconds = run.mapping_seconds();
  return outcome;
}

}  // namespace

MappingOutcome map_batch_over(const StoredIndex& stored, const PipelineConfig& config,
                              const ReadBatch& batch, double* mapping_seconds,
                              const CancelToken* cancel) {
  if (cancel != nullptr) cancel->throw_if_stopped();
  MappingRun run(stored, config);
  return map_one_batch(run, stored, batch, mapping_seconds, cancel);
}

MappingOutcome map_records_over(const StoredIndex& stored, const PipelineConfig& config,
                                const std::vector<FastqRecord>& records,
                                double* mapping_seconds, const CancelToken* cancel) {
  if (cancel != nullptr) cancel->throw_if_stopped();
  MappingRun run(stored, config);
  WallTimer timer;
  const ReadBatch batch = ReadBatch::from_fastq(records);
  run.add_pack_ms(timer.milliseconds());
  return map_one_batch(run, stored, batch, mapping_seconds, cancel);
}

std::shared_ptr<const ReadBatch> parse_request_reads(std::span<const std::uint8_t> body,
                                                     MappingEngine engine,
                                                     obs::MetricsRegistry& metrics) {
  WallTimer timer;
  auto batch = std::make_shared<const ReadBatch>(ReadBatch::from_fastq_bytes(body));
  observe_stage(metrics, kernels::engine_spec(engine).name, "parse", timer.milliseconds());
  return batch;
}

}  // namespace bwaver
