#include "mapper/map_service.hpp"

#include <algorithm>
#include <memory>

#include "mapper/fpga_mapper.hpp"
#include "mapper/pipeline.hpp"
#include "mapper/read_batch.hpp"
#include "mapper/software_mapper.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace bwaver {

namespace {

/// Reads dispatched to the engine between cancellation checkpoints. Large
/// enough that the per-chunk engine call amortizes, small enough that a
/// DELETE /jobs/{id} or deadline takes effect promptly.
constexpr std::size_t kCancellableChunk = 2048;

/// Rows resolved between checkpoints inside one chunk.
constexpr std::size_t kResolveCheckStride = 1024;

/// Smallest worthwhile parallel shard: below this the batch/dispatch
/// overhead beats the parallelism.
constexpr std::size_t kMinShardSize = 64;

/// Reads per shard for the parallel software path. Auto mode aims for a
/// few shards per worker (load balancing without excessive batch-building
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

/// Records the per-stage split into the ambient metrics registry (if one is
/// installed) and appends aggregated stage spans under `parent` (if the
/// ambient trace is live). `sweep` (non-zero only for engines that search
/// in sweep order) feeds the bwaver_sweep_* scheduler counters. `fpga`
/// optionally adds the modeled device-phase children under the search span.
void publish_stages(const obs::ObsContext& ctx, std::uint32_t parent,
                    const MappingStageTimings& stages, const char* engine,
                    const SweepStats& sweep, const FpgaMapReport* fpga) {
  if (ctx.metrics != nullptr) {
    static constexpr const char* kName = "bwaver_map_stage_seconds";
    static constexpr const char* kHelp = "Per-stage mapping time, by engine and stage";
    const auto observe = [&](const char* stage, double ms) {
      ctx.metrics
          ->histogram(kName, kHelp, stage_time_bounds(),
                      {{"engine", engine}, {"stage", stage}})
          .observe_ms(ms);
    };
    observe("seed", stages.seed_ms);
    observe("search", stages.search_ms);
    observe("locate", stages.locate_ms);
    observe("sam", stages.sam_ms);
    if (sweep.batches != 0) {
      const obs::Labels labels{{"engine", engine}};
      ctx.metrics
          ->counter("bwaver_sweep_batches_total",
                    "Sweep-scheduler invocations (one per shard or chunk)", labels)
          .inc(sweep.batches);
      ctx.metrics
          ->counter("bwaver_sweep_passes_total",
                    "Step sweeps over the in-flight state pool (search depth)",
                    labels)
          .inc(sweep.passes);
      ctx.metrics
          ->counter("bwaver_sweep_state_steps_total",
                    "Single-read search steps executed by the sweep scheduler",
                    labels)
          .inc(sweep.state_steps);
      ctx.metrics
          ->counter("bwaver_sweep_verified_total",
                    "Searches the sweep finished against the reference text at a "
                    "one-row interval",
                    labels)
          .inc(sweep.verified);
      ctx.metrics
          ->counter("bwaver_sweep_seed_misses_total",
                    "Searches the sweep retired as no hit at an absent seed k-mer",
                    labels)
          .inc(sweep.seed_misses);
      ctx.metrics
          ->gauge("bwaver_sweep_peak_active",
                  "Largest in-flight state pool of the latest sweep run (batch "
                  "occupancy)",
                  labels)
          .set(static_cast<double>(sweep.peak_active));
    }
  }
  if (ctx.trace != nullptr) {
    ctx.trace->emit("seed", parent, -1.0, stages.seed_ms);
    const std::uint32_t search = ctx.trace->emit("search", parent, -1.0, stages.search_ms);
    if (fpga != nullptr) {
      // Modeled device phases nested under the search span — the split the
      // paper's OpenCL event profiling reports (program = structure load,
      // transfer = buffer movement).
      ctx.trace->emit("fpga:program", search, -1.0, fpga->program_seconds * 1e3);
      ctx.trace->emit("fpga:transfer", search, -1.0, fpga->transfer_seconds * 1e3);
      ctx.trace->emit("fpga:kernel", search, -1.0, fpga->kernel_seconds * 1e3);
    }
    ctx.trace->emit("locate", parent, -1.0, stages.locate_ms);
    ctx.trace->emit("sam", parent, -1.0, stages.sam_ms);
  }
}

}  // namespace

std::vector<SamSequence> sam_sequences_for(const ReferenceSet& reference) {
  std::vector<SamSequence> sequences;
  sequences.reserve(reference.num_sequences());
  for (const auto& seq : reference.sequences()) {
    sequences.push_back(SamSequence{seq.name, seq.length});
  }
  return sequences;
}

void resolve_query_results(const ReferenceSet& reference,
                           std::span<const std::uint32_t> suffix_array,
                           std::span<const FastqRecord> records, const ReadBatch& batch,
                           std::span<const QueryResult> results,
                           std::size_t max_hits_per_read, MappingOutcome& outcome,
                           std::vector<SamAlignment>& alignments,
                           const CancelToken* cancel) {
  // Resolve SA intervals to per-sequence positions, dropping matches that
  // straddle a concatenation boundary.
  outcome.reads += results.size();
  std::size_t since_check = 0;
  for (const QueryResult& result : results) {
    if (cancel != nullptr && ++since_check >= kResolveCheckStride) {
      since_check = 0;
      cancel->throw_if_stopped();
    }
    const auto& record = records[result.id];
    const auto read_length = static_cast<std::uint32_t>(record.sequence.size());
    // A read with a base outside ACGTU is never an exact hit, whatever its
    // substituted codes matched.
    const bool ambiguous = batch.ambiguous(result.id);
    std::size_t survivors = 0;
    std::size_t emitted = 0;
    for (int strand = 0; strand < 2 && !ambiguous; ++strand) {
      const bool reverse = strand == 1;
      const std::uint32_t lo = reverse ? result.rev_lo : result.fwd_lo;
      const std::uint32_t hi = reverse ? result.rev_hi : result.fwd_hi;
      const std::uint32_t verified = reverse ? result.rev_verified : result.fwd_verified;
      for (std::uint32_t row = lo; row < hi; ++row) {
        const auto local = reference.resolve_span(suffix_array[row] - verified, read_length);
        if (!local) continue;  // straddles a sequence boundary
        ++survivors;
        ++outcome.occurrences;
        if (emitted < max_hits_per_read) {
          alignments.push_back(SamAlignment{
              record.name, reverse, reference.sequence(local->sequence_index).name,
              local->offset, read_length, true});
          ++emitted;
        }
      }
    }
    if (survivors == 0) {
      alignments.push_back(
          SamAlignment{record.name, false, "", 0, read_length, /*mapped=*/false});
    } else {
      ++outcome.mapped;
    }
  }
}

MappingOutcome map_records_over(const StoredIndex& stored, const PipelineConfig& config,
                                const std::vector<FastqRecord>& records,
                                double* mapping_seconds, const CancelToken* cancel) {
  if (cancel != nullptr) cancel->throw_if_stopped();

  // Ambient observability: a no-op unless a job/CLI run installed a context.
  // The map span parents the per-stage spans; the context is snapshotted
  // here so shard workers can re-install it on their own threads.
  obs::TraceSpan map_span("map_records");
  const obs::ObsContext obs_ctx = obs::current_context();

  // A host engine comes from the index's engine table: built by the first
  // call that needs it, then shared. The FPGA model is programmed once for
  // this call and fed chunk by chunk: with no cancel token everything goes
  // in one chunk, exactly the pre-async behaviour; with a token each chunk
  // boundary is a checkpoint.
  const kernels::EngineSpec& spec = kernels::engine_spec(config.engine);
  std::unique_ptr<BwaverFpgaMapper> fpga;
  const HostEngine* host = nullptr;
  if (spec.device_model) {
    fpga = std::make_unique<BwaverFpgaMapper>(stored.index, config.device, 8192,
                                              config.fpga_verify_stride);
  } else {
    host = &stored.engine(config.engine);
  }
  const ReferenceSet& reference = stored.reference;
  const std::span<const std::uint32_t> suffix_array = stored.index.suffix_array();

  MappingOutcome outcome;
  std::vector<SamAlignment> alignments;
  alignments.reserve(records.size());
  double seconds = 0.0;

  const std::span<const FastqRecord> all(records);

  // Software engines shard the batch across a pool: each shard maps and
  // resolves into its own buffers (single-threaded engine call per shard),
  // and the buffers are merged in shard order afterwards — so the SAM and
  // every counter are byte-identical to the sequential path regardless of
  // completion order. The FPGA model stays sequential: its modeled runtime
  // mutates device state per batch.
  const bool sharded = host != nullptr && config.threads > 1 && records.size() > 1;
  if (sharded) {
    const std::size_t shard_size = effective_shard_size(
        records.size(), config.threads, config.shard_size, cancel != nullptr);
    const std::size_t num_shards = (records.size() + shard_size - 1) / shard_size;

    struct ShardResult {
      MappingOutcome outcome;
      std::vector<SamAlignment> alignments;
    };
    std::vector<ShardResult> shards(num_shards);

    WallTimer timer;
    ThreadPool pool(config.threads);
    // Exceptions (OperationCancelled from a checkpoint, engine failures)
    // propagate out of parallel_for; the pool's destructor joins every
    // in-flight shard before the shard buffers go out of scope.
    pool.parallel_for(num_shards, [&, obs_ctx](std::size_t begin_shard,
                                               std::size_t end_shard) {
      // Re-install the submitting thread's context so shard spans land in
      // the request's trace and stage times in its registry.
      obs::ScopedObsContext scoped(obs_ctx);
      for (std::size_t s = begin_shard; s < end_shard; ++s) {
        if (cancel != nullptr) cancel->throw_if_stopped();
        obs::TraceSpan shard_span("shard");
        const std::span<const FastqRecord> chunk = all.subspan(
            s * shard_size, std::min(shard_size, records.size() - s * shard_size));
        WallTimer stage_timer;
        const ReadBatch batch = ReadBatch::from_fastq(chunk);
        shards[s].outcome.stages.seed_ms = stage_timer.milliseconds();
        stage_timer.reset();
        SoftwareMapReport report;
        std::vector<QueryResult> results = host->map(batch, 1, &report);
        shards[s].outcome.stages.search_ms = stage_timer.milliseconds();
        shards[s].outcome.sweep = report.sweep;
        stage_timer.reset();
        shards[s].alignments.reserve(results.size());
        resolve_query_results(reference, suffix_array, chunk, batch, results,
                              config.max_hits_per_read, shards[s].outcome,
                              shards[s].alignments, cancel);
        shards[s].outcome.stages.locate_ms = stage_timer.milliseconds();
      }
    });
    seconds = timer.seconds();

    outcome.shards = num_shards;
    for (ShardResult& shard : shards) {
      outcome.reads += shard.outcome.reads;
      outcome.mapped += shard.outcome.mapped;
      outcome.occurrences += shard.outcome.occurrences;
      outcome.stages += shard.outcome.stages;
      outcome.sweep += shard.outcome.sweep;
      alignments.insert(alignments.end(),
                        std::make_move_iterator(shard.alignments.begin()),
                        std::make_move_iterator(shard.alignments.end()));
    }
    if (mapping_seconds != nullptr) *mapping_seconds = seconds;
    WallTimer sam_timer;
    outcome.sam = format_sam(sam_sequences_for(reference), alignments);
    outcome.stages.sam_ms = sam_timer.milliseconds();
    publish_stages(obs_ctx, map_span.id(), outcome.stages, spec.name, outcome.sweep,
                   nullptr);
    return outcome;
  }

  // Accumulated modeled device phases across chunks (FPGA engine only) —
  // feeds the fpga:* child spans under "search".
  FpgaMapReport fpga_total;
  const std::size_t chunk_size =
      cancel == nullptr ? std::max<std::size_t>(records.size(), 1) : kCancellableChunk;
  for (std::size_t begin = 0; begin < records.size(); begin += chunk_size) {
    if (cancel != nullptr) cancel->throw_if_stopped();
    const std::span<const FastqRecord> chunk =
        all.subspan(begin, std::min(chunk_size, records.size() - begin));
    WallTimer stage_timer;
    const ReadBatch batch = ReadBatch::from_fastq(chunk);
    outcome.stages.seed_ms += stage_timer.milliseconds();
    stage_timer.reset();

    std::vector<QueryResult> results;
    if (fpga != nullptr) {
      FpgaMapReport report;
      results = fpga->map(batch, &report);
      seconds += report.total_seconds();
      // The FPGA search stage is modeled device time, not host wall time.
      outcome.stages.search_ms += report.total_seconds() * 1e3;
      fpga_total.program_seconds += report.program_seconds;
      fpga_total.transfer_seconds += report.transfer_seconds;
      fpga_total.kernel_seconds += report.kernel_seconds;
    } else {
      SoftwareMapReport report;
      results = host->map(batch, config.threads, &report);
      seconds += report.seconds;
      outcome.stages.search_ms += stage_timer.milliseconds();
      outcome.sweep += report.sweep;
    }
    stage_timer.reset();
    resolve_query_results(reference, suffix_array, chunk, batch, results,
                          config.max_hits_per_read, outcome, alignments, cancel);
    outcome.stages.locate_ms += stage_timer.milliseconds();
  }
  if (mapping_seconds != nullptr) *mapping_seconds = seconds;

  WallTimer sam_timer;
  outcome.sam = format_sam(sam_sequences_for(reference), alignments);
  outcome.stages.sam_ms = sam_timer.milliseconds();
  publish_stages(obs_ctx, map_span.id(), outcome.stages, spec.name, outcome.sweep,
                 fpga != nullptr ? &fpga_total : nullptr);
  return outcome;
}

}  // namespace bwaver
