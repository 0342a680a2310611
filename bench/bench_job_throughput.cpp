// Job subsystem benchmark: inline synchronous mapping versus the same
// batches routed through the JobManager worker pool.
//
// The async path adds a bounded queue, per-job bookkeeping, and cancel
// checkpoints inside map_records_over. This bench quantifies that overhead
// at one worker and the scaling headroom at several, which is what `bwaver
// serve --workers N` trades off. Queue-wait numbers come from the same
// ServerStats histograms `GET /stats` exposes.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "bench_util.hpp"
#include "fmindex/dna.hpp"
#include "jobs/job_manager.hpp"
#include "mapper/map_service.hpp"
#include "mapper/pipeline.hpp"
#include "obs/trace.hpp"
#include "sim/read_sim.hpp"
#include "util/timer.hpp"

namespace {

using namespace bwaver;
using namespace bwaver::bench;

constexpr std::size_t kBatches = 32;

std::vector<std::vector<FastqRecord>> make_batches(
    const std::vector<std::uint8_t>& genome, const ScaledSetup& setup) {
  ReadSimConfig config;
  config.num_reads = scaled(64000, setup.scale);
  config.read_length = 100;
  config.seed = setup.seed;
  const auto reads = simulate_reads(genome, config);
  const auto records = reads_to_fastq(reads);

  std::vector<std::vector<FastqRecord>> batches(kBatches);
  for (std::size_t i = 0; i < records.size(); ++i) {
    batches[i % kBatches].push_back(records[i]);
  }
  return batches;
}

double run_inline(const Pipeline& pipeline,
                  const std::vector<std::vector<FastqRecord>>& batches) {
  WallTimer timer;
  for (const auto& batch : batches) {
    const auto outcome = map_records_over(*pipeline.stored(), PipelineConfig{}, batch);
    (void)outcome;
  }
  return timer.milliseconds();
}

double run_pooled(const Pipeline& pipeline,
                  const std::vector<std::vector<FastqRecord>>& batches,
                  std::size_t workers, double* mean_queue_wait_ms,
                  bool tracing = false, MappingStageTimings* stages_out = nullptr,
                  int repeats = 1) {
  JobManagerConfig config;
  config.workers = workers;
  config.queue_capacity = batches.size() * static_cast<std::size_t>(repeats);
  if (tracing) {
    config.traces = std::make_shared<obs::TraceCollector>(
        obs::TraceConfig{.enabled = true, .ring_capacity = batches.size()});
  }
  JobManager manager(config);

  std::mutex stages_mutex;
  MappingStageTimings stages;

  WallTimer timer;
  std::vector<std::uint64_t> ids;
  ids.reserve(batches.size() * static_cast<std::size_t>(repeats));
  for (int round = 0; round < repeats; ++round) {
    for (const auto& batch : batches) {
      ids.push_back(manager.submit(
          "bench",
          [&pipeline, &batch, &stages_mutex, &stages](const CancelToken& cancel) {
            const auto outcome = map_records_over(*pipeline.stored(), PipelineConfig{},
                                                  batch, nullptr, &cancel);
            {
              std::lock_guard<std::mutex> lock(stages_mutex);
              stages += outcome.stages;
            }
            return outcome.sam;
          }));
    }
  }
  for (const auto id : ids) manager.wait(id);
  const double elapsed_ms = timer.milliseconds();

  const auto& wait = manager.stats().queue_wait;
  *mean_queue_wait_ms =
      wait.count() > 0 ? wait.sum_ms() / static_cast<double>(wait.count()) : 0.0;
  if (stages_out != nullptr) *stages_out = stages;
  return elapsed_ms;
}

}  // namespace

int main(int argc, char** argv) {
  const auto setup = parse_setup(argc, argv, /*default_scale=*/0.05);
  print_header("Job subsystem: inline mapping vs worker-pool throughput", setup);

  const auto genome = ecoli_reference(setup);
  Pipeline pipeline;
  pipeline.build_from_sequence("bench_ref", dna_decode_string(genome));
  const auto batches = make_batches(genome, setup);
  std::size_t total_reads = 0;
  for (const auto& batch : batches) total_reads += batch.size();

  std::printf("%zu reads in %zu batches over a %zu bp reference\n\n", total_reads,
              batches.size(), genome.size());
  std::printf("%-14s %12s %12s %10s %14s\n", "path", "wall [ms]", "reads/s",
              "speedup", "queue wait[ms]");

  JsonReport report("bench_job_throughput", setup.json);
  const double inline_ms = run_inline(pipeline, batches);
  const double inline_rps = 1000.0 * static_cast<double>(total_reads) / inline_ms;
  std::printf("%-14s %12.1f %12.0f %9.2fx %14s\n", "inline", inline_ms, inline_rps,
              1.0, "-");
  report.metric("inline_reads_per_sec", inline_rps);

  MappingStageTimings stages_w1;
  double queue_wait_w1 = 0.0;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    double mean_wait_ms = 0.0;
    MappingStageTimings stages;
    const double pooled_ms =
        run_pooled(pipeline, batches, workers, &mean_wait_ms, false, &stages);
    if (workers == 1) {
      stages_w1 = stages;
      queue_wait_w1 = mean_wait_ms;
    }
    const double pooled_rps = 1000.0 * static_cast<double>(total_reads) / pooled_ms;
    std::printf("%-7s w=%-4zu %12.1f %12.0f %9.2fx %14.1f\n", "pooled", workers,
                pooled_ms, pooled_rps,
                inline_ms / (pooled_ms > 0.0 ? pooled_ms : 1.0), mean_wait_ms);
    report.metric("pooled_w" + std::to_string(workers) + "_reads_per_sec", pooled_rps);
  }

  // Per-stage split of the w=1 run — the decomposition docs/observability.md
  // catalogs as bwaver_map_stage_seconds.
  std::printf("\nw=1 stage split: pack %.1f ms, search %.1f ms, locate %.1f ms, "
              "sam %.1f ms, mean queue wait %.1f ms\n",
              stages_w1.pack_ms, stages_w1.search_ms, stages_w1.locate_ms,
              stages_w1.sam_ms, queue_wait_w1);
  report.metric("pack_ms", stages_w1.pack_ms);
  report.metric("search_ms", stages_w1.search_ms);
  report.metric("locate_ms", stages_w1.locate_ms);
  report.metric("sam_ms", stages_w1.sam_ms);
  report.metric("queue_wait_ms", queue_wait_w1);

  // Trace overhead guard: the same w=1 workload with trace spans recording
  // versus no-op (tracing off). Ambient load only ever ADDS wall time, so
  // each class's minimum over many trials estimates its noise-free floor,
  // and the gap between the floors is the real tracing overhead. The
  // trials alternate off/on (order flipping every pair) so any quiet
  // window on the machine is sampled by both classes. The baseline bounds
  // the result at 2% (trace_overhead_pct_max). Trials are stretched to
  // ~150 ms at small --scale so scheduler jitter at the floor stays well
  // under the bound; the probe run doubles as warmup.
  double probe_wait = 0.0;
  const double probe_ms = run_pooled(pipeline, batches, 1, &probe_wait, false);
  const int repeats = std::max(1, static_cast<int>(150.0 / std::max(probe_ms, 1.0)));
  double off_ms = 1e300, on_ms = 1e300;
  for (int i = 0; i < 24; ++i) {
    double wait = 0.0;
    if (i % 2 == 0) {
      off_ms = std::min(off_ms,
                        run_pooled(pipeline, batches, 1, &wait, false, nullptr, repeats));
      on_ms = std::min(on_ms,
                       run_pooled(pipeline, batches, 1, &wait, true, nullptr, repeats));
    } else {
      on_ms = std::min(on_ms,
                       run_pooled(pipeline, batches, 1, &wait, true, nullptr, repeats));
      off_ms = std::min(off_ms,
                        run_pooled(pipeline, batches, 1, &wait, false, nullptr, repeats));
    }
  }
  const double overhead_pct = off_ms > 0.0 ? 100.0 * (on_ms - off_ms) / off_ms : 0.0;
  std::printf(
      "tracing overhead (w=1, floor of 24 alternating pairs): off %.1f ms, "
      "on %.1f ms, %+.2f%%\n",
      off_ms, on_ms, overhead_pct);
  report.metric("trace_overhead_pct", overhead_pct);

  std::printf("\ninline = map_records_over called back to back on the caller's\n"
              "thread; pooled = the same batches as jobs through the bounded\n"
              "queue. w=1 isolates the subsystem's overhead (queue hop, state\n"
              "machine, cancel checkpoints); larger w shows scaling headroom.\n");
  report.emit();
  return 0;
}
