#include "mapper/staged_mapper.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "fmindex/dna.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/bits.hpp"
#include "util/timer.hpp"

namespace bwaver {

namespace {

/// Exact (budget-0) search of one strand through the seeded index path: a
/// k-mer seed-table hit replaces the first k backward-search steps with one
/// lookup, so the returned step count models what the seeded exact module
/// executes. The interval is byte-identical to the budget-0 recursion —
/// a non-empty table entry IS the interval the recurrence reaches after
/// those k steps, and an empty entry means the k-suffix does not occur.
std::uint64_t exact_count_steps(const FmIndex<RrrWaveletOcc>& index,
                                std::span<const std::uint8_t> codes,
                                SaInterval& iv) {
  const KmerSeedTable* seeds = index.seed_table();
  const unsigned k = seeds != nullptr ? seeds->k() : 0;
  std::size_t next = codes.size();
  iv = index.full_interval();
  if (k != 0 && codes.size() >= k) {
    if (const auto seed = seeds->lookup(codes.last(k))) {
      iv = *seed;
      next = codes.size() - k;
    }
  }
  std::uint64_t steps = 0;
  while (next > 0 && !iv.empty()) {
    iv = index.step(iv, codes[--next]);
    ++steps;
  }
  return steps;
}

/// Searches one read (both strands) at exactly the given mismatch budget
/// and fills the result when anything aligns. PRECONDITION at budget > 0:
/// the read failed every lower budget (the staged pipeline guarantees it
/// by construction) — kScheme mode relies on this to search only the
/// exactly-`budget` stratum. Returns the executed backward-search steps
/// (slower strand, the engine-occupancy metric); `stats` (optional)
/// accumulates both strands' approximate-search counters. In kScheme mode
/// `bidir` must be the bidirectional wrapper of `index`. Both modes
/// resolve the SAME hit set; positions are canonicalized (sorted per
/// strand, forward first) so the modes are byte-identical wherever
/// neither truncates.
std::uint64_t search_read_stage(const FmIndex<RrrWaveletOcc>& index,
                                const BidirFmIndex<RrrWaveletOcc>* bidir,
                                ApproxMode mode, std::size_t hit_cap,
                                std::span<const std::uint8_t> codes, unsigned budget,
                                StagedReadResult& result, ApproxStats* stats) {
  const auto rc = dna_reverse_complement(codes);

  // The exact stage runs the seeded search: same intervals and positions
  // as the recursion below, fewer modeled steps when the seed table hits.
  if (budget == 0) {
    SaInterval fwd_iv, rev_iv;
    const std::uint64_t fwd_steps = exact_count_steps(index, codes, fwd_iv);
    const std::uint64_t rev_steps = exact_count_steps(index, rc, rev_iv);
    if (!fwd_iv.empty() || !rev_iv.empty()) {
      result.stage = 0;
      result.reverse_strand = fwd_iv.empty();
      for (int strand = 0; strand < 2; ++strand) {
        const SaInterval& hit = strand == 0 ? fwd_iv : rev_iv;
        for (std::uint32_t row = hit.lo; row < hit.hi; ++row) {
          result.positions.push_back(index.sa(row));
        }
      }
    }
    return std::max(fwd_steps, rev_steps);
  }

  ApproxStats fwd_stats, rev_stats;
  std::vector<ApproxHit> fwd_hits, rev_hits;
  std::uint8_t best = StagedReadResult::kUnaligned;
  if (mode == ApproxMode::kScheme) {
    // Only the exactly-`budget` stratum: the staged pipeline (and the
    // software comparator) advance a read to this budget only after it
    // failed every lower stage, and those stages ran the identical
    // searches — the lower strata are provably empty. This is the
    // schemes' structural advantage over the branch recursion, which
    // re-explores the whole <=budget tree each stage by construction.
    scheme_count_exact(*bidir, codes, budget, fwd_hits, &fwd_stats, hit_cap);
    scheme_count_exact(*bidir, rc, budget, rev_hits, &rev_stats, hit_cap);
    if (!fwd_hits.empty() || !rev_hits.empty()) {
      best = static_cast<std::uint8_t>(budget);
    }
  } else {
    fwd_hits = approx_count(index, codes, budget, &fwd_stats, hit_cap);
    rev_hits = approx_count(index, rc, budget, &rev_stats, hit_cap);
    // Reads reaching stage k failed every stage < k, so any hit here is at
    // stratum k for exact-stage reads; for robustness pick the minimum
    // stratum actually present.
    for (const auto& hit : fwd_hits) best = std::min(best, hit.mismatches);
    for (const auto& hit : rev_hits) best = std::min(best, hit.mismatches);
  }
  if (best != StagedReadResult::kUnaligned) {
    result.stage = best;
    std::vector<std::uint32_t> strand_positions;
    for (int strand = 0; strand < 2; ++strand) {
      const auto& hits = strand == 0 ? fwd_hits : rev_hits;
      strand_positions.clear();
      for (const auto& hit : hits) {
        if (hit.mismatches != best) continue;
        for (std::uint32_t row = hit.interval.lo; row < hit.interval.hi; ++row) {
          strand_positions.push_back(index.sa(row));
        }
      }
      // The two modes enumerate the (identical) interval set in different
      // orders; sorting per strand makes the reported loci canonical.
      std::sort(strand_positions.begin(), strand_positions.end());
      if (strand == 0) result.reverse_strand = strand_positions.empty();
      result.positions.insert(result.positions.end(), strand_positions.begin(),
                              strand_positions.end());
    }
  }
  if (stats != nullptr) {
    stats->steps_executed += fwd_stats.steps_executed + rev_stats.steps_executed;
    stats->branches_pruned += fwd_stats.branches_pruned + rev_stats.branches_pruned;
    stats->hits += fwd_stats.hits + rev_stats.hits;
    stats->truncated = stats->truncated || fwd_stats.truncated || rev_stats.truncated;
  }
  return std::max(fwd_stats.steps_executed, rev_stats.steps_executed);
}

}  // namespace

StagedFpgaMapper::StagedFpgaMapper(const FmIndex<RrrWaveletOcc>& index, DeviceSpec spec,
                                   unsigned max_mismatches, ApproxMode approx_mode,
                                   const BidirFmIndex<RrrWaveletOcc>* bidir,
                                   std::size_t hit_cap)
    : index_(&index),
      spec_(spec),
      max_mismatches_(max_mismatches),
      approx_mode_(approx_mode),
      bidir_(bidir),
      hit_cap_(hit_cap) {
  if (max_mismatches > 2) {
    throw std::invalid_argument(
        "StagedFpgaMapper: staged designs support at most 2 mismatches");
  }
  if (approx_mode == ApproxMode::kScheme) {
    if (bidir == nullptr) {
      throw std::invalid_argument(
          "StagedFpgaMapper: scheme mode needs a bidirectional index");
    }
    if (&bidir->forward() != &index) {
      throw std::invalid_argument(
          "StagedFpgaMapper: bidirectional index must wrap the mapper's index");
    }
  }
  const unsigned sf = index.occ_backend().params().superblock_factor;
  step_ii_ = static_cast<unsigned>(std::max<std::uint64_t>(
      1, div_ceil(static_cast<std::uint64_t>(sf) * spec.class_field_bits,
                  spec.port_width_bits)));
}

std::vector<StagedReadResult> StagedFpgaMapper::map(const ReadBatch& batch,
                                                    StagedMapReport* report) const {
  std::vector<StagedReadResult> results(batch.size());
  std::vector<std::size_t> pending(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) pending[i] = i;

  // Map-level approximate-search totals, published as labeled counters so
  // the two ApproxModes can be compared on a live dashboard.
  ApproxStats approx_totals;

  for (unsigned stage = 0; stage <= max_mismatches_; ++stage) {
    StageReport stage_report;
    stage_report.mismatches = stage;
    stage_report.reads_in = pending.size();
    // Every stage reprograms the fabric with that stage's module and
    // re-streams the succinct structure.
    stage_report.reconfigure_seconds =
        spec_.bitstream_program_seconds +
        static_cast<double>(index_->occ_size_in_bytes()) /
            spec_.pcie_bandwidth_bytes_per_sec;

    std::vector<std::size_t> still_pending;
    std::uint64_t stage_cycles = spec_.pipeline_fill_cycles;
    for (std::size_t read_index : pending) {
      StagedReadResult& result = results[read_index];
      ApproxStats read_stats;
      const std::uint64_t steps =
          search_read_stage(*index_, bidir_, approx_mode_, hit_cap_,
                            batch.read(read_index), stage, result, &read_stats);
      approx_totals.steps_executed += read_stats.steps_executed;
      approx_totals.branches_pruned += read_stats.branches_pruned;
      approx_totals.hits += read_stats.hits;
      stage_cycles += spec_.query_issue_overhead + steps * step_ii_;
      stage_report.steps_executed += steps;
      stage_report.branches_pruned += read_stats.branches_pruned;
      stage_report.hits += read_stats.hits;
      if (read_stats.truncated) ++stage_report.truncated_reads;
      if (result.stage != StagedReadResult::kUnaligned) {
        ++stage_report.reads_aligned;
      } else {
        still_pending.push_back(read_index);
      }
    }
    stage_report.kernel_seconds = spec_.cycles_to_seconds(stage_cycles);
    if (report) report->stages.push_back(stage_report);

    // Modeled per-stage span under the ambient trace (one span per mismatch
    // stratum: reconfiguration + kernel, the split Fig. 6 reports).
    if (const obs::ObsContext& ctx = obs::current_context(); ctx.trace != nullptr) {
      ctx.trace->emit("staged:" + std::to_string(stage) + "-mismatch",
                      ctx.parent_span, -1.0,
                      (stage_report.reconfigure_seconds + stage_report.kernel_seconds) *
                          1e3);
    }

    pending = std::move(still_pending);
    if (pending.empty()) break;
  }

  if (const obs::ObsContext& ctx = obs::current_context();
      ctx.metrics != nullptr && approx_totals.steps_executed != 0) {
    const obs::Labels labels{{"approx_mode", approx_mode_name(approx_mode_)}};
    ctx.metrics
        ->counter("bwaver_approx_steps_total",
                  "Backward-search steps executed by the mismatch stages", labels)
        .inc(approx_totals.steps_executed);
    ctx.metrics
        ->counter("bwaver_approx_pruned_total",
                  "Search branches abandoned on an empty interval", labels)
        .inc(approx_totals.branches_pruned);
    ctx.metrics
        ->counter("bwaver_approx_hits_total",
                  "SA intervals emitted by the mismatch stages", labels)
        .inc(approx_totals.hits);
  }
  return results;
}

std::vector<StagedReadResult> approx_map_batch(const FmIndex<RrrWaveletOcc>& index,
                                               const ReadBatch& batch,
                                               unsigned max_mismatches, unsigned threads,
                                               double* seconds, ApproxMode approx_mode,
                                               const BidirFmIndex<RrrWaveletOcc>* bidir,
                                               std::size_t hit_cap) {
  if (approx_mode == ApproxMode::kScheme && bidir == nullptr) {
    throw std::invalid_argument(
        "approx_map_batch: scheme mode needs a bidirectional index");
  }
  std::vector<StagedReadResult> results(batch.size());
  WallTimer timer;
  auto work = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (unsigned stage = 0; stage <= max_mismatches; ++stage) {
        search_read_stage(index, bidir, approx_mode, hit_cap, batch.read(i),
                          stage, results[i], /*stats=*/nullptr);
        if (results[i].stage != StagedReadResult::kUnaligned) break;
      }
    }
  };
  if (threads <= 1) {
    work(0, batch.size());
  } else {
    ThreadPool pool(threads);
    pool.parallel_for(batch.size(), work);
  }
  if (seconds) *seconds = timer.seconds();
  return results;
}

}  // namespace bwaver
