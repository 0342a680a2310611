// Staged approximate mapping with runtime reconfiguration — the paper's
// approximate-matching future work, modeled after the design it cites
// (Arram et al. [7]): all reads first pass through the exact-alignment
// module; the fabric is then reconfigured and only the reads that remained
// unaligned go through the 1-mismatch module, then the 2-mismatch module.
//
// The device model charges a full bitstream-programming delay per
// reconfiguration and prices each approximate pass by the number of
// backward-search steps the search tree actually executes, so the modeled
// time captures both effects the staged design trades off: reconfiguration
// overhead vs. running expensive k-mismatch logic on few reads.
//
// The mismatch stages run in one of two modes (ApproxMode): the classic
// per-stratum branch recursion, or precomputed bidirectional search schemes
// over a BidirFmIndex (bidir_index.hpp) — identical hit sets, far fewer
// executed steps, because every scheme anchors one pattern part exactly
// before branching.
#pragma once

#include <cstdint>
#include <vector>

#include "fmindex/approx_search.hpp"
#include "fmindex/bidir_index.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/occ_backends.hpp"
#include "fpga/device_spec.hpp"
#include "fpga/hls_kernel.hpp"
#include "mapper/read_batch.hpp"
#include "util/thread_pool.hpp"

namespace bwaver {

/// Where (and how well) one read aligned.
struct StagedReadResult {
  static constexpr std::uint8_t kUnaligned = 0xff;

  std::uint8_t stage = kUnaligned;  ///< mismatch count of the aligning stage
  bool reverse_strand = false;      ///< strand of the first reported hit
  std::vector<std::uint32_t> positions;  ///< loci at that mismatch stratum
};

struct StageReport {
  unsigned mismatches = 0;
  std::uint64_t reads_in = 0;        ///< reads entering this stage
  std::uint64_t reads_aligned = 0;   ///< reads the stage resolved
  std::uint64_t steps_executed = 0;  ///< backward-search steps in the stage
  std::uint64_t branches_pruned = 0;  ///< empty intervals abandoned (approx stages)
  std::uint64_t hits = 0;             ///< SA intervals emitted (approx stages)
  std::uint64_t truncated_reads = 0;  ///< reads whose hit list hit the cap
  double reconfigure_seconds = 0.0;  ///< bitstream load before the stage
  double kernel_seconds = 0.0;       ///< modeled compute time of the stage
};

struct StagedMapReport {
  std::vector<StageReport> stages;
  double total_seconds() const noexcept {
    double total = 0.0;
    for (const auto& stage : stages) {
      total += stage.reconfigure_seconds + stage.kernel_seconds;
    }
    return total;
  }
};

class StagedFpgaMapper {
 public:
  /// max_mismatches in [0, 2] (the range staged hardware designs support).
  /// `approx_mode` selects the mismatch stages' search algorithm: kBranch
  /// restarts the full 4-way backward recursion per stratum; kScheme runs
  /// the precomputed bidirectional search schemes over `bidir` (which must
  /// be non-null for that mode, wrap the same `index`, and outlive the
  /// mapper). Hit SETS are identical either way (enumeration order inside a
  /// read is canonicalized); only the executed step counts differ.
  /// `hit_cap` bounds the SA intervals gathered per read and strand — a
  /// capped read is reported via StageReport::truncated_reads.
  StagedFpgaMapper(const FmIndex<RrrWaveletOcc>& index, DeviceSpec spec = DeviceSpec{},
                   unsigned max_mismatches = 2,
                   ApproxMode approx_mode = ApproxMode::kBranch,
                   const BidirFmIndex<RrrWaveletOcc>* bidir = nullptr,
                   std::size_t hit_cap = kDefaultApproxHitCap);

  /// Maps every read; results indexed by read. Report is optional.
  std::vector<StagedReadResult> map(const ReadBatch& batch,
                                    StagedMapReport* report = nullptr) const;

  unsigned max_mismatches() const noexcept { return max_mismatches_; }

 private:
  const FmIndex<RrrWaveletOcc>* index_;
  DeviceSpec spec_;
  unsigned max_mismatches_;
  unsigned step_ii_;
  ApproxMode approx_mode_;
  const BidirFmIndex<RrrWaveletOcc>* bidir_;
  std::size_t hit_cap_;
};

/// Software comparator: the same staged semantics on the host CPU across
/// `threads` workers, returning identical StagedReadResult records.
/// `approx_mode`/`bidir`/`hit_cap` mirror the StagedFpgaMapper constructor.
std::vector<StagedReadResult> approx_map_batch(
    const FmIndex<RrrWaveletOcc>& index, const ReadBatch& batch,
    unsigned max_mismatches, unsigned threads = 1, double* seconds = nullptr,
    ApproxMode approx_mode = ApproxMode::kBranch,
    const BidirFmIndex<RrrWaveletOcc>* bidir = nullptr,
    std::size_t hit_cap = kDefaultApproxHitCap);

}  // namespace bwaver
