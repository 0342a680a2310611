// Host driver for the FPGA kernel (paper, Sec. III-C/III-D).
//
// Mirrors the paper's execution flow: the succinct structure is loaded onto
// the device once; query sequences are then streamed in fixed-size batches
// of 512-bit packets through the OpenCL-style runtime (write buffer ->
// kernel -> read buffer), and SA intervals come back for the host to
// resolve into positions through the (host-resident) suffix array.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fpga/power.hpp"
#include "fpga/runtime.hpp"
#include "mapper/read_batch.hpp"

namespace bwaver {

/// Modeled-time report of one FPGA mapping run, broken down by stage the
/// way the paper's OpenCL-event profiling reports it.
struct FpgaMapReport {
  double program_seconds = 0.0;   ///< structure transfer + on-chip load
  double transfer_seconds = 0.0;  ///< query/result buffer movement
  double kernel_seconds = 0.0;    ///< kernel execution
  std::uint64_t reads = 0;
  std::uint64_t mapped = 0;
  std::uint64_t host_verified = 0;  ///< results re-checked on the host
  KernelStats kernel_stats;

  double total_seconds() const noexcept {
    return program_seconds + transfer_seconds + kernel_seconds;
  }
  /// Mapping time excluding the one-time structure load — what Table II's
  /// fixed-overhead discussion separates out.
  double mapping_seconds() const noexcept { return transfer_seconds + kernel_seconds; }
};

class BwaverFpgaMapper {
 public:
  /// Programs a freshly created runtime with `index`. The index must
  /// outlive the mapper. Throws DeviceCapacityError if the structure does
  /// not fit on-chip. `host_verify_stride` > 0 re-runs every Nth kernel
  /// result through the host-side (seed-table accelerated) search and
  /// throws KernelMismatchError on any interval disagreement — the cheap
  /// cross-check that keeps the device model honest against the reference
  /// implementation.
  BwaverFpgaMapper(const FmIndex<RrrWaveletOcc>& index, DeviceSpec spec = DeviceSpec{},
                   std::size_t batch_packets = 8192,
                   std::size_t host_verify_stride = 0);

  /// Maps all reads; results are indexed by read (QueryResult::id).
  std::vector<QueryResult> map(ReadSpan batch, FpgaMapReport* report = nullptr);

  std::size_t host_verify_stride() const noexcept { return host_verify_stride_; }

  const FpgaRuntime& runtime() const noexcept { return runtime_; }

  PowerReport power_report(double seconds) const noexcept {
    return PowerReport{seconds, runtime_.spec().board_power_watts};
  }

 private:
  const FmIndex<RrrWaveletOcc>* index_;
  FpgaRuntime runtime_;
  std::size_t batch_packets_;
  std::size_t host_verify_stride_;
  double program_seconds_ = 0.0;
};

/// A kernel result disagreed with the host-side reference search — the
/// device model (or a bitstream, on real hardware) is returning wrong
/// intervals, so the whole run is untrustworthy.
class KernelMismatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace bwaver
