#include "mapper/fpga_mapper.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace bwaver {

BwaverFpgaMapper::BwaverFpgaMapper(const FmIndex<RrrWaveletOcc>& index, DeviceSpec spec,
                                   std::size_t batch_packets,
                                   std::size_t host_verify_stride)
    : index_(&index),
      runtime_(spec),
      batch_packets_(batch_packets),
      host_verify_stride_(host_verify_stride) {
  if (batch_packets_ == 0) {
    throw std::invalid_argument("BwaverFpgaMapper: batch_packets must be >= 1");
  }
  const EventPtr event = runtime_.program(index);
  program_seconds_ = static_cast<double>(event->duration_ns()) * 1e-9;
}

std::vector<QueryResult> BwaverFpgaMapper::map(ReadSpan batch, FpgaMapReport* report) {
  std::vector<QueryResult> results;
  results.reserve(batch.size());

  double transfer_seconds = 0.0;
  double kernel_seconds = 0.0;
  std::vector<QueryPacket> packets;
  packets.reserve(std::min(batch_packets_, batch.size()));

  std::size_t next = 0;
  while (next < batch.size()) {
    packets.clear();
    const std::size_t end = std::min(batch.size(), next + batch_packets_);
    for (std::size_t i = next; i < end; ++i) {
      packets.push_back(
          QueryPacket::encode(batch.read(i), static_cast<std::uint32_t>(i)));
    }
    next = end;

    const EventPtr write =
        runtime_.enqueue_write(packets.size() * QueryPacket::kBytes);
    const EventPtr kernel = runtime_.enqueue_kernel(packets, results);
    const EventPtr read = runtime_.enqueue_read(packets.size() * QueryResult::kBytes);
    transfer_seconds +=
        static_cast<double>(write->duration_ns() + read->duration_ns()) * 1e-9;
    kernel_seconds += static_cast<double>(kernel->duration_ns()) * 1e-9;
  }
  runtime_.finish();

  // Every Nth result is re-derived on the host through the seeded search
  // (count_both_strands goes through the k-mer table when one is attached,
  // so the check costs a fraction of an unseeded re-map). Any disagreement
  // is a modeling/hardware fault, not an input problem — fail the run.
  std::uint64_t host_verified = 0;
  if (host_verify_stride_ != 0) {
    for (std::size_t i = 0; i < results.size(); i += host_verify_stride_) {
      const QueryResult& result = results[i];
      const auto [fwd, rev] = index_->count_both_strands(batch.read(result.id));
      ++host_verified;
      if (fwd.lo != result.fwd_lo || fwd.hi != result.fwd_hi ||
          rev.lo != result.rev_lo || rev.hi != result.rev_hi) {
        throw KernelMismatchError(
            "BwaverFpgaMapper: kernel interval mismatch for read " +
            std::to_string(result.id) + ": device fwd [" +
            std::to_string(result.fwd_lo) + "," + std::to_string(result.fwd_hi) +
            ") rev [" + std::to_string(result.rev_lo) + "," +
            std::to_string(result.rev_hi) + ") vs host fwd [" +
            std::to_string(fwd.lo) + "," + std::to_string(fwd.hi) + ") rev [" +
            std::to_string(rev.lo) + "," + std::to_string(rev.hi) + ")");
      }
    }
  }

  if (report) {
    report->program_seconds = program_seconds_;
    report->transfer_seconds = transfer_seconds;
    report->kernel_seconds = kernel_seconds;
    report->reads = batch.size();
    report->host_verified = host_verified;
    report->mapped = 0;
    for (const QueryResult& result : results) {
      if (result.mapped()) ++report->mapped;
    }
    report->kernel_stats = runtime_.total_kernel_stats();
  }
  return results;
}

}  // namespace bwaver
