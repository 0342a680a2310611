#include "mapper/read_batch.hpp"

#include "fmindex/dna.hpp"

namespace bwaver {

ReadBatch ReadBatch::from_simulated(std::span<const SimulatedRead> reads) {
  ReadBatch batch;
  std::size_t bases = 0;
  for (const auto& read : reads) bases += read.codes.size();
  batch.reserve(reads.size(), bases);
  for (const auto& read : reads) batch.add(read.codes);
  return batch;
}

ReadBatch ReadBatch::from_fastq(std::span<const FastqRecord> records) {
  ReadBatch batch;
  std::size_t bases = 0;
  for (const auto& record : records) bases += record.sequence.size();
  batch.reserve(records.size(), bases);
  for (const auto& record : records) {
    bool ambiguous = false;
    for (std::size_t i = 0; i < record.sequence.size(); ++i) {
      std::uint8_t code = dna_encode(record.sequence[i]);
      if (code == kDnaInvalid) {
        code = dna_substitute(i);
        ambiguous = true;
      }
      batch.codes_.push_back(code);
    }
    batch.offsets_.push_back(static_cast<std::uint64_t>(batch.codes_.size()));
    batch.ambiguous_.push_back(ambiguous ? 1 : 0);
  }
  return batch;
}

}  // namespace bwaver
