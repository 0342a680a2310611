#include "mapper/read_batch.hpp"

#include "fmindex/dna.hpp"
#include "util/timer.hpp"

namespace bwaver {

void ReadBatch::add_fastq(std::string_view header, std::string_view bases) {
  names_ += fastq_read_name(header);
  name_offsets_.push_back(static_cast<std::uint64_t>(names_.size()));

  const std::size_t at = codes_.size();
  codes_.resize(at + bases.size());
  std::uint8_t* out = codes_.data() + at;
  // Valid codes are 0-3 and kDnaInvalid has the high bit set, so OR-ing
  // every code flags an invalid base without a branch per base.
  std::uint8_t seen = 0;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const std::uint8_t code = kDnaCodeTable[static_cast<unsigned char>(bases[i])];
    out[i] = code;
    seen |= code;
  }
  const bool ambiguous = seen > 3;
  if (ambiguous) {
    for (std::size_t i = 0; i < bases.size(); ++i) {
      if (out[i] == kDnaInvalid) out[i] = dna_substitute(i);
    }
  }
  offsets_.push_back(static_cast<std::uint64_t>(codes_.size()));
  ambiguous_.push_back(ambiguous ? 1 : 0);
}

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
  for (const auto& record : records) batch.add_fastq(record.name, record.sequence);
  return batch;
}

void ReadBatch::add_scanned(FastqScanner& scanner) {
  FastqView record;
  while (scanner.next(record)) add_fastq(record.name, record.sequence);
}

ReadBatch ReadBatch::from_fastq_text(FastqScanner& scanner) {
  ReadBatch batch;
  // Every base has a quality byte, so half the text bounds the bases.
  batch.codes_.reserve(scanner.remaining() / 2);
  batch.add_scanned(scanner);
  return batch;
}

ReadBatch ReadBatch::from_fastq_bytes(std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> inflated;
  FastqScanner scanner(fastq_text(body, inflated));
  return from_fastq_text(scanner);
}

ReadBatch ReadBatch::from_fastq_chunks(ChunkReader& reader, double* pack_ms) {
  ReadBatch batch;
  double ms = 0.0;
  std::size_t records = 0;
  for (bool first = true; reader.read_more(); first = false) {
    const WallTimer timer;
    // Every base has a quality byte, so half the text bounds the bases
    // (gzip's inflated text is known once the first window is read). The
    // reservation is address space: pages are touched as the reads land.
    if (first) batch.codes_.reserve(reader.bytes_left() / 2);
    FastqScanner scanner(reader.text(), reader.at_end(), records);
    batch.add_scanned(scanner);
    records = scanner.record_index();
    reader.consume(scanner.consumed());
    ms += timer.milliseconds();
  }
  if (pack_ms != nullptr) *pack_ms = ms + reader.inflate_ms();
  return batch;
}

}  // namespace bwaver
