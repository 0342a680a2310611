#include "mapper/pipeline.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>

#include "build/blockwise_builder.hpp"
#include "build/build_plan.hpp"
#include "fmindex/dna.hpp"
#include "io/byte_io.hpp"
#include "io/chunk_reader.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "mapper/map_service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/index_archive.hpp"
#include "util/timer.hpp"

namespace bwaver {

namespace {
constexpr std::uint32_t kIndexMagic = 0x52565742;  // "BWVR" little-endian
constexpr std::uint32_t kIndexVersion = 2;         // v2: multi-sequence table
}  // namespace

void Pipeline::save_index_file(const std::string& path, const ReferenceSet& reference,
                               const Bwt& bwt, const std::vector<std::uint32_t>& sa) {
  ByteWriter writer;
  writer.u32(kIndexMagic);
  writer.u32(kIndexVersion);
  writer.u64(reference.num_sequences());
  for (const auto& seq : reference.sequences()) {
    writer.str(seq.name);
    writer.u32(seq.offset);
    writer.u32(seq.length);
  }
  writer.u32(bwt.text_length);
  writer.u32(bwt.primary);
  writer.vec_u8(bwt.symbols);
  writer.vec_u32(sa);
  write_file(path, writer.data());
}

void Pipeline::load_index_file(const std::string& path, ReferenceSet& reference,
                               Bwt& bwt, std::vector<std::uint32_t>& sa) {
  const auto data = read_file(path);
  ByteReader reader(data);
  if (reader.u32() != kIndexMagic) throw IoError("index file: bad magic: " + path);
  if (reader.u32() != kIndexVersion) throw IoError("index file: unsupported version");
  struct SeqMeta {
    std::string name;
    std::uint32_t offset, length;
  };
  std::vector<SeqMeta> metas;
  const std::uint64_t count = reader.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    SeqMeta meta;
    meta.name = reader.str();
    meta.offset = reader.u32();
    meta.length = reader.u32();
    metas.push_back(std::move(meta));
  }
  bwt.text_length = reader.u32();
  bwt.primary = reader.u32();
  bwt.symbols = reader.vec_u8();
  sa = reader.vec_u32();
  if (bwt.symbols.size() != bwt.text_length ||
      sa.size() != static_cast<std::size_t>(bwt.text_length) + 1) {
    throw IoError("index file: inconsistent sizes: " + path);
  }

  // Rebuild the reference set from the BWT (the index file stores the
  // sequence *table* but not the raw text; the text is recoverable).
  const auto text = inverse_bwt(bwt);
  ReferenceSet rebuilt;
  for (const SeqMeta& meta : metas) {
    if (meta.offset + meta.length > text.size()) {
      throw IoError("index file: sequence table out of range: " + path);
    }
    rebuilt.add(meta.name, std::span<const std::uint8_t>(text.data() + meta.offset,
                                                         meta.length));
  }
  if (rebuilt.total_length() != text.size()) {
    throw IoError("index file: sequence table does not cover text: " + path);
  }
  reference = std::move(rebuilt);
}

ReferenceSet reference_from_fasta(const std::vector<FastaRecord>& records) {
  ReferenceSet reference;
  for (const auto& record : records) {
    reference.add(record.name,
                  dna_encode_string(record.sequence, /*substitute_invalid=*/true));
  }
  return reference;
}

FmIndex<RrrWaveletOcc> build_fm_index(const PackedText& text, const PipelineConfig& config,
                                      PipelineTimings* timings) {
  // Each phase frees what the next does not read: SA-IS reads the 2-bit
  // text in place, the 4-byte SA is handed back page by page as it is
  // packed, and the seed table (counted from the 2-bit text) comes after it
  // is gone. The peak is SA-IS's 4(n + 1) + n/8 bytes or the later phases'
  // ~4.5n (packed SA, BWT, RRR construction), beside the seed table.
  WallTimer timer;
  std::vector<std::uint32_t> sa = build_suffix_array(text);
  const WallTimer pack_timer;
  IntVector packed_sa = IntVector::pack_consuming(std::move(sa), suffix_array_width(text.size()));
  const double pack_seconds = pack_timer.seconds();
  Bwt bwt = build_bwt(text, packed_sa);
  if (timings != nullptr) timings->bwt_sa_seconds = timer.seconds() - pack_seconds;

  timer.reset();
  auto seeds = std::make_shared<const KmerSeedTable>(KmerSeedTable::build(text, config.seed_k));
  const std::array<std::uint32_t, 4> c_table = c_table_of(bwt);
  RrrWaveletOcc occ(bwt.symbols, config.rrr);
  FmIndex<RrrWaveletOcc> index(std::move(bwt), std::move(packed_sa), std::move(occ), c_table);
  index.set_seed_table(std::move(seeds));
  if (timings != nullptr) timings->encode_seconds = pack_seconds + timer.seconds();
  return index;
}

FmIndex<RrrWaveletOcc> build_fm_index(std::span<const std::uint8_t> text,
                                      std::vector<std::uint32_t> sa, Bwt bwt,
                                      const PipelineConfig& config) {
  // The seed table is one O(n) count over the text, charged to step 2 like
  // the rest of the succinct construction.
  auto seeds = std::make_shared<const KmerSeedTable>(KmerSeedTable::build(text, config.seed_k));
  const RrrParams params = config.rrr;
  FmIndex<RrrWaveletOcc> index(
      std::move(bwt), std::move(sa), [params](std::span<const std::uint8_t> symbols) {
        return RrrWaveletOcc(symbols, params);
      });
  index.set_seed_table(std::move(seeds));
  return index;
}

StoredIndex build_stored_index(ReferenceSet reference, const PipelineConfig& config,
                               PipelineTimings* timings) {
  FmIndex<RrrWaveletOcc> index = build_fm_index(reference.concatenated(), config, timings);
  return StoredIndex{std::move(reference), std::move(index), nullptr, nullptr,
                     LoadMode::kCopy};
}

std::string Pipeline::compute_bwt_sa(const std::string& fasta_path,
                                     const std::string& index_path) {
  WallTimer timer;
  const ReferenceSet reference = read_reference(fasta_path);
  const auto sa = build_suffix_array(reference.concatenated());
  const Bwt bwt = build_bwt(reference.concatenated(), sa);
  save_index_file(index_path, reference, bwt, sa);
  timings_.bwt_sa_seconds = timer.seconds();
  return reference.sequence(0).name;
}

void Pipeline::encode(const std::string& index_path) {
  ReferenceSet reference;
  Bwt bwt;
  std::vector<std::uint32_t> sa;
  load_index_file(index_path, reference, bwt, sa);
  WallTimer timer;
  FmIndex<RrrWaveletOcc> index = build_fm_index(reference.concatenated().unpack(),
                                                std::move(sa), std::move(bwt), config_);
  stored_ = std::make_shared<const StoredIndex>(StoredIndex{
      std::move(reference), std::move(index), nullptr, nullptr, LoadMode::kCopy});
  timings_.encode_seconds = timer.seconds();
}

void Pipeline::build_from_sequence(const std::string& name, const std::string& bases) {
  build_from_records({FastaRecord{name, bases}});
}

void Pipeline::build_from_records(const std::vector<FastaRecord>& records) {
  stored_ = std::make_shared<const StoredIndex>(
      build_stored_index(reference_from_fasta(records), config_, &timings_));
}

MappingOutcome Pipeline::map_reads(const std::string& fastq_path,
                                   const std::string& sam_path, std::size_t chunk_bytes) {
  if (!ready()) {
    throw std::logic_error("Pipeline: map before encode()/build_from_sequence()");
  }
  if (chunk_bytes == 0) throw std::invalid_argument("Pipeline: chunk_bytes must be >= 1");

  FileSource file(fastq_path);
  ChunkReader reader(file, chunk_bytes);
  std::ofstream out;
  if (!sam_path.empty()) {
    out.open(sam_path, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("map_reads: cannot open " + sam_path);
  }
  std::string sam = sam_header(reference());

  MappingRun run(*stored_, config_);
  std::size_t records = 0;
  while (reader.read_more()) {
    WallTimer timer;
    FastqScanner scanner(reader.text(), reader.at_end(), records);
    const ReadBatch batch = ReadBatch::from_fastq_text(scanner);
    run.add_parse_ms(timer.milliseconds());
    records = scanner.record_index();
    reader.consume(scanner.consumed());

    run.map(batch, sam);
    if (out.is_open()) {
      out.write(sam.data(), static_cast<std::streamsize>(sam.size()));
      sam.clear();
    }
  }
  if (out.is_open() && !out.flush()) throw IoError("map_reads: cannot write " + sam_path);
  run.publish();
  timings_.mapping_seconds = run.mapping_seconds();
  MappingOutcome outcome = run.outcome();
  if (!out.is_open()) outcome.sam = std::move(sam);
  return outcome;
}

MappingOutcome Pipeline::map_records(const std::vector<FastqRecord>& records) {
  if (!ready()) {
    throw std::logic_error("Pipeline: map before encode()/build_from_sequence()");
  }
  return map_records_over(*stored_, config_, records, &timings_.mapping_seconds);
}

void Pipeline::save_index(const std::string& path) const {
  if (!ready()) {
    throw std::logic_error("Pipeline: save_index before encode()/build_from_sequence()");
  }
  write_index_archive(path, stored_->reference, stored_->index);
}

BuildArchiveResult Pipeline::build_archive(
    const std::string& path, const ReferenceSet& reference, const PipelineConfig& config,
    const std::function<void(const std::string&)>& progress) {
  const build::BuildPlan plan = build::plan_build(
      reference.total_length(), config.build_memory_budget_bytes, config.build_block_bases,
      KmerSeedTable::resolve_k(config.seed_k, reference.total_length()));
  BuildArchiveResult result;
  result.blockwise = plan.blockwise;
  result.estimated_peak_bytes = plan.estimated_peak_bytes;

  if (plan.blockwise) {
    build::BlockwiseConfig blockwise;
    blockwise.block_bases = plan.block_bases;
    blockwise.memory_budget_bytes = config.build_memory_budget_bytes;
    blockwise.seed_k = config.seed_k;
    blockwise.rrr = config.rrr;
    blockwise.write_provenance = config.build_provenance;
    blockwise.progress = progress;
    build::BlockwiseBuilder builder(reference, blockwise);
    const build::BlockwiseStats stats = builder.build_archive(path);
    result.block_bases = stats.block_bases;
    result.merge_passes = stats.merge_passes;
    result.bytes_written = stats.bytes_written;
    return result;
  }

  obs::TraceSpan span("build:direct");
  if (progress) {
    progress("direct build: " + std::to_string(reference.total_length()) + " bases");
  }
  const FmIndex<RrrWaveletOcc> index = build_fm_index(reference.concatenated(), config);
  BuildProvenance provenance;
  provenance.builder = "direct";
  provenance.memory_budget_bytes = config.build_memory_budget_bytes;
  write_index_archive(path, reference, index, kArchiveVersionLatest,
                      config.build_provenance ? &provenance : nullptr);
  result.bytes_written = std::filesystem::file_size(path);

  const obs::ObsContext& ctx = obs::current_context();
  obs::MetricsRegistry& metrics =
      ctx.metrics != nullptr ? *ctx.metrics : obs::default_registry();
  const obs::Labels labels{{"builder", "direct"}};
  metrics.counter("bwaver_build_blocks_total", "Index-construction text blocks built",
                  labels)
      .inc(1);
  metrics.counter("bwaver_build_bytes_written_total",
                  "Index archive bytes written by builds", labels)
      .inc(result.bytes_written);
  return result;
}

Pipeline Pipeline::from_archive(const std::string& path, PipelineConfig config,
                                LoadMode load_mode) {
  Pipeline pipeline(config);
  pipeline.stored_ =
      std::make_shared<const StoredIndex>(read_index_archive(path, load_mode));
  return pipeline;
}

}  // namespace bwaver
