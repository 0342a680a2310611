#include "build/blockwise_builder.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "build/build_plan.hpp"
#include "fmindex/epr_occ.hpp"
#include "fmindex/occ_backends.hpp"
#include "io/byte_io.hpp"
#include "kernels/vector_occ.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/archive_stream_writer.hpp"

namespace bwaver::build {

namespace {

/// Rank of code `c` among the first `k` rows of the FULL (n+1)-row BWT
/// column — the squeezed symbols shifted by one past the sentinel row, as
/// in FmIndex::occ.
inline std::uint32_t occ_full(const VectorOcc& occ, std::uint32_t primary, std::uint8_t c,
                              std::uint32_t k) {
  return static_cast<std::uint32_t>(occ.rank(c, k <= primary ? k : k - 1));
}

/// On-disk row-range buckets for SA recovery. The LF-walk emits (row, pos)
/// pairs in position order; streaming the sa section needs them in row
/// order, and holding all n+1 rows would break the memory bound. Each pair
/// goes to the bucket owning its row range; load() then scatters one
/// bucket into a chunk that is small by construction.
class SaBucketSpill {
 public:
  SaBucketSpill(const std::string& path, std::size_t num_buckets, std::size_t chunk_rows)
      : chunk_rows_(chunk_rows) {
    // Bound the aggregate buffer RAM regardless of bucket count.
    const std::size_t budget_records = (std::size_t{4} << 20) / sizeof(std::uint64_t);
    buffer_records_ = std::clamp<std::size_t>(budget_records / num_buckets, 512, 8192);
    files_.reserve(num_buckets);
    paths_.reserve(num_buckets);
    buffers_.resize(num_buckets);
    for (std::size_t b = 0; b < num_buckets; ++b) {
      std::string p = path + ".sa" + std::to_string(b) + ".tmp";
      std::FILE* f = std::fopen(p.c_str(), "wb+");
      if (f == nullptr) {
        throw IoError("blockwise build: cannot open SA spill file " + p);
      }
      files_.push_back(f);
      paths_.push_back(std::move(p));
    }
  }

  ~SaBucketSpill() {
    for (std::size_t b = 0; b < files_.size(); ++b) drop(b);
  }

  SaBucketSpill(const SaBucketSpill&) = delete;
  SaBucketSpill& operator=(const SaBucketSpill&) = delete;

  void emit(std::uint32_t row, std::uint32_t pos) {
    const std::size_t b = row / chunk_rows_;
    auto& buffer = buffers_[b];
    buffer.push_back((std::uint64_t{row} << 32) | pos);
    if (buffer.size() >= buffer_records_) flush(b);
  }

  /// Scatters bucket `b` (rows [base, base + chunk.size())) into `chunk`,
  /// validating that the records are a permutation-complete cover, then
  /// deletes the spill file.
  void load(std::size_t b, std::size_t base, std::span<std::uint32_t> chunk) {
    flush(b);
    std::FILE* f = files_[b];
    std::rewind(f);
    std::vector<std::uint64_t> records(4096);
    std::size_t seen = 0;
    for (;;) {
      const std::size_t got = std::fread(records.data(), sizeof(std::uint64_t),
                                         records.size(), f);
      for (std::size_t i = 0; i < got; ++i) {
        const auto row = static_cast<std::uint32_t>(records[i] >> 32);
        const auto pos = static_cast<std::uint32_t>(records[i]);
        if (row < base || row - base >= chunk.size()) {
          throw IoError("blockwise build: SA spill row outside its bucket");
        }
        chunk[row - base] = pos;
        ++seen;
      }
      if (got < records.size()) break;
    }
    if (std::ferror(f) != 0) {
      throw IoError("blockwise build: SA spill read failed: " + paths_[b]);
    }
    if (seen != chunk.size()) {
      throw IoError("blockwise build: SA bucket is not a complete row cover");
    }
    drop(b);
  }

 private:
  void flush(std::size_t b) {
    auto& buffer = buffers_[b];
    if (buffer.empty()) return;
    if (std::fwrite(buffer.data(), sizeof(std::uint64_t), buffer.size(), files_[b]) !=
        buffer.size()) {
      throw IoError("blockwise build: SA spill write failed: " + paths_[b]);
    }
    buffer.clear();
  }

  void drop(std::size_t b) {
    if (files_[b] != nullptr) {
      std::fclose(files_[b]);
      files_[b] = nullptr;
      std::remove(paths_[b].c_str());
    }
    buffers_[b].clear();
    buffers_[b].shrink_to_fit();
  }

  std::size_t chunk_rows_;
  std::size_t buffer_records_;
  std::vector<std::FILE*> files_;
  std::vector<std::string> paths_;
  std::vector<std::vector<std::uint64_t>> buffers_;
};

}  // namespace

BlockwiseBuilder::BlockwiseBuilder(const ReferenceSet& reference, BlockwiseConfig config)
    : reference_(reference), config_(std::move(config)) {
  const std::size_t n = reference_.total_length();
  stats_.text_bases = n;
  if (config_.block_bases != 0) {
    block_bases_ = config_.block_bases;
  } else if (config_.memory_budget_bytes != 0) {
    block_bases_ = derive_block_bases(n, config_.memory_budget_bytes,
                                      KmerSeedTable::resolve_k(config_.seed_k, n));
  } else {
    block_bases_ = std::max<std::size_t>(1, n);  // one block == direct order
  }
  stats_.block_bases = block_bases_;
}

void BlockwiseBuilder::report(const std::string& line) const {
  if (config_.progress) config_.progress(line);
}

Bwt BlockwiseBuilder::build_merged_bwt() {
  return build_merged_bwt(reference_.concatenated().unpack());
}

Bwt BlockwiseBuilder::build_merged_bwt(std::span<const std::uint8_t> text) {
  const std::size_t n = text.size();
  const std::size_t block = std::min(block_bases_, std::max<std::size_t>(1, n));
  const std::size_t num_blocks = n == 0 ? 1 : (n + block - 1) / block;
  stats_.blocks = num_blocks;

  Bwt bwt;
  {
    obs::TraceSpan span("build:block-bwt");
    // The last (possibly short) block's suffixes are true text suffixes, so
    // plain suffix-array construction orders them directly.
    bwt = bwaver::build_bwt(text.subspan((num_blocks - 1) * block));
  }
  report("block 1/" + std::to_string(num_blocks) + " built (" +
         std::to_string(bwt.text_length) + " bases)");

  for (std::size_t j = num_blocks - 1; j-- > 0;) {
    {
      obs::TraceSpan span("build:merge");
      merge_block(text, j * block, (j + 1) * block, bwt);
    }
    ++stats_.merge_passes;
    report("block " + std::to_string(num_blocks - j) + "/" + std::to_string(num_blocks) +
           " merged (bwt now " + std::to_string(bwt.text_length) + " bases)");
  }
  return bwt;
}

void BlockwiseBuilder::merge_block(std::span<const std::uint8_t> text, std::size_t lo,
                                   std::size_t hi, Bwt& bwt) {
  const std::size_t m = hi - lo;             // new suffixes entering this pass
  const std::size_t n_old = bwt.text_length; // bwt covers X_old = T[hi..n)
  const std::uint32_t primary_old = bwt.primary;
  const VectorOcc occ(bwt.symbols);
  const std::array<std::uint32_t, 4> c_full = c_table_of(bwt);

  // d[i]: how many old suffixes sort below the new suffix T[lo+i..). One
  // LF-style step per base, right to left — prepending char c moves the
  // insert rank to C[c] + Occ(c, previous rank). Base case: X_old is itself
  // the old suffix of rank primary_old.
  std::vector<std::uint32_t> d(m + 1);
  d[m] = primary_old;
  for (std::size_t i = m; i-- > 0;) {
    const std::uint8_t c = text[lo + i];
    d[i] = c_full[c] + occ_full(occ, primary_old, c, d[i + 1]);
  }

  // Order the block's suffixes. Unequal d ranks decide immediately (an old
  // suffix sorts strictly between the two), unequal chars decide, and equal
  // pairs advance in lockstep until one side crosses the block boundary —
  // where X_old's own rank (primary_old) settles it. Distinct suffixes of
  // one terminated text never compare equal, so the walk terminates.
  std::vector<std::uint32_t> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    while (true) {
      if (a == m) return primary_old < d[b];
      if (b == m) return d[a] <= primary_old;
      if (d[a] != d[b]) return d[a] < d[b];
      if (text[lo + a] != text[lo + b]) return text[lo + a] < text[lo + b];
      ++a;
      ++b;
    }
  });

  // Interleave the old full column with the new suffixes in one scan: the
  // new suffix of rank d goes after exactly d old rows, equal-d new
  // suffixes keep their sorted order (d is non-decreasing along `order`).
  const std::size_t n_new = n_old + m;
  std::vector<std::uint8_t> merged(n_new);
  std::size_t out = 0;
  std::uint32_t new_primary = 0;
  std::size_t old_rows = 0;  // old full-column rows consumed (0..n_old)
  std::size_t next_new = 0;
  const std::size_t total_rows = n_old + 1 + m;
  for (std::size_t row = 0; row < total_rows; ++row) {
    if (next_new < m && old_rows == d[order[next_new]]) {
      const std::uint32_t q = order[next_new++];
      if (q == 0) {
        new_primary = static_cast<std::uint32_t>(row);  // preceded by the sentinel
      } else {
        merged[out++] = text[lo + q - 1];
      }
    } else {
      if (old_rows == primary_old) {
        // The old sentinel row: X_old's predecessor is now T[hi - 1].
        merged[out++] = text[hi - 1];
      } else {
        merged[out++] = bwt.symbols[old_rows < primary_old ? old_rows : old_rows - 1];
      }
      ++old_rows;
    }
  }
  if (out != n_new) {
    throw std::logic_error("blockwise merge: interleave did not cover every row");
  }

  bwt.symbols = std::move(merged);
  bwt.primary = new_primary;
  bwt.text_length = static_cast<std::uint32_t>(n_new);
}

BlockwiseStats BlockwiseBuilder::build_archive(const std::string& path) {
  if (config_.format_version < 3) {
    // The suffix array streams in the flat layout.
    throw std::invalid_argument("blockwise build: only flat formats (v3+) are written");
  }
  obs::TraceSpan span("build:blockwise");
  // The merge and the suffix-array walk read the text a code at a time, so
  // it is unpacked once (1 B/base) for the build.
  const std::vector<std::uint8_t> text = reference_.concatenated().unpack();
  const bool packed = config_.format_version >= 6;

  const Bwt bwt = build_merged_bwt(text);

  // Counted from the text alone, before any section streams out.
  const KmerSeedTable seeds = [&] {
    obs::TraceSpan kmer_span("build:kmer");
    return KmerSeedTable::build(text, config_.seed_k);
  }();

  const std::uint32_t version = config_.format_version;
  ArchiveStreamWriter writer(
      path, version,
      archive_section_names(version, seeds.enabled(), config_.write_provenance));
  writer.write_section(kSectionMeta, [&](ByteWriter& out) {
    save_meta_section(out, reference_, bwt.text_length, c_table_of(bwt), bwt.primary, version);
  });
  writer.write_section(kSectionText, [&](ByteWriter& out) {
    save_text_section(out, reference_.concatenated(), version);
  });
  if (!packed) {
    writer.write_section(kSectionBwt,
                         [&](ByteWriter& out) { save_bwt_section(out, bwt, version); });
  }

  {
    obs::TraceSpan occ_span("build:occ");
    const RrrWaveletOcc occ(bwt.symbols, config_.rrr);
    writer.write_section(kSectionOcc, [&](ByteWriter& out) { occ.save_flat(out); });
  }
  report("occ section encoded");

  {
    obs::TraceSpan sa_span("build:sa");
    stream_suffix_array(writer, text, bwt, path);
  }
  report("suffix array recovered and streamed");

  if (seeds.enabled()) {
    writer.write_section(kSectionKmer,
                         [&](ByteWriter& out) { save_kmer_section(out, seeds, version); });
  }

  if (version >= 4) {
    obs::TraceSpan epr_span("build:epr");
    const EprOcc epr(bwt.symbols);
    writer.write_section(kSectionEpr, [&](ByteWriter& out) { epr.save_flat(out); });
  }

  if (config_.write_provenance) {
    BuildProvenance provenance;
    provenance.builder = "blockwise";
    provenance.block_bases = block_bases_;
    provenance.merge_passes = stats_.merge_passes;
    provenance.memory_budget_bytes = config_.memory_budget_bytes;
    writer.write_section(kSectionBuild,
                         [&](ByteWriter& out) { save_build_provenance(out, provenance); });
  }

  {
    obs::TraceSpan finish_span("build:finish");
    writer.finish();
  }
  stats_.bytes_written = writer.bytes_written();
  report("archive committed (" + std::to_string(stats_.bytes_written) + " bytes)");

  const obs::ObsContext& ctx = obs::current_context();
  obs::MetricsRegistry& metrics =
      ctx.metrics != nullptr ? *ctx.metrics : obs::default_registry();
  const obs::Labels labels{{"builder", "blockwise"}};
  metrics.counter("bwaver_build_blocks_total", "Index-construction text blocks built",
                  labels)
      .inc(stats_.blocks);
  metrics.counter("bwaver_build_merge_passes_total",
                  "Blockwise BWT rank-interleave merge passes", labels)
      .inc(stats_.merge_passes);
  metrics.counter("bwaver_build_bytes_written_total",
                  "Index archive bytes written by builds", labels)
      .inc(stats_.bytes_written);
  return stats_;
}

void BlockwiseBuilder::stream_suffix_array(ArchiveStreamWriter& writer,
                                           std::span<const std::uint8_t> text,
                                           const Bwt& bwt, const std::string& path) {
  const std::size_t n = text.size();
  const std::size_t rows_total = n + 1;
  // Chunk rows within the configured byte bound, but never more buckets
  // than open spill files comfortably allow.
  constexpr std::size_t kMaxBuckets = 256;
  std::size_t chunk_rows =
      std::max<std::size_t>(1, config_.sa_chunk_bytes / sizeof(std::uint32_t));
  std::size_t num_buckets = (rows_total + chunk_rows - 1) / chunk_rows;
  if (num_buckets > kMaxBuckets) {
    chunk_rows = (rows_total + kMaxBuckets - 1) / kMaxBuckets;
    num_buckets = (rows_total + chunk_rows - 1) / chunk_rows;
  }

  // v6 packs the rows at suffix_array_width(n) bits in IntVector's flat
  // layout (what IntVector::save_flat writes), streamed a word at a time;
  // older formats write raw 4-byte entries.
  const bool packed = config_.format_version >= 6;
  const unsigned width = suffix_array_width(n);
  writer.begin_section(kSectionSa);
  writer.append_u64(rows_total);
  if (packed) writer.append_u32(width);
  writer.pad_section_to(kSectionAlign);
  BitPacker packer(width);
  std::vector<std::uint64_t> words;
  const auto emit = [&words](std::uint64_t word) { words.push_back(word); };
  const auto append_rows = [&](std::span<const std::uint32_t> rows) {
    if (!packed) {
      writer.append_raw_u32(rows);
      return;
    }
    words.clear();
    for (const std::uint32_t row_pos : rows) packer.put(row_pos, emit);
    writer.append_raw_u64(words);
  };
  const auto finish_rows = [&] {
    words.clear();
    packer.finish(emit);
    writer.append_raw_u64(words);
    writer.end_section();
  };

  const VectorOcc occ(bwt.symbols);
  const std::array<std::uint32_t, 4> c_full = c_table_of(bwt);

  if (num_buckets <= 1) {
    // Everything fits one chunk: scatter in RAM, skip the spill files.
    std::vector<std::uint32_t> sa(rows_total);
    std::uint32_t row = 0;
    sa[0] = static_cast<std::uint32_t>(n);
    for (std::size_t i = n; i-- > 0;) {
      const std::uint8_t c = text[i];
      row = c_full[c] + occ_full(occ, bwt.primary, c, row);
      sa[row] = static_cast<std::uint32_t>(i);
    }
    append_rows(sa);
    finish_rows();
    return;
  }

  // The LF-walk visits suffixes longest-first (position order), emitting
  // each row exactly once; rows land in their row-range bucket on disk.
  SaBucketSpill spill(path, num_buckets, chunk_rows);
  spill.emit(0, static_cast<std::uint32_t>(n));
  std::uint32_t row = 0;
  for (std::size_t i = n; i-- > 0;) {
    const std::uint8_t c = text[i];
    row = c_full[c] + occ_full(occ, bwt.primary, c, row);
    spill.emit(row, static_cast<std::uint32_t>(i));
  }

  std::vector<std::uint32_t> chunk;
  for (std::size_t b = 0; b < num_buckets; ++b) {
    const std::size_t base = b * chunk_rows;
    const std::size_t count = std::min(chunk_rows, rows_total - base);
    chunk.assign(count, 0);
    spill.load(b, base, chunk);
    append_rows(chunk);
  }
  finish_rows();
}

}  // namespace bwaver::build
