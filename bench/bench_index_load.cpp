// Index store benchmark: cold pipeline build (SA + BWT + RRR encoding)
// versus loading the same index back from a checksummed archive, in every
// supported format/mode combination.
//
// The archive is the build-once/load-many split the paper's three-step
// pipeline implies: deployment pays only the load column. The enforced
// columns time the archive `index build` writes (v6: 2-bit text,
// bit-packed suffix array, no raw BWT) against the pre-v3 serving path:
//
//   load       — v2 archive, deserializing copy load (element-wise reads
//                plus an inverse-BWT pass);
//   copy_load  — v6 archive, LoadMode::kCopy (flat sections memcpy'd);
//   mmap_load  — v6 archive, LoadMode::kMmap, first open (CRC verification
//                faults every page in);
//   warm_load  — v6 archive, LoadMode::kMmap, second open (pages cached —
//                the registry-reload / server-restart case).
//
// Every version v1..v6 also gets a row of its bytes per base by section and
// its copy and mmap load times (v3..v5 pack their byte text and 4-byte
// suffix array at load, so their mmap loads are no longer zero-copy).
//
// The bench is also a self-check: every loaded pipeline must reproduce the
// built pipeline's text and suffix array AND emit byte-identical SAM for a
// fixed read set, across v1..v6 and both load modes. Any mismatch exits
// non-zero.
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fmindex/dna.hpp"
#include "io/fastq.hpp"
#include "mapper/pipeline.hpp"
#include "store/index_archive.hpp"
#include "util/timer.hpp"

namespace {

using namespace bwaver;
using namespace bwaver::bench;

/// Deterministic read set: substrings of the reference at a fixed stride.
std::vector<FastqRecord> sample_reads(const std::vector<std::uint8_t>& genome,
                                      std::size_t count, std::size_t length) {
  std::vector<FastqRecord> reads;
  if (genome.size() < length) return reads;
  const std::size_t stride = (genome.size() - length) / (count + 1) + 1;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pos = (i * stride) % (genome.size() - length + 1);
    FastqRecord record;
    record.name = "r" + std::to_string(i);
    record.sequence = dna_decode_string(
        std::vector<std::uint8_t>(genome.begin() + pos, genome.begin() + pos + length));
    record.quality.assign(length, 'I');
    reads.push_back(std::move(record));
  }
  return reads;
}

bool check_sam(const char* label, const std::string& variant, const std::string& got,
               const std::string& want) {
  if (got == want) return true;
  std::printf("!! SAM mismatch for %s (%s load)\n", label, variant.c_str());
  return false;
}

/// One row per archive version: bytes per base of each section, the total,
/// and the copy and mmap load times.
void print_version_row(std::uint32_t version, const std::string& path, std::size_t bases,
                       double copy_ms, double mmap_ms) {
  const ArchiveInfo info = read_index_archive_info(path);
  std::map<std::string, double> per_base;
  for (const ArchiveSection& section : info.sections) {
    per_base[section.name] = static_cast<double>(section.length) / static_cast<double>(bases);
  }
  std::printf("  v%u", version);
  for (const char* name : {"text", "bwt", "occ", "sa", "kmer", "epr"}) {
    const auto it = per_base.find(name);
    if (it == per_base.end()) {
      std::printf(" %6s", "-");
    } else {
      std::printf(" %6.3f", it->second);
    }
  }
  std::printf(" %7.3f %9.1f %9.1f\n",
              static_cast<double>(info.file_bytes) / static_cast<double>(bases), copy_ms,
              mmap_ms);
}

bool run_reference(const char* label, const std::vector<std::uint8_t>& genome,
                   const std::filesystem::path& dir, JsonReport& report) {
  std::string paths[kArchiveVersionLatest + 1];
  for (std::uint32_t version = kArchiveVersionMin; version <= kArchiveVersionLatest; ++version) {
    paths[version] =
        (dir / (std::string(label) + "_v" + std::to_string(version) + ".bwva")).string();
  }
  const std::string& latest = paths[kArchiveVersionLatest];

  WallTimer timer;
  Pipeline built;
  built.build_from_sequence(label, dna_decode_string(genome));
  const double build_ms = timer.milliseconds();

  for (std::uint32_t version = kArchiveVersionMin; version < kArchiveVersionLatest; ++version) {
    write_index_archive(paths[version], built.reference(), built.index(), version);
  }
  timer.reset();
  write_index_archive(latest, built.reference(), built.index());
  const double save_ms = timer.milliseconds();

  // Pre-v3 serving path: v2 archive, element-wise deserialize + inverse BWT.
  timer.reset();
  Pipeline loaded_v2 = Pipeline::from_archive(paths[2], {}, LoadMode::kCopy);
  const double load_ms = timer.milliseconds();

  timer.reset();
  Pipeline loaded_copy = Pipeline::from_archive(latest, {}, LoadMode::kCopy);
  const double copy_load_ms = timer.milliseconds();

  timer.reset();
  Pipeline loaded_mmap = Pipeline::from_archive(latest, {}, LoadMode::kMmap);
  const double mmap_load_ms = timer.milliseconds();

  timer.reset();
  Pipeline loaded_warm = Pipeline::from_archive(latest, {}, LoadMode::kMmap);
  const double warm_load_ms = timer.milliseconds();

  const auto archive_mb =
      static_cast<double>(std::filesystem::file_size(latest)) / (1024.0 * 1024.0);
  const double load_speedup = build_ms / (load_ms > 0.0 ? load_ms : 1.0);
  const double mmap_speedup = load_ms / (warm_load_ms > 0.0 ? warm_load_ms : 0.001);
  std::printf("%-12s %10zu %10.1f %9.1f %9.1f %9.1f %9.1f %9.1f %7.2f %7.1fx\n",
              label, genome.size(), build_ms, save_ms, load_ms, copy_load_ms,
              mmap_load_ms, warm_load_ms, archive_mb, mmap_speedup);
  report.metric(std::string(label) + ".build_ms", build_ms);
  report.metric(std::string(label) + ".load_ms", load_ms);
  report.metric(std::string(label) + ".load_speedup", load_speedup);
  report.metric(std::string(label) + ".copy_load_ms", copy_load_ms);
  report.metric(std::string(label) + ".mmap_load_ms", mmap_load_ms);
  report.metric(std::string(label) + ".warm_load_ms", warm_load_ms);
  report.metric(std::string(label) + ".mmap_speedup", mmap_speedup);
  report.metric(std::string(label) + ".archive_bytes_per_base",
                static_cast<double>(std::filesystem::file_size(latest)) /
                    static_cast<double>(genome.size()));

  // Self-checks, version by version and mode by mode: the loaded index is
  // the built one (text and suffix array) and writes the same SAM bytes.
  bool ok = true;
  const auto reads = sample_reads(genome, 50, 36);
  const std::string want = built.map_records(reads).sam;
  std::printf("  %-3s %6s %6s %6s %6s %6s %6s %7s %9s %9s   (B/base by section; load ms)\n",
              "", "text", "bwt", "occ", "sa", "kmer", "epr", "total", "copy", "mmap");
  for (std::uint32_t version = kArchiveVersionMin; version <= kArchiveVersionLatest; ++version) {
    double ms[2] = {0.0, 0.0};
    for (const LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
      const std::string variant = "v" + std::to_string(version) + "-" + load_mode_name(mode);
      timer.reset();
      Pipeline loaded = Pipeline::from_archive(paths[version], {}, mode);
      ms[mode == LoadMode::kMmap ? 1 : 0] = timer.milliseconds();
      if (!(loaded.index().suffix_array() == built.index().suffix_array()) ||
          !(loaded.reference().concatenated() == built.reference().concatenated())) {
        std::printf("!! archive round-trip mismatch for %s (%s)\n", label, variant.c_str());
        ok = false;
      }
      ok &= check_sam(label, variant, loaded.map_records(reads).sam, want);
    }
    print_version_row(version, paths[version], genome.size(), ms[0], ms[1]);
  }
  ok &= check_sam(label, "latest-mmap-warm", loaded_warm.map_records(reads).sam, want);
  ok &= check_sam(label, "latest-copy", loaded_copy.map_records(reads).sam, want);
  ok &= check_sam(label, "latest-mmap", loaded_mmap.map_records(reads).sam, want);
  ok &= check_sam(label, "v2-copy", loaded_v2.map_records(reads).sam, want);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const auto setup = parse_setup(argc, argv, /*default_scale=*/0.1);
  print_header("Index store: cold build vs archive load (copy vs mmap)", setup);

  const auto dir =
      std::filesystem::temp_directory_path() / "bwaver_bench_index_load";
  std::filesystem::create_directories(dir);

  JsonReport report("bench_index_load", setup.json);
  std::printf("%-12s %10s %10s %9s %9s %9s %9s %9s %7s %7s\n", "reference",
              "bp", "build[ms]", "save", "load", "copy", "mmap", "warm", "MiB",
              "speedup");
  bool ok = true;
  ok &= run_reference("ecoli_like", ecoli_reference(setup), dir, report);
  ok &= run_reference("chr21_like", chr21_reference(setup), dir, report);

  std::filesystem::remove_all(dir);
  std::printf("\nload = v2 deserializing read + inverse BWT (the pre-v3 path);\n"
              "copy/mmap/warm = the v%u archive `index build` writes, in each LoadMode\n"
              "(warm = second mmap open). The mmap speedup is what `bwaver serve\n"
              "--store-dir --load-mode mmap` gains on every restart and registry\n"
              "reload. The per-version rows time one copy and one mmap load each.\n",
              kArchiveVersionLatest);
  report.emit();
  if (!ok) {
    std::printf("!! bench self-check FAILED\n");
    return 1;
  }
  return 0;
}
