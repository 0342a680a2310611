// bwaver — command-line front-end for the BWaveR pipeline.
//
// Subcommands:
//   simulate-genome  --preset ecoli|chr21 | --length N [--gc F] [--seed S] --out ref.fa[.gz]
//   simulate-reads   --ref ref.fa[.gz] --num N --length L [--mapping-ratio F]
//                    [--error-rate F] (per-base substitution probability for
//                    the mapping reads; deterministic per --seed) --out reads.fq[.gz]
//   index            --ref ref.fa[.gz] --out ref.bwvr            (pipeline step 1)
//   index build      --ref ref.fa[.gz] --store-dir DIR [--name N] [--b B] [--sf SF]
//                    [--seed-k K]  builds steps 1+2 (including the k-mer seed
//                    table, k sized to <= 2 bytes/base unless --seed-k sets
//                    it; --seed-k 0 disables it) and persists a checksummed
//                    archive into the store directory (creating/updating its
//                    manifest)
//                    [--memory-budget-mb M] peak-RAM target: when the direct
//                    build would exceed it, the memory-bounded blockwise
//                    constructor streams the archive instead (byte-identical
//                    output); [--block-mb B] forces blockwise with B-MB text
//                    blocks; [--build-meta] records builder provenance in the
//                    archive (shown by `index info`)
//   index info       --archive ref.bwva | --store-dir DIR
//                    archive section table / store manifest listing
//   map              --index ref.bwvr --reads reads.fq[.gz] --out out.sam
//                    [--engine fpga|rrr|sampled|epr] [--threads T]
//                    (cpu/bowtie2like accepted as aliases; default fpga;
//                    the host engines search by the batched sweep, see
//                    docs/serving.md) [--b B] [--sf SF]
//                    [--shards N] (reads per parallel shard, 0 = auto)
//                    [--profile FILE] write a per-stage profile (parse/search/
//                    locate/sam ms, wall, load mode, span tree) as JSON
//                    or: --store-dir DIR --ref-name N (load from the store;
//                    [--load-mode mmap|copy] selects zero-copy vs heap loads
//                    of v3 archives, default $BWAVER_LOAD_MODE or copy)
//   map-approx       --index ref.bwvr --reads reads.fq[.gz] [--mismatches K<=2]
//                    staged exact -> 1-mm -> 2-mm mapping (FPGA model)
//                    [--approx-mode branch|scheme] mismatch-stage algorithm:
//                    per-stratum branch recursion or bidirectional search
//                    schemes (identical hit sets, far fewer steps)
//                    [--max-approx-hits N] per-read/strand hit cap (0 = default)
//   map-paired       --index ref.bwvr --reads1 m1.fq[.gz] --reads2 m2.fq[.gz]
//                    [--min-insert N] [--max-insert N] [--threads T]
//   pipeline         --ref ref.fa[.gz] --reads reads.fq[.gz] --out out.sam [same options]
//   stats            --index ref.bwvr [--b B] [--sf SF]   entropy/size/device-fit report
//   serve            [--port P] [--b B] [--sf SF] [--seed-k K] (the index of
//                    uploads and rollovers, built as `index build` builds it)
//                    [--engine ...] [--store-dir DIR]
//                    [--load-mode mmap|copy] [--memory-budget-mb M]
//                    [--workers N] [--max-queue N]
//                    [--job-timeout S] [--http-threads N] [--max-body-mb M]
//                    [--trace on|off] [--trace-slow-ms MS] [--trace-ring N]
//                    web front-end + async mapping-job engine with Prometheus
//                    /metrics and /trace/recent (see docs/serving.md and
//                    docs/observability.md)
//   router           --backend HOST:PORT [--backend ...] [--port P]
//                    [--shard-reads N] [--hedge-quantile Q] [--hedge-min-ms MS]
//                    [--max-attempts N] [--tenant-rate R] [--tenant-burst B]
//                    [--health-interval-ms MS] [--map-timeout-ms MS]
//                    [--http-threads N] [--max-body-mb M]
//                    shard-routing gateway over a replica fleet (docs/fleet.md)
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "app/cli.hpp"
#include "app/web_service.hpp"
#include "fleet/router.hpp"
#include "fmindex/dna.hpp"
#include "fmindex/index_stats.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "mapper/paired_end.hpp"
#include "mapper/pipeline.hpp"
#include "mapper/staged_mapper.hpp"
#include "obs/trace.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"
#include "kernels/registry.hpp"
#include "store/index_archive.hpp"
#include "store/index_registry.hpp"
#include "util/cpu_features.hpp"
#include "util/timer.hpp"

namespace {

using namespace bwaver;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: bwaver <simulate-genome|simulate-reads|index|map|map-approx|"
               "pipeline|serve|router> [options]\n"
               "run `bwaver <subcommand>` with no options for details in the header "
               "of src/app/bwaver_main.cpp\n");
  return 2;
}

MappingEngine parse_engine(const std::string& name) {
  if (const auto engine = kernels::parse_engine_name(name)) return *engine;
  throw std::invalid_argument("unknown engine: " + name + " (" +
                              kernels::engine_choices() + ")");
}

LoadMode load_mode_from_args(const ArgParser& args) {
  const std::string name = args.get("load-mode");
  if (name.empty()) return default_load_mode();
  if (const auto mode = parse_load_mode(name)) return *mode;
  throw std::invalid_argument("unknown load mode '" + name + "' (mmap|copy)");
}

PipelineConfig config_from_args(const ArgParser& args) {
  PipelineConfig config;
  config.rrr.block_bits = static_cast<unsigned>(args.get_int("b", 15));
  config.rrr.superblock_factor = static_cast<unsigned>(args.get_int("sf", 50));
  const std::string engine_arg = args.get("engine");
  if (!engine_arg.empty()) config.engine = parse_engine(engine_arg);
  config.threads = static_cast<unsigned>(args.get_int("threads", 1));
  if (args.has("seed-k")) config.seed_k = static_cast<unsigned>(args.get_int("seed-k", 0));
  config.shard_size = static_cast<std::size_t>(args.get_int("shards", 0));
  return config;
}

int cmd_simulate_genome(const ArgParser& args) {
  GenomeSimConfig config;
  const std::string preset = args.get("preset");
  if (preset == "ecoli") {
    config = ecoli_like_config(static_cast<std::uint64_t>(args.get_int("seed", 42)));
  } else if (preset == "chr21") {
    config = chr21_like_config(static_cast<std::uint64_t>(args.get_int("seed", 42)));
  } else if (!preset.empty()) {
    std::fprintf(stderr, "unknown preset '%s' (ecoli|chr21)\n", preset.c_str());
    return 2;
  }
  config.length = static_cast<std::size_t>(
      args.get_int("length", static_cast<std::int64_t>(config.length)));
  config.gc_content = args.get_double("gc", config.gc_content);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  const std::string out = args.get("out", "reference.fa");
  const std::string name =
      args.get("name", preset.empty() ? "synthetic" : preset + "_like");
  const FastaRecord record{name, simulate_genome_string(config)};
  write_fasta(out, std::span<const FastaRecord>(&record, 1), ends_with(out, ".gz"));
  std::printf("wrote %zu bp reference to %s\n", record.sequence.size(), out.c_str());
  return 0;
}

int cmd_simulate_reads(const ArgParser& args) {
  const std::string ref_path = args.get("ref");
  if (ref_path.empty()) return usage();
  const auto records = read_fasta(ref_path);
  const auto reference =
      dna_encode_string(records.front().sequence, /*substitute_invalid=*/true);

  ReadSimConfig config;
  config.num_reads = static_cast<std::size_t>(args.get_int("num", 1000));
  config.read_length = static_cast<unsigned>(args.get_int("length", 100));
  config.mapping_ratio = args.get_double("mapping-ratio", 1.0);
  config.error_rate = args.get_double("error-rate", 0.0);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  const auto reads = simulate_reads(reference, config);
  const auto fastq = reads_to_fastq(reads);
  const std::string out = args.get("out", "reads.fq");
  write_fastq(out, fastq, ends_with(out, ".gz"));
  std::printf("wrote %zu reads of %u bp (mapping ratio %.2f, error rate %.3f) to %s\n",
              fastq.size(), config.read_length, config.mapping_ratio,
              config.error_rate, out.c_str());
  return 0;
}

int cmd_index_build(const ArgParser& args) {
  const std::string ref_path = args.get("ref");
  const std::string store_dir = args.get("store-dir");
  if (ref_path.empty() || store_dir.empty()) return usage();

  PipelineConfig config = config_from_args(args);
  config.build_memory_budget_bytes =
      static_cast<std::size_t>(args.get_int("memory-budget-mb", 0)) << 20;
  config.build_block_bases =
      static_cast<std::size_t>(args.get_int("block-mb", 0)) << 20;
  config.build_provenance = args.has("build-meta");

  // The parsed FASTA is dropped once packed: the build holds 2-bit codes.
  std::string name;
  ReferenceSet reference;
  {
    const auto records = read_fasta(ref_path);
    name = args.get("name", records.front().name);
    reference = reference_from_fasta(records);
  }

  // Build straight to a staging file in the store, then adopt(): the index
  // is registered without ever being resident, which is the whole point of
  // the memory-bounded path.
  IndexRegistry registry(store_dir);
  const std::string staging =
      (std::filesystem::path(store_dir) / (name + ".bwva.build")).string();
  WallTimer timer;
  const BuildArchiveResult built =
      Pipeline::build_archive(staging, reference, config, [](const std::string& line) {
        std::printf("  %s\n", line.c_str());
        std::fflush(stdout);
      });
  const double build_seconds = timer.seconds();
  registry.adopt(name, staging);
  const std::string archive = registry.archive_path(name);
  std::printf("built '%s' (%zu bp, %zu sequence(s)) %s -> %s (%llu bytes, %.3f s)\n",
              name.c_str(), static_cast<std::size_t>(reference.total_length()),
              reference.num_sequences(), built.blockwise ? "blockwise" : "direct",
              archive.c_str(), static_cast<unsigned long long>(built.bytes_written),
              build_seconds);
  if (built.blockwise) {
    std::printf("block %zu bases, %zu merge pass(es), estimated peak %zu MB\n",
                built.block_bases, built.merge_passes,
                built.estimated_peak_bytes >> 20);
  } else {
    std::printf("estimated peak %zu MB\n", built.estimated_peak_bytes >> 20);
  }
  return 0;
}

/// The engine a mapping run launched with these args would use, plus the
/// CPU feature set the SIMD kernels dispatch on — `index info` prints it
/// so operators see the selection without starting a run.
void print_engine_resolution(const ArgParser& args) {
  const std::string engine_arg = args.get("engine");
  const MappingEngine engine =
      engine_arg.empty() ? PipelineConfig{}.engine : parse_engine(engine_arg);
  const auto& spec = kernels::engine_spec(engine);
  std::printf("mapping engine: %s (occ %s, kernel %s)\n", spec.name, spec.occ_backend,
              kernels::engine_kernel_name(engine));
  std::printf("cpu features: %s\n", cpu_features_string(cpu_features()).c_str());
}

/// "seed table: k 10, 4194372 bytes (0.904 B/base)", or "seed table: none".
std::string seed_table_summary(const ArchiveInfo& info) {
  for (const auto& section : info.sections) {
    if (section.name != kSectionKmer) continue;
    char line[128];
    std::snprintf(line, sizeof line, "seed table: k %u, %llu bytes (%.3f B/base)",
                  info.seed_k, static_cast<unsigned long long>(section.length),
                  info.text_length == 0
                      ? 0.0
                      : static_cast<double>(section.length) / info.text_length);
    return line;
  }
  return "seed table: none";
}

/// "text packing: 2 bits/base; suffix array: 23 bits/entry" — the widths
/// the archive stores (v1/v2 keep no text: it is recovered from the BWT).
std::string layout_summary(const ArchiveInfo& info) {
  const std::string text = info.text_bits == 0
                               ? std::string("none (recovered from the BWT)")
                               : std::to_string(info.text_bits) + " bits/base";
  return "text packing: " + text + "; suffix array: " + std::to_string(info.sa_width) +
         " bits/entry";
}

int cmd_index_info(const ArgParser& args) {
  const std::string archive = args.get("archive");
  const std::string store_dir = args.get("store-dir");
  if (!archive.empty()) {
    const ArchiveInfo info = read_index_archive_info(archive);
    std::printf("archive: %s\nformat version: %u\nfile bytes: %llu\n",
                archive.c_str(), info.version,
                static_cast<unsigned long long>(info.file_bytes));
    std::printf("%-8s %12s %12s %10s\n", "section", "offset", "bytes", "crc32");
    for (const auto& section : info.sections) {
      std::printf("%-8s %12llu %12llu   %08x\n", section.name.c_str(),
                  static_cast<unsigned long long>(section.offset),
                  static_cast<unsigned long long>(section.length), section.crc32);
    }
    std::printf("text: %u bp, %zu sequence(s)\n", info.text_length,
                info.sequences.size());
    std::printf("%s\n", layout_summary(info).c_str());
    std::printf("%s\n", seed_table_summary(info).c_str());
    for (const auto& seq : info.sequences) {
      std::printf("  %s: offset %u, %u bp\n", seq.name.c_str(), seq.offset, seq.length);
    }
    // Builder provenance is an optional v3+ section; archives that predate
    // it (or were written without --build-meta) report "unknown".
    if (info.build.has_value()) {
      std::printf("builder: %s", info.build->builder.c_str());
      if (info.build->block_bases != 0 || info.build->merge_passes != 0) {
        std::printf(" (block %llu bases, %llu merge pass(es))",
                    static_cast<unsigned long long>(info.build->block_bases),
                    static_cast<unsigned long long>(info.build->merge_passes));
      }
      if (info.build->memory_budget_bytes != 0) {
        std::printf(" budget %llu MB",
                    static_cast<unsigned long long>(info.build->memory_budget_bytes >> 20));
      }
      std::printf("\n");
    } else {
      std::printf("builder: unknown\n");
    }
    print_engine_resolution(args);
    return 0;
  }
  if (!store_dir.empty()) {
    IndexRegistry registry(store_dir);
    std::printf("store: %s (%zu reference(s))\n", store_dir.c_str(), registry.size());
    for (const auto& entry : registry.list()) {
      std::printf("  %s: %llu bp, %llu sequence(s), %llu archive bytes, %s\n",
                  entry.name.c_str(),
                  static_cast<unsigned long long>(entry.text_length),
                  static_cast<unsigned long long>(entry.num_sequences),
                  static_cast<unsigned long long>(entry.archive_bytes),
                  seed_table_summary(read_index_archive_info(entry.archive_path)).c_str());
    }
    print_engine_resolution(args);
    return 0;
  }
  return usage();
}

int cmd_index(const ArgParser& args) {
  if (!args.positional().empty()) {
    const std::string& verb = args.positional().front();
    if (verb == "build") return cmd_index_build(args);
    if (verb == "info") return cmd_index_info(args);
    std::fprintf(stderr, "unknown index verb '%s' (build|info)\n", verb.c_str());
    return 2;
  }
  // Legacy step-1-only form: BWT + SA to a .bwvr file.
  const std::string ref_path = args.get("ref");
  const std::string out = args.get("out", "reference.bwvr");
  if (ref_path.empty()) return usage();
  Pipeline pipeline;
  const std::string name = pipeline.compute_bwt_sa(ref_path, out);
  std::printf("indexed '%s' -> %s (%.2f s)\n", name.c_str(), out.c_str(),
              pipeline.timings().bwt_sa_seconds);
  return 0;
}

int cmd_map(const ArgParser& args) {
  const std::string index_path = args.get("index");
  const std::string store_dir = args.get("store-dir");
  const std::string ref_name = args.get("ref-name");
  const std::string reads_path = args.get("reads");
  const std::string out = args.get("out", "out.sam");
  if (reads_path.empty() || (index_path.empty() && (store_dir.empty() || ref_name.empty()))) {
    return usage();
  }

  std::string load_mode = "encode";  // built from a .bwvr index file
  const PipelineConfig config = config_from_args(args);
  Pipeline pipeline(config);
  if (!index_path.empty()) {
    pipeline.encode(index_path);
  } else {
    const LoadMode mode = load_mode_from_args(args);
    load_mode = load_mode_name(mode);
    IndexRegistry registry(store_dir);
    pipeline = Pipeline::from_archive(registry.archive_path(ref_name), config, mode);
  }

  // --profile: attach a trace for this run so the mapping loop's ambient
  // spans (map_records / shard / stage / fpga phases) are captured, then
  // dump the per-stage split alongside the span tree.
  const std::string profile_path = args.get("profile");
  std::shared_ptr<obs::Trace> trace;
  std::optional<obs::ScopedObsContext> scope;
  if (!profile_path.empty()) {
    trace = std::make_shared<obs::Trace>("map-cli");
    scope.emplace(obs::ObsContext{trace.get(), 0, nullptr});
  }

  WallTimer wall;
  const MappingOutcome outcome = pipeline.map_reads(reads_path, out);
  const double wall_ms = wall.milliseconds();
  scope.reset();

  std::printf("mapped %llu/%llu reads (%llu occurrences) -> %s\n"
              "encode %.3f s, mapping %.3f s\n",
              static_cast<unsigned long long>(outcome.mapped),
              static_cast<unsigned long long>(outcome.reads),
              static_cast<unsigned long long>(outcome.occurrences), out.c_str(),
              pipeline.timings().encode_seconds, pipeline.timings().mapping_seconds);

  if (trace != nullptr) {
    char stages[256];
    std::snprintf(stages, sizeof(stages),
                  "{\"parse_ms\":%.3f,\"pack_ms\":%.3f,\"search_ms\":%.3f,"
                  "\"locate_ms\":%.3f,\"sam_ms\":%.3f,\"queue_wait_ms\":0.000,"
                  "\"total_ms\":%.3f}",
                  outcome.stages.parse_ms, outcome.stages.pack_ms,
                  outcome.stages.search_ms, outcome.stages.locate_ms,
                  outcome.stages.sam_ms, outcome.stages.total_ms());
    char summary[256];
    std::snprintf(summary, sizeof(summary),
                  "\"wall_ms\":%.3f,\"reads\":%llu,\"mapped\":%llu,\"shards\":%llu",
                  wall_ms, static_cast<unsigned long long>(outcome.reads),
                  static_cast<unsigned long long>(outcome.mapped),
                  static_cast<unsigned long long>(outcome.shards));
    std::ofstream profile(profile_path, std::ios::trunc);
    if (!profile) {
      std::fprintf(stderr, "bwaver: cannot write profile to %s\n",
                   profile_path.c_str());
      return 1;
    }
    profile << "{" << summary << ",\"load_mode\":\"" << load_mode << "\""
            << ",\"engine\":\"" << kernels::engine_spec(config.engine).name << "\""
            << ",\"rank_kernel\":\"" << kernels::engine_kernel_name(config.engine)
            << "\",\"cpu_features\":\"" << cpu_features_string(cpu_features())
            << "\",\"stages\":" << stages << ",\"trace\":" << trace->to_json()
            << "}\n";
    std::printf("profile (stages %s, wall %.3f ms) -> %s\n", stages, wall_ms,
                profile_path.c_str());
  }
  return 0;
}

int cmd_map_approx(const ArgParser& args) {
  const std::string index_path = args.get("index");
  const std::string reads_path = args.get("reads");
  if (index_path.empty() || reads_path.empty()) return usage();
  const auto mismatches = static_cast<unsigned>(args.get_int("mismatches", 2));

  ApproxMode approx_mode = ApproxMode::kBranch;
  if (const std::string mode_arg = args.get("approx-mode"); !mode_arg.empty()) {
    approx_mode = parse_approx_mode(mode_arg);  // throws on anything else
  }
  std::size_t hit_cap =
      static_cast<std::size_t>(args.get_int("max-approx-hits", 0));
  if (hit_cap == 0) hit_cap = kDefaultApproxHitCap;

  const PipelineConfig config = config_from_args(args);
  Pipeline pipeline(config);
  pipeline.encode(index_path);
  const auto records = read_fastq(reads_path);
  const ReadBatch batch = ReadBatch::from_fastq(records);

  // Scheme mode needs the reverse-text index too; build it over the same
  // text with the same RRR geometry so both directions rank identically.
  std::unique_ptr<BidirFmIndex<RrrWaveletOcc>> bidir;
  if (approx_mode == ApproxMode::kScheme) {
    const RrrParams params = config.rrr;
    bidir = std::make_unique<BidirFmIndex<RrrWaveletOcc>>(
        pipeline.index(), pipeline.reference().concatenated().unpack(),
        [params](std::span<const std::uint8_t> symbols) {
          return RrrWaveletOcc(symbols, params);
        });
  }

  const StagedFpgaMapper mapper(pipeline.index(), DeviceSpec{}, mismatches,
                                approx_mode, bidir.get(), hit_cap);
  StagedMapReport report;
  const auto results = mapper.map(batch, &report);

  std::printf("staged approximate mapping, up to %u mismatches (%s mode)\n",
              mismatches, approx_mode_name(approx_mode));
  std::printf("%8s %10s %10s %12s %14s %14s\n", "stage", "reads in", "aligned",
              "steps", "reconf [ms]", "kernel [ms]");
  for (const auto& stage : report.stages) {
    std::printf("%6u mm %10llu %10llu %12llu %14.1f %14.3f\n", stage.mismatches,
                static_cast<unsigned long long>(stage.reads_in),
                static_cast<unsigned long long>(stage.reads_aligned),
                static_cast<unsigned long long>(stage.steps_executed),
                stage.reconfigure_seconds * 1e3, stage.kernel_seconds * 1e3);
  }
  std::size_t unaligned = 0;
  for (const auto& result : results) {
    unaligned += result.stage == StagedReadResult::kUnaligned;
  }
  std::uint64_t truncated = 0;
  for (const auto& stage : report.stages) truncated += stage.truncated_reads;
  std::printf("unaligned after all stages: %zu/%zu, modeled total %.1f ms\n", unaligned,
              results.size(), report.total_seconds() * 1e3);
  if (truncated != 0) {
    std::printf("warning: %llu read(s) hit the %zu-hit cap; loci lists truncated\n",
                static_cast<unsigned long long>(truncated), hit_cap);
  }
  return 0;
}

int cmd_map_paired(const ArgParser& args) {
  const std::string index_path = args.get("index");
  const std::string reads1 = args.get("reads1");
  const std::string reads2 = args.get("reads2");
  if (index_path.empty() || reads1.empty() || reads2.empty()) return usage();

  Pipeline pipeline(config_from_args(args));
  pipeline.encode(index_path);

  const ReadBatch mates1 = ReadBatch::from_fastq(read_fastq(reads1));
  const ReadBatch mates2 = ReadBatch::from_fastq(read_fastq(reads2));

  PairedEndConfig config;
  config.min_insert = static_cast<std::uint32_t>(args.get_int("min-insert", 100));
  config.max_insert = static_cast<std::uint32_t>(args.get_int("max-insert", 1000));
  const auto pairs =
      map_pairs(pipeline.index(), pipeline.reference(), mates1, mates2, config,
                static_cast<unsigned>(args.get_int("threads", 1)));

  std::size_t counts[4] = {0, 0, 0, 0};
  double insert_sum = 0.0;
  for (const auto& pair : pairs) {
    counts[static_cast<int>(pair.pair_class)]++;
    if (pair.pair_class == PairClass::kProperPair) insert_sum += pair.insert_size;
  }
  std::printf("pairs: %zu\n  proper:       %zu\n  discordant:   %zu\n"
              "  one unmapped: %zu\n  unmapped:     %zu\n",
              pairs.size(), counts[0], counts[1], counts[2], counts[3]);
  if (counts[0] > 0) {
    std::printf("mean insert of proper pairs: %.1f bp\n",
                insert_sum / static_cast<double>(counts[0]));
  }
  return 0;
}

int cmd_stats(const ArgParser& args) {
  const std::string index_path = args.get("index");
  if (index_path.empty()) return usage();
  Pipeline pipeline(config_from_args(args));
  pipeline.encode(index_path);
  const IndexStats stats = compute_index_stats(pipeline.index());
  std::printf("index: %s\nsequences: %zu (first: %s)\n", index_path.c_str(),
              pipeline.reference().num_sequences(), pipeline.reference_name().c_str());
  std::printf("%s", format_index_stats(stats).c_str());
  return 0;
}

int cmd_serve(const ArgParser& args) {
  WebServiceOptions options;
  options.pipeline = config_from_args(args);
  options.store_dir = args.get("store-dir");
  options.load_mode = load_mode_from_args(args);
  options.memory_budget_bytes =
      static_cast<std::size_t>(args.get_int(
          "memory-budget-mb",
          static_cast<std::int64_t>(IndexRegistry::kDefaultMemoryBudget >> 20)))
      << 20;
  options.jobs.workers = static_cast<std::size_t>(args.get_int("workers", 4));
  options.jobs.queue_capacity =
      static_cast<std::size_t>(args.get_int("max-queue", 64));
  options.jobs.default_timeout =
      std::chrono::milliseconds(args.get_int("job-timeout", 0) * 1000);
  options.http.worker_threads =
      static_cast<std::size_t>(args.get_int("http-threads", 8));
  options.http.max_body_bytes =
      static_cast<std::size_t>(args.get_int("max-body-mb", 64)) << 20;
  const std::string trace_flag = args.get("trace", "on");
  if (trace_flag == "on" || trace_flag.empty()) {
    options.trace.enabled = true;
  } else if (trace_flag == "off") {
    options.trace.enabled = false;
  } else {
    throw std::invalid_argument("unknown --trace value '" + trace_flag + "' (on|off)");
  }
  options.trace.slow_threshold_ms = args.get_double("trace-slow-ms", 0.0);
  options.trace.ring_capacity = static_cast<std::size_t>(args.get_int("trace-ring", 64));
  WebService service(options);
  service.start(static_cast<std::uint16_t>(args.get_int("port", 8080)));
  std::printf("BWaveR web service on http://127.0.0.1:%u/ (Ctrl-C to stop)\n",
              service.port());
  std::printf("job engine: %zu worker(s), queue capacity %zu\n",
              options.jobs.workers, options.jobs.queue_capacity);
  if (!options.store_dir.empty()) {
    std::printf("serving %zu reference(s) from %s\n", service.registry().size(),
                options.store_dir.c_str());
  }
  // Orchestration (multi-process tests, the CI e2e job) parses the bound
  // port from a pipe; stdio is block-buffered there, so push it out now.
  std::fflush(stdout);
  for (;;) {
    std::this_thread::sleep_for(std::chrono::seconds(60));
    std::printf("%s\n", service.stats().summary_line().c_str());
    std::fflush(stdout);
  }
}

int cmd_router(const ArgParser& args) {
  fleet::RouterOptions options;
  for (const std::string& spec : args.get_list("backend")) {
    options.backends.push_back(fleet::parse_backend(spec));
  }
  if (options.backends.empty()) {
    std::fprintf(stderr, "bwaver router: at least one --backend HOST:PORT required\n");
    return usage();
  }
  options.shard_reads = static_cast<std::size_t>(args.get_int("shard-reads", 256));
  options.hedge_quantile = args.get_double("hedge-quantile", 0.95);
  options.hedge_min_delay = std::chrono::milliseconds(args.get_int("hedge-min-ms", 20));
  options.max_attempts = static_cast<std::size_t>(args.get_int("max-attempts", 3));
  options.tenant_rate = args.get_double("tenant-rate", 0.0);
  options.tenant_burst = args.get_double("tenant-burst", 0.0);
  options.health_interval =
      std::chrono::milliseconds(args.get_int("health-interval-ms", 250));
  options.map_timeout = std::chrono::milliseconds(args.get_int("map-timeout-ms", 0));
  options.http.worker_threads =
      static_cast<std::size_t>(args.get_int("http-threads", 8));
  options.http.max_body_bytes =
      static_cast<std::size_t>(args.get_int("max-body-mb", 64)) << 20;

  fleet::RouterService router(std::move(options));
  router.start(static_cast<std::uint16_t>(args.get_int("port", 8090)));
  std::printf("BWaveR router on http://127.0.0.1:%u/ (Ctrl-C to stop)\n", router.port());
  for (const auto& snapshot : router.backends()) {
    std::printf("backend: %s\n", snapshot.key.c_str());
  }
  std::fflush(stdout);  // port line is parsed from a pipe by orchestration
  for (;;) {
    std::this_thread::sleep_for(std::chrono::seconds(60));
    std::size_t up = 0;
    for (const auto& snapshot : router.backends()) up += snapshot.up ? 1 : 0;
    std::printf("router: %zu/%zu backend(s) up\n", up, router.backends().size());
    std::fflush(stdout);
  }
}

int cmd_pipeline(const ArgParser& args) {
  const std::string ref_path = args.get("ref");
  const std::string reads_path = args.get("reads");
  const std::string out = args.get("out", "out.sam");
  if (ref_path.empty() || reads_path.empty()) return usage();

  Pipeline pipeline(config_from_args(args));
  const std::string index_path = out + ".bwvr";
  pipeline.compute_bwt_sa(ref_path, index_path);
  pipeline.encode(index_path);
  const MappingOutcome outcome = pipeline.map_reads(reads_path, out);
  std::printf("reference: %s\n", pipeline.reference_name().c_str());
  std::printf("step 1 (BWT+SA): %.3f s\nstep 2 (encode): %.3f s\nstep 3 (map): %.3f s\n",
              pipeline.timings().bwt_sa_seconds, pipeline.timings().encode_seconds,
              pipeline.timings().mapping_seconds);
  std::printf("mapped %llu/%llu reads (%llu occurrences) -> %s\n",
              static_cast<unsigned long long>(outcome.mapped),
              static_cast<unsigned long long>(outcome.reads),
              static_cast<unsigned long long>(outcome.occurrences), out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  bwaver::ArgParser args(argc - 1, argv + 1);
  try {
    if (command == "simulate-genome") return cmd_simulate_genome(args);
    if (command == "simulate-reads") return cmd_simulate_reads(args);
    if (command == "index") return cmd_index(args);
    if (command == "map") return cmd_map(args);
    if (command == "map-approx") return cmd_map_approx(args);
    if (command == "map-paired") return cmd_map_paired(args);
    if (command == "pipeline") return cmd_pipeline(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "router") return cmd_router(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bwaver: error: %s\n", e.what());
    return 1;
  }
}
