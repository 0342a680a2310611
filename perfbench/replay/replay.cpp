// Layer replay for the served-request benchmark (perfbench/run.py).
//
// Replays the request bodies of one traced benchmark window through the
// public functions the server calls, one span around each call, and writes
// the spans as a Chrome trace_event JSON array. The benchmark derives its
// per-layer metrics from the spans' self times.
//
//   bwaver_replay --store DIR --ref NAME --fasta REF.fa --requests LIST
//                 --out TRACE.json
//
// LIST holds one "<body.fq>\t<served.sam>" pair per line. Each body is parsed
// (io.parse_fastq) and mapped by the job body the server runs,
// fleet::make_map_job (mapper.run), with a metrics registry installed so the
// stage split map_records_over publishes becomes child spans
// (mapper.pack/search/locate/sam); the rest of mapper.run is engine
// preparation. The job's SAM must equal the served SAM byte for byte; the
// program exits 3 when one differs. Then the reference is rebuilt in process
// (build.sa_bwt, build.encode) and rolled over (store.rollover), as
// POST /admin/rollover does.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/map_transport.hpp"
#include "fmindex/bwt.hpp"
#include "fmindex/dna.hpp"
#include "fmindex/suffix_array.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "jobs/server_stats.hpp"
#include "mapper/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/index_archive.hpp"
#include "store/index_registry.hpp"
#include "util/cancellation.hpp"

namespace {

using namespace bwaver;
using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int id = 0;
  int parent = 0;  // 0: top level
  std::string args;  // extra JSON members, each with a leading comma
};

class Recorder {
 public:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  int add(std::string name, double ts_us, double dur_us, int parent = 0,
          std::string args = {}) {
    spans_.push_back(Span{std::move(name), ts_us, dur_us, next_id_, parent, std::move(args)});
    return next_id_++;
  }
  template <typename Fn>
  int time(std::string name, Fn&& fn, std::string args = {}) {
    const double start = now_us();
    fn();
    return add(std::move(name), start, now_us() - start, 0, std::move(args));
  }
  std::string chrome_json() const {
    std::string out = "[";
    for (const Span& s : spans_) {
      char head[256];
      std::snprintf(head, sizeof(head),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%d",
                    out.size() > 1 ? ",\n" : "", s.name.c_str(), s.ts_us, s.dur_us, s.id);
      out += head;
      if (s.parent != 0) out += ",\"parent\":" + std::to_string(s.parent);
      out += s.args + "}}";
    }
    return out + "]\n";
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int next_id_ = 1;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Summed seconds of each bwaver_map_stage_seconds stage, read from the
/// Prometheus exposition the registry renders for GET /metrics.
std::vector<std::pair<std::string, double>> stage_sums(const obs::MetricsRegistry& metrics) {
  std::vector<std::pair<std::string, double>> out;
  std::istringstream text(metrics.render_prometheus());
  const std::string prefix = "bwaver_map_stage_seconds_sum{";
  for (std::string line; std::getline(text, line);) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t at = line.find("stage=\"");
    const std::size_t close = line.rfind('}');
    if (at == std::string::npos || close == std::string::npos) continue;
    const std::size_t start = at + 7;
    out.emplace_back(line.substr(start, line.find('"', start) - start),
                     std::stod(line.substr(close + 1)));
  }
  return out;
}

/// The server's stage names, mapped to the benchmark's layer names (the
/// server's "seed" stage times batch packing).
std::string stage_span_name(const std::string& stage) {
  return "mapper." + (stage == "seed" ? std::string("pack") : stage);
}

struct Options {
  std::string store, ref, fasta, requests, out;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--store") o.store = value;
    else if (flag == "--ref") o.ref = value;
    else if (flag == "--fasta") o.fasta = value;
    else if (flag == "--requests") o.requests = value;
    else if (flag == "--out") o.out = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (o.store.empty() || o.ref.empty() || o.fasta.empty() || o.requests.empty() ||
      o.out.empty()) {
    throw std::invalid_argument(
        "usage: bwaver_replay --store DIR --ref NAME --fasta REF.fa --requests LIST "
        "--out TRACE.json");
  }
  return o;
}

/// The configuration `bwaver serve --engine epr --threads 1` maps with.
PipelineConfig serve_config() {
  PipelineConfig config;
  config.engine = MappingEngine::kEpr;
  config.threads = 1;
  return config;
}

int run(const Options& o) {
  Recorder rec;
  IndexRegistry registry(o.store, IndexRegistry::kDefaultMemoryBudget, LoadMode::kMmap);
  rec.time("store.acquire", [&] { registry.acquire(o.ref); });

  const ArchiveInfo info = read_index_archive_info(registry.archive_path(o.ref));
  std::string sections;
  for (const auto& section : info.sections) {
    sections += ",\"" + section.name + "\":" + std::to_string(section.length);
  }
  rec.add("store.info", rec.now_us(), 0.0, 0,
          ",\"text_length\":" + std::to_string(info.text_length) +
              ",\"file_bytes\":" + std::to_string(info.file_bytes) +
              ",\"sections\":{" + sections.substr(sections.empty() ? 0 : 1) + "}");

  const PipelineConfig config = serve_config();
  ServerStats stats;
  std::ifstream list(o.requests);
  int mismatches = 0;
  int request = 0;
  for (std::string line; std::getline(list, line); ++request) {
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    const std::string body = slurp(line.substr(0, tab));
    const std::string served = slurp(line.substr(tab + 1));
    const std::string tag = ",\"request\":" + std::to_string(request);

    std::shared_ptr<const std::vector<FastqRecord>> records;
    rec.time("io.parse_fastq", [&] {
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(body.data());
      records = std::make_shared<const std::vector<FastqRecord>>(
          parse_fastq(std::span<const std::uint8_t>(bytes, body.size())));
    }, tag);

    obs::MetricsRegistry metrics;
    std::string sam;
    const double start = rec.now_us();
    {
      const obs::ScopedObsContext scope(obs::ObsContext{nullptr, 0, &metrics});
      const JobManager::JobFn job =
          fleet::make_map_job(registry, config, stats, o.ref, records);
      const CancelToken never;
      sam = job(never);
    }
    const double dur = rec.now_us() - start;
    const bool same = sam == served;
    mismatches += same ? 0 : 1;
    const int run_id =
        rec.add("mapper.run", start, dur, 0,
                tag + ",\"reads\":" + std::to_string(records->size()) +
                    ",\"sam_identical\":" + (same ? "true" : "false"));
    // Stages run after engine preparation, so lay them out at the end of
    // the run span; its self time is then the unattributed preparation.
    const auto stages = stage_sums(metrics);
    double staged_us = 0.0;
    for (const auto& [stage, seconds] : stages) staged_us += seconds * 1e6;
    double at = start + dur - staged_us;
    for (const auto& [stage, seconds] : stages) {
      rec.add(stage_span_name(stage), at, seconds * 1e6, run_id);
      at += seconds * 1e6;
    }
  }

  ReferenceSet reference;
  for (const auto& record : read_fasta(o.fasta)) {
    reference.add(record.name, dna_encode_string(record.sequence, /*substitute_invalid=*/true));
  }
  std::vector<std::uint32_t> sa;
  Bwt bwt;
  rec.time("build.sa_bwt", [&] {
    sa = build_suffix_array(reference.concatenated());
    bwt = build_bwt(reference.concatenated(), sa);
  });
  std::unique_ptr<FmIndex<RrrWaveletOcc>> index;
  rec.time("build.encode", [&] {
    const RrrParams params = config.rrr;
    index = std::make_unique<FmIndex<RrrWaveletOcc>>(
        std::move(bwt), std::move(sa), [params](std::span<const std::uint8_t> symbols) {
          return RrrWaveletOcc(symbols, params);
        });
  });
  rec.time("store.rollover", [&] {
    registry.rollover(o.ref, StoredIndex{std::move(reference), std::move(*index), nullptr,
                                         nullptr, LoadMode::kCopy});
  }, ",\"generation\":" + std::to_string(registry.generation(o.ref) + 1));

  std::ofstream out(o.out, std::ios::trunc);
  out << rec.chrome_json();
  if (!out) throw std::runtime_error("cannot write " + o.out);
  std::printf("replayed %d request(s), %d SAM mismatch(es)\n", request, mismatches);
  return mismatches == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bwaver_replay: error: %s\n", e.what());
    return 1;
  }
}
