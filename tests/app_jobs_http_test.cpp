// End-to-end exercise of the async mapping-job subsystem over loopback
// HTTP: submit -> poll -> fetch, byte-identity with the synchronous path,
// admission control (503 + Retry-After), cancellation, and /stats.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "app/web_service.hpp"
#include "fmindex/dna.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"

namespace bwaver {
namespace {

using namespace std::chrono_literals;

struct HttpReply {
  int status = 0;
  std::string headers;
  std::string body;
  std::string raw;
};

/// Blocking loopback HTTP client good enough for tests.
HttpReply http_request(std::uint16_t port, const std::string& method,
                       const std::string& path, const std::string& body = "") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::string request = method + " " + path + " HTTP/1.1\r\nHost: localhost\r\n";
  // These helpers read the response until EOF, so opt out of keep-alive.
  request += "Connection: close\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));

  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  HttpReply reply;
  reply.raw = response;
  if (response.size() > 12) reply.status = std::atoi(response.c_str() + 9);
  const std::size_t split = response.find("\r\n\r\n");
  if (split != std::string::npos) {
    reply.headers = response.substr(0, split);
    reply.body = response.substr(split + 4);
  }
  return reply;
}

std::uint64_t parse_job_id(const std::string& json) {
  const std::size_t pos = json.find("\"id\":");
  EXPECT_NE(pos, std::string::npos) << json;
  return std::strtoull(json.c_str() + pos + 5, nullptr, 10);
}

std::string json_state(const std::string& json) {
  const std::size_t pos = json.find("\"state\":\"");
  if (pos == std::string::npos) return "";
  const std::size_t begin = pos + 9;
  return json.substr(begin, json.find('"', begin) - begin);
}

class JobsHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GenomeSimConfig config;
    config.length = 20000;
    config.seed = 5;
    genome_codes_ = simulate_genome(config);

    const FastaRecord ref{"jobs_ref", dna_decode_string(genome_codes_)};
    fasta_text_ = format_fasta(std::span<const FastaRecord>(&ref, 1));

    ReadSimConfig rc;
    rc.num_reads = 80;
    rc.read_length = 40;
    rc.mapping_ratio = 1.0;
    const auto reads = simulate_reads(genome_codes_, rc);
    fastq_text_ = format_fastq(reads_to_fastq(reads));

    WebServiceOptions options;
    options.jobs.workers = 2;
    options.jobs.queue_capacity = 4;
    service_ = std::make_unique<WebService>(options);
    service_->start(0);

    const auto upload =
        http_request(service_->port(), "POST", "/reference", fasta_text_);
    ASSERT_EQ(upload.status, 200) << upload.raw;
  }

  void TearDown() override {
    // Unpin any worker-occupying jobs so shutdown's drain can finish.
    for (const auto& record : service_->jobs().list()) {
      if (!is_terminal(record.state)) service_->jobs().cancel(record.id);
    }
    service_->stop();
  }

  std::string poll_until_done(std::uint64_t id, std::chrono::seconds budget = 10s) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      const auto reply =
          http_request(service_->port(), "GET", "/jobs/" + std::to_string(id));
      EXPECT_EQ(reply.status, 200) << reply.raw;
      const std::string state = json_state(reply.body);
      if (state == "done") return state;
      if (state != "queued" && state != "running") return state;
      std::this_thread::sleep_for(5ms);
    }
    return "poll timeout";
  }

  std::vector<std::uint8_t> genome_codes_;
  std::string fasta_text_;
  std::string fastq_text_;
  std::unique_ptr<WebService> service_;
};

TEST_F(JobsHttpTest, AsyncFlowMatchesSynchronousSamByteForByte) {
  // Async: submit, poll, fetch.
  const auto submit = http_request(service_->port(), "POST", "/jobs", fastq_text_);
  EXPECT_EQ(submit.status, 202) << submit.raw;
  const std::uint64_t id = parse_job_id(submit.body);
  EXPECT_GT(id, 0u);
  EXPECT_EQ(poll_until_done(id), "done");
  const auto result =
      http_request(service_->port(), "GET", "/jobs/" + std::to_string(id) + "/result");
  EXPECT_EQ(result.status, 200) << result.raw;
  EXPECT_NE(result.headers.find("text/x-sam"), std::string::npos);

  // Sync: same reads through POST /map.
  const auto sync = http_request(service_->port(), "POST", "/map", fastq_text_);
  EXPECT_EQ(sync.status, 200) << sync.raw;

  EXPECT_EQ(result.body, sync.body) << "async and sync SAM must be byte-identical";
  EXPECT_NE(result.body.find("@SQ\tSN:jobs_ref"), std::string::npos);
  EXPECT_NE(result.body.find("40M"), std::string::npos);
}

TEST_F(JobsHttpTest, JobStatusReportsQueueAndRunTimes) {
  const auto submit = http_request(service_->port(), "POST", "/jobs", fastq_text_);
  const std::uint64_t id = parse_job_id(submit.body);
  EXPECT_EQ(poll_until_done(id), "done");
  const auto status =
      http_request(service_->port(), "GET", "/jobs/" + std::to_string(id));
  EXPECT_NE(status.body.find("\"queue_wait_ms\":"), std::string::npos);
  EXPECT_NE(status.body.find("\"run_ms\":"), std::string::npos);
  EXPECT_NE(status.body.find("\"result\":\"/jobs/"), std::string::npos);

  const auto list = http_request(service_->port(), "GET", "/jobs");
  EXPECT_EQ(list.status, 200);
  EXPECT_NE(list.body.find("\"id\":" + std::to_string(id)), std::string::npos);
}

TEST_F(JobsHttpTest, SynchronousMapRetainsNoResult) {
  // POST /map hands its SAM to the client and the job keeps none; an async
  // job's result stays retained for polling.
  const auto sync = http_request(service_->port(), "POST", "/map", fastq_text_);
  ASSERT_EQ(sync.status, 200) << sync.raw;
  const auto submit = http_request(service_->port(), "POST", "/jobs", fastq_text_);
  const std::uint64_t async_id = parse_job_id(submit.body);
  ASSERT_EQ(poll_until_done(async_id), "done");

  std::uint64_t sync_id = 0;
  for (const JobRecord& record : service_->jobs().list()) {
    if (record.id != async_id && record.state == JobState::kDone) sync_id = record.id;
  }
  ASSERT_NE(sync_id, 0u);
  const auto status =
      http_request(service_->port(), "GET", "/jobs/" + std::to_string(sync_id));
  EXPECT_EQ(status.status, 200);
  EXPECT_NE(status.body.find("\"state\":\"done\""), std::string::npos) << status.body;
  EXPECT_EQ(status.body.find("\"result\""), std::string::npos) << status.body;
  EXPECT_EQ(
      http_request(service_->port(), "GET", "/jobs/" + std::to_string(sync_id) + "/result")
          .status,
      404);

  const auto async_result = http_request(
      service_->port(), "GET", "/jobs/" + std::to_string(async_id) + "/result");
  EXPECT_EQ(async_result.status, 200);
  EXPECT_EQ(async_result.body, sync.body);
}

TEST_F(JobsHttpTest, UnknownAndMalformedJobIdsAreRejected) {
  EXPECT_EQ(http_request(service_->port(), "GET", "/jobs/999999").status, 404);
  EXPECT_EQ(http_request(service_->port(), "GET", "/jobs/abc").status, 400);
  EXPECT_EQ(http_request(service_->port(), "GET", "/jobs/999999/result").status, 404);
  EXPECT_EQ(http_request(service_->port(), "DELETE", "/jobs/999999").status, 404);
}

TEST_F(JobsHttpTest, ResultBeforeCompletionIs409) {
  // Pin both workers so the job stays queued long enough to poll it.
  std::vector<std::uint64_t> pinned;
  for (int i = 0; i < 2; ++i) {
    pinned.push_back(service_->jobs().submit(
        "pin", [](const CancelToken& cancel) {
          for (int spin = 0; spin < 200 && !cancel.stop_requested(); ++spin) {
            std::this_thread::sleep_for(1ms);
          }
          return std::string{};
        },
        JobPriority::kHigh));
  }
  for (const auto pin : pinned) {
    while (service_->jobs().status(pin)->state != JobState::kRunning) {
      std::this_thread::sleep_for(1ms);
    }
  }
  const auto submit = http_request(service_->port(), "POST", "/jobs", fastq_text_);
  ASSERT_EQ(submit.status, 202);
  const std::uint64_t id = parse_job_id(submit.body);
  const auto early =
      http_request(service_->port(), "GET", "/jobs/" + std::to_string(id) + "/result");
  EXPECT_EQ(early.status, 409) << early.raw;
  for (const auto pin : pinned) service_->jobs().cancel(pin);
  EXPECT_EQ(poll_until_done(id), "done");
}

TEST_F(JobsHttpTest, FullQueueReturns503WithRetryAfter) {
  // Pin both workers, then fill the queue (capacity 4) and overflow it.
  std::vector<std::uint64_t> pins;
  for (int i = 0; i < 2; ++i) {
    pins.push_back(service_->jobs().submit(
        "pin", [](const CancelToken& cancel) {
          while (!cancel.stop_requested()) std::this_thread::sleep_for(1ms);
          return std::string{};
        },
        JobPriority::kHigh));
  }
  // Both pins must be *running* (not queued) before the queue is counted.
  for (const auto pin : pins) {
    while (service_->jobs().status(pin)->state != JobState::kRunning) {
      std::this_thread::sleep_for(1ms);
    }
  }
  int accepted = 0;
  int rejected = 0;
  HttpReply last_rejection;
  for (int i = 0; i < 10; ++i) {
    const auto reply = http_request(service_->port(), "POST", "/jobs", fastq_text_);
    if (reply.status == 202) {
      ++accepted;
    } else {
      ASSERT_EQ(reply.status, 503) << reply.raw;
      last_rejection = reply;
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 4) << "exactly the queue capacity must be admitted";
  EXPECT_EQ(rejected, 6);
  EXPECT_NE(last_rejection.headers.find("Retry-After:"), std::string::npos)
      << last_rejection.raw;
  // The synchronous path shares the same admission control.
  const auto sync = http_request(service_->port(), "POST", "/map", fastq_text_);
  EXPECT_EQ(sync.status, 503) << sync.raw;
  // Stats observed every rejection (7 = 6 async + 1 sync).
  const auto stats = http_request(service_->port(), "GET", "/stats");
  EXPECT_NE(stats.body.find("\"rejected_queue_full\":7"), std::string::npos)
      << stats.body;
}

TEST_F(JobsHttpTest, DeleteCancelsQueuedJob) {
  std::vector<std::uint64_t> pins;
  for (int i = 0; i < 2; ++i) {
    pins.push_back(service_->jobs().submit(
        "pin", [](const CancelToken& cancel) {
          while (!cancel.stop_requested()) std::this_thread::sleep_for(1ms);
          return std::string{};
        },
        JobPriority::kHigh));
  }
  for (const auto pin : pins) {
    while (service_->jobs().status(pin)->state != JobState::kRunning) {
      std::this_thread::sleep_for(1ms);
    }
  }
  const auto submit = http_request(service_->port(), "POST", "/jobs", fastq_text_);
  ASSERT_EQ(submit.status, 202);
  const std::uint64_t id = parse_job_id(submit.body);

  const auto cancelled =
      http_request(service_->port(), "DELETE", "/jobs/" + std::to_string(id));
  EXPECT_EQ(cancelled.status, 202) << cancelled.raw;
  const auto status = http_request(service_->port(), "GET", "/jobs/" + std::to_string(id));
  EXPECT_EQ(json_state(status.body), "cancelled");
  const auto result =
      http_request(service_->port(), "GET", "/jobs/" + std::to_string(id) + "/result");
  EXPECT_EQ(result.status, 410) << result.raw;
  const auto again =
      http_request(service_->port(), "DELETE", "/jobs/" + std::to_string(id));
  EXPECT_EQ(again.status, 409) << "cancel of a terminal job conflicts";
}

TEST_F(JobsHttpTest, JobTimeoutSurfacesAsTimedOut) {
  const auto submit = http_request(service_->port(), "POST",
                                   "/jobs?timeout-ms=1", fastq_text_);
  ASSERT_EQ(submit.status, 202);
  const std::uint64_t id = parse_job_id(submit.body);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  std::string state;
  while (std::chrono::steady_clock::now() < deadline) {
    state = json_state(
        http_request(service_->port(), "GET", "/jobs/" + std::to_string(id)).body);
    if (state != "queued" && state != "running") break;
    std::this_thread::sleep_for(2ms);
  }
  // A 1 ms budget can expire while queued or at the first in-map
  // checkpoint; either way it must surface as timed_out (done would mean
  // the deadline was ignored — possible only if mapping beat the clock,
  // which 80 reads cannot on this genome... but accept it defensively).
  EXPECT_TRUE(state == "timed_out" || state == "done") << state;
  if (state == "timed_out") {
    const auto result = http_request(service_->port(), "GET",
                                     "/jobs/" + std::to_string(id) + "/result");
    EXPECT_EQ(result.status, 410);
  }
}

TEST_F(JobsHttpTest, StatsReportNonZeroHistogramsAfterLoad) {
  for (int i = 0; i < 3; ++i) {
    const auto sync = http_request(service_->port(), "POST", "/map", fastq_text_);
    ASSERT_EQ(sync.status, 200);
  }
  const auto submit = http_request(service_->port(), "POST", "/jobs", fastq_text_);
  ASSERT_EQ(submit.status, 202);
  EXPECT_EQ(poll_until_done(parse_job_id(submit.body)), "done");

  const auto stats = http_request(service_->port(), "GET", "/stats");
  ASSERT_EQ(stats.status, 200);
  const std::string& json = stats.body;
  EXPECT_NE(json.find("\"submitted\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"completed\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sync_requests\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"async_requests\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"per_reference\":{\"jobs_ref\":4}"), std::string::npos) << json;
  // Non-zero queue-wait and map-time histograms.
  const std::size_t qw = json.find("\"queue_wait_ms\":{\"count\":4");
  EXPECT_NE(qw, std::string::npos) << json;
  const std::size_t mt = json.find("\"map_time_ms\":{\"count\":4");
  EXPECT_NE(mt, std::string::npos) << json;
  EXPECT_EQ(json.find("\"sum_ms\":-"), std::string::npos) << "negative histogram sum";
}

TEST_F(JobsHttpTest, OversizedBodyIs413) {
  WebServiceOptions options;
  options.http.max_body_bytes = 1024;
  WebService tiny(options);
  tiny.start(0);
  const std::string big(4096, 'A');
  const auto reply = http_request(tiny.port(), "POST", "/reference", big);
  EXPECT_EQ(reply.status, 413) << reply.raw;
  tiny.stop();
}

TEST_F(JobsHttpTest, BadFastqIsRejectedAtSubmitNotAsFailedJob) {
  const auto reply =
      http_request(service_->port(), "POST", "/jobs", "this is not fastq at all");
  EXPECT_EQ(reply.status, 400) << reply.raw;
}

/// Value of one exposition sample (exact series name incl. labels), or -1.
double metric_value(const std::string& text, const std::string& series) {
  const std::size_t pos = text.find("\n" + series + " ");
  if (pos == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + pos + 1 + series.size() + 1, nullptr);
}

TEST_F(JobsHttpTest, MetricsEndpointServesPrometheusAndCountersMove) {
  const auto before = http_request(service_->port(), "GET", "/metrics");
  ASSERT_EQ(before.status, 200) << before.raw;
  EXPECT_NE(before.headers.find("text/plain; version=0.0.4"), std::string::npos)
      << before.headers;
  const double sync_before =
      metric_value(before.body, "bwaver_map_requests_total{mode=\"sync\"}");

  const auto sync = http_request(service_->port(), "POST", "/map", fastq_text_);
  ASSERT_EQ(sync.status, 200);
  const auto submit = http_request(service_->port(), "POST", "/jobs", fastq_text_);
  ASSERT_EQ(submit.status, 202);
  EXPECT_EQ(poll_until_done(parse_job_id(submit.body)), "done");

  const auto after = http_request(service_->port(), "GET", "/metrics");
  const std::string& text = after.body;
  EXPECT_EQ(metric_value(text, "bwaver_map_requests_total{mode=\"sync\"}"),
            sync_before + 1.0);
  EXPECT_GE(metric_value(text, "bwaver_map_requests_total{mode=\"async\"}"), 1.0);
  EXPECT_GE(metric_value(text, "bwaver_jobs_submitted_total"), 2.0);
  EXPECT_GE(metric_value(text, "bwaver_jobs_finished_total{state=\"done\"}"), 2.0);
  EXPECT_GE(metric_value(text, "bwaver_reads_mapped_total"), 160.0);
  // Queue/admission and registry gauges refreshed at scrape time.
  EXPECT_GE(metric_value(text, "bwaver_queue_capacity"), 4.0);
  EXPECT_GE(metric_value(text, "bwaver_job_workers"), 2.0);
  EXPECT_GE(metric_value(text, "bwaver_registry_heap_bytes"), 0.0);
  EXPECT_GE(metric_value(text, "bwaver_registry_memory_budget_bytes"), 1.0);
  // Latency and per-stage histograms: +Inf bucket == _count, count moved.
  const double run_count = metric_value(text, "bwaver_job_run_seconds_count");
  EXPECT_GE(run_count, 2.0);
  EXPECT_EQ(metric_value(text, "bwaver_job_run_seconds_bucket{le=\"+Inf\"}"),
            run_count);
  // Both requests were parsed on their connection threads, and no stage
  // called "seed" times packing any more.
  const double parse_count =
      metric_value(text,
                   "bwaver_map_stage_seconds_count{engine=\"fpga\",stage=\"parse\"}");
  EXPECT_GE(parse_count, 2.0);
  EXPECT_EQ(metric_value(text,
                         "bwaver_map_stage_seconds_bucket{engine=\"fpga\","
                         "stage=\"parse\",le=\"+Inf\"}"),
            parse_count);
  EXPECT_EQ(text.find("stage=\"seed\""), std::string::npos);
  for (const char* stage : {"search", "locate", "sam"}) {
    EXPECT_GE(metric_value(text,
                           std::string("bwaver_map_stage_seconds_count{engine=\"fpga\","
                                       "stage=\"") +
                               stage + "\"}"),
              2.0)
        << stage;
  }

  // Minimal grammar sweep: every non-comment line is `series value` with a
  // valid metric name; every family has HELP and TYPE before its samples.
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    const std::string name = series.substr(0, series.find('{'));
    EXPECT_TRUE(obs::MetricsRegistry::valid_metric_name(name)) << line;
    char* end = nullptr;
    std::strtod(line.c_str() + space + 1, &end);
    EXPECT_EQ(*end, '\0') << "bad sample value: " << line;
  }
}

TEST_F(JobsHttpTest, RequestIdIsMintedEchoedAndAttachedToJobs) {
  // No header supplied: the server mints one and echoes it.
  const auto minted = http_request(service_->port(), "GET", "/stats");
  EXPECT_NE(minted.headers.find("X-Request-Id: req-"), std::string::npos)
      << minted.headers;

  // A custom socket request carrying our own id: echoed verbatim.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(service_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::string request = "POST /jobs HTTP/1.1\r\nHost: localhost\r\n";
  request += "X-Request-Id: test-req-42\r\n";
  request += "Content-Length: " + std::to_string(fastq_text_.size()) + "\r\n\r\n";
  request += fastq_text_;
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("X-Request-Id: test-req-42"), std::string::npos)
      << response;

  // The id travels into the job object (and is its trace id).
  const std::uint64_t id = parse_job_id(response);
  ASSERT_GT(id, 0u);
  EXPECT_EQ(poll_until_done(id), "done");
  const auto status =
      http_request(service_->port(), "GET", "/jobs/" + std::to_string(id));
  EXPECT_NE(status.body.find("\"request_id\":\"test-req-42\""), std::string::npos)
      << status.body;

  const auto traces = http_request(service_->port(), "GET", "/trace/recent");
  ASSERT_EQ(traces.status, 200);
  EXPECT_NE(traces.body.find("\"trace_id\":\"test-req-42\""), std::string::npos)
      << traces.body;
}

/// dur_ms of the first span named `name` inside a /trace/recent document.
double span_dur_ms(const std::string& json, const std::string& name) {
  const std::size_t at = json.find("\"name\":\"" + name + "\"");
  if (at == std::string::npos) return -1.0;
  const std::size_t dur = json.find("\"dur_ms\":", at);
  if (dur == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + dur + 9, nullptr);
}

TEST_F(JobsHttpTest, TraceRecentSpanTreeStageSumTracksWall) {
  // A dedicated CPU-engine service: software stage times are real wall
  // time, so at threads == 1 the per-stage sum must track the map span.
  // (The FPGA engine's search span is modeled device time by design.)
  WebServiceOptions options;
  options.pipeline.engine = MappingEngine::kCpu;
  options.jobs.workers = 1;
  WebService service(options);
  service.start(0);
  ASSERT_EQ(
      http_request(service.port(), "POST", "/reference", fasta_text_).status, 200);

  // A heavier batch than the fixture's so the stage sum dwarfs timer
  // granularity: 2000 reads of 40 bp.
  ReadSimConfig rc;
  rc.num_reads = 2000;
  rc.read_length = 40;
  rc.mapping_ratio = 1.0;
  rc.seed = 11;
  const std::string big_fastq =
      format_fastq(reads_to_fastq(simulate_reads(genome_codes_, rc)));
  const auto submit = http_request(service.port(), "POST", "/jobs", big_fastq);
  ASSERT_EQ(submit.status, 202) << submit.raw;
  const std::uint64_t id = parse_job_id(submit.body);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  std::string state;
  do {
    state = json_state(
        http_request(service.port(), "GET", "/jobs/" + std::to_string(id)).body);
    std::this_thread::sleep_for(5ms);
  } while ((state == "queued" || state == "running") &&
           std::chrono::steady_clock::now() < deadline);
  ASSERT_EQ(state, "done");

  const auto traces = http_request(service.port(), "GET", "/trace/recent");
  ASSERT_EQ(traces.status, 200);
  const std::string& json = traces.body;
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos) << json;

  // The reads were packed on the connection thread, so the job's stages are
  // search, locate and sam.
  const double map_ms = span_dur_ms(json, "map_records");
  const double stage_sum =
      span_dur_ms(json, "search") + span_dur_ms(json, "locate") + span_dur_ms(json, "sam");
  ASSERT_GT(map_ms, 0.0) << json;
  ASSERT_GE(stage_sum, 0.0) << json;
  EXPECT_NEAR(stage_sum, map_ms, 0.1 * map_ms)
      << "stage sum " << stage_sum << " ms vs map span " << map_ms << " ms";
  // The job root span and queue wait are present too.
  EXPECT_NE(json.find("\"name\":\"job:"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"queue_wait\""), std::string::npos) << json;

  // Chrome export: one spliced trace_event array.
  const auto chrome = http_request(service.port(), "GET", "/trace/recent?chrome=1");
  ASSERT_EQ(chrome.status, 200);
  EXPECT_EQ(chrome.body.front(), '[');
  EXPECT_NE(chrome.body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.headers.find("application/json"), std::string::npos);
  service.stop();
}

TEST_F(JobsHttpTest, TraceDisabledServiceReportsDisabled) {
  WebServiceOptions options;
  options.trace.enabled = false;
  WebService service(options);
  service.start(0);
  const auto traces = http_request(service.port(), "GET", "/trace/recent");
  ASSERT_EQ(traces.status, 200);
  EXPECT_NE(traces.body.find("\"enabled\":false"), std::string::npos) << traces.body;
  EXPECT_NE(traces.body.find("\"traces\":[]"), std::string::npos) << traces.body;
  service.stop();
}

}  // namespace
}  // namespace bwaver
