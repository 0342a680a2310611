#include "app/web_service.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "fleet/map_transport.hpp"
#include "kernels/registry.hpp"
#include "mapper/map_service.hpp"
#include "util/json.hpp"

namespace bwaver {

namespace {

std::string format_ms(double ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", ms);
  return buffer;
}

std::string job_record_json(const JobRecord& record) {
  std::string json = "{\"id\":" + std::to_string(record.id);
  json += ",\"state\":\"" + std::string(to_string(record.state)) + "\"";
  json += ",\"request_id\":\"" + json_escape(record.request_id) + "\"";
  json += ",\"ref\":\"" + json_escape(record.label) + "\"";
  json += ",\"priority\":\"" + std::string(to_string(record.priority)) + "\"";
  json += ",\"queue_wait_ms\":" + format_ms(record.queue_wait_ms);
  json += ",\"run_ms\":" + format_ms(record.run_ms);
  if (!record.error.empty()) json += ",\"error\":\"" + json_escape(record.error) + "\"";
  if (!record.cancel_reason.empty()) {
    json += ",\"cancel_reason\":\"" + json_escape(record.cancel_reason) + "\"";
  }
  if (record.has_result) {
    json += ",\"result\":\"/jobs/" + std::to_string(record.id) + "/result\"";
  }
  json += "}";
  return json;
}

/// 503 with the client hint required for admission control.
HttpResponse queue_full_response() {
  HttpResponse response =
      HttpResponse::text(503, "mapping queue full; retry later\n");
  response.with_header("Retry-After", "1");
  return response;
}

bool parse_job_id(const HttpRequest& request, std::uint64_t& id) {
  const std::string raw = request.path_param("id");
  if (raw.empty() || raw.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    id = std::stoull(raw);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

JobPriority parse_priority(const std::string& name, JobPriority fallback) {
  if (name == "high") return JobPriority::kHigh;
  if (name == "normal") return JobPriority::kNormal;
  if (name == "low") return JobPriority::kLow;
  return fallback;
}

}  // namespace

WebService::WebService(WebServiceOptions options)
    : options_(std::move(options)),
      registry_(options_.store_dir, options_.memory_budget_bytes,
                options_.load_mode),
      metrics_(options_.jobs.metrics ? options_.jobs.metrics
                                     : std::make_shared<obs::MetricsRegistry>()),
      traces_(options_.jobs.traces
                  ? options_.jobs.traces
                  : std::make_shared<obs::TraceCollector>(options_.trace)),
      jobs_([this] {
        JobManagerConfig config = options_.jobs;
        config.metrics = metrics_;
        config.traces = traces_;
        return config;
      }()),
      server_(options_.http) {
  server_.route("GET", "/", [this](const HttpRequest&) { return handle_index(); });
  server_.route("GET", "/status",
                [this](const HttpRequest&) { return handle_status(); });
  server_.route("GET", "/references",
                [this](const HttpRequest&) { return handle_references(); });
  server_.route("POST", "/reference",
                [this](const HttpRequest& request) { return handle_reference(request); });
  server_.route("POST", "/admin/rollover",
                [this](const HttpRequest& request) { return handle_rollover(request); });
  // Health probes answer from immutable/atomic state only — no job-queue,
  // registry, or metrics locks — so a wedged worker pool or a long build
  // cannot make the router think the process is gone.
  server_.route("GET", "/healthz",
                [](const HttpRequest&) { return HttpResponse::text(200, "ok\n"); });
  server_.route("GET", "/readyz", [this](const HttpRequest&) {
    return server_.running() ? HttpResponse::text(200, "ok\n")
                             : HttpResponse::text(503, "draining\n");
  });
  server_.route("POST", "/map",
                [this](const HttpRequest& request) { return handle_map(request); });
  server_.route("POST", "/evict",
                [this](const HttpRequest& request) { return handle_evict(request); });
  server_.route("POST", "/jobs",
                [this](const HttpRequest& request) { return handle_job_submit(request); });
  server_.route("GET", "/jobs", [this](const HttpRequest&) { return handle_job_list(); });
  server_.route("GET", "/jobs/{id}",
                [this](const HttpRequest& request) { return handle_job_status(request); });
  server_.route("GET", "/jobs/{id}/result",
                [this](const HttpRequest& request) { return handle_job_result(request); });
  server_.route("DELETE", "/jobs/{id}",
                [this](const HttpRequest& request) { return handle_job_cancel(request); });
  server_.route("GET", "/stats", [this](const HttpRequest&) { return handle_stats(); });
  server_.route("GET", "/metrics",
                [this](const HttpRequest&) { return handle_metrics(); });
  server_.route("GET", "/trace/recent",
                [this](const HttpRequest& request) { return handle_trace_recent(request); });
}

void WebService::start(std::uint16_t port) { server_.start(port); }

HttpResponse WebService::handle_index() const {
  return HttpResponse::html(
      "<html><head><title>BWaveR</title></head><body>"
      "<h1>BWaveR &mdash; hybrid DNA sequence mapper</h1>"
      "<p>Succinct-data-structure FM-index mapping with an FPGA-modeled "
      "backend, serving multiple persisted references through an "
      "asynchronous bounded job queue.</p>"
      "<ol>"
      "<li>POST a FASTA (or FASTA.gz) reference to "
      "<code>/reference?name=X</code></li>"
      "<li>POST a FASTQ (or FASTQ.gz) read set to <code>/jobs?ref=X</code>, "
      "poll <code>/jobs/{id}</code>, then download "
      "<code>/jobs/{id}/result</code> (or POST <code>/map?ref=X</code> to "
      "wait inline)</li>"
      "</ol>"
      "<p>See <code>/references</code> for the loaded indexes, "
      "<code>/status</code> for registry state, and <code>/stats</code> for "
      "serving telemetry.</p>"
      "</body></html>");
}

HttpResponse WebService::handle_status() const {
  const auto entries = registry_.list();
  if (entries.empty()) {
    return HttpResponse::text(200, "state: no reference loaded\n");
  }
  std::size_t resident = 0;
  for (const auto& entry : entries) resident += entry.resident ? 1 : 0;
  std::string out = "state: ready\n";
  out += "references: " + std::to_string(entries.size()) + " (" +
         std::to_string(resident) + " resident)\n";
  out += "resident_bytes: " + std::to_string(registry_.resident_bytes()) + " / " +
         std::to_string(registry_.memory_budget()) + "\n";
  out += "heap_bytes: " + std::to_string(registry_.heap_bytes()) +
         ", mapped_bytes: " + std::to_string(registry_.mapped_bytes()) + "\n";
  out += "load_mode: " + std::string(load_mode_name(registry_.load_mode())) + "\n";
  if (!registry_.store_dir().empty()) {
    out += "store_dir: " + registry_.store_dir() + "\n";
  }
  out += "jobs: " + std::to_string(jobs_.queue_depth()) + " queued / " +
         std::to_string(jobs_.queue_capacity()) + " capacity, " +
         std::to_string(jobs_.workers()) + " worker(s)\n";
  for (const auto& entry : entries) {
    out += "- " + entry.name + ": " + std::to_string(entry.text_length) + " bp, " +
           std::to_string(entry.num_sequences) + " sequence(s), " +
           (entry.resident ? "resident" : "on disk") + "\n";
  }
  return HttpResponse::text(200, out);
}

HttpResponse WebService::handle_references() const {
  std::string json = "[";
  bool first = true;
  for (const auto& entry : registry_.list()) {
    if (!first) json += ",";
    first = false;
    json += "{\"name\":\"" + json_escape(entry.name) + "\"";
    json += ",\"length_bp\":" + std::to_string(entry.text_length);
    json += ",\"sequences\":" + std::to_string(entry.num_sequences);
    json += ",\"resident\":" + std::string(entry.resident ? "true" : "false");
    json += ",\"resident_bytes\":" + std::to_string(entry.resident_bytes);
    json += ",\"heap_bytes\":" + std::to_string(entry.heap_bytes);
    json += ",\"mapped_bytes\":" + std::to_string(entry.mapped_bytes);
    json += ",\"archive_bytes\":" + std::to_string(entry.archive_bytes);
    json += ",\"generation\":" + std::to_string(entry.generation);
    json += "}";
  }
  json += "]\n";
  return HttpResponse::json(200, json);
}

HttpResponse WebService::handle_reference(const HttpRequest& request) {
  if (request.content_length == 0) {
    return HttpResponse::text(400, "empty reference upload\n");
  }
  // The FASTA is packed to 2-bit codes as it arrives: the build holds the
  // packed reference, never the body or a byte per base.
  ReferenceSet reference;
  try {
    ChunkReader reader(*request.body, kRequestChunkBytes);
    reference = pack_fasta(reader);
  } catch (const std::exception& e) {
    return HttpResponse::text(400, std::string("bad FASTA: ") + e.what() + "\n");
  }
  std::string name = request.query_param("name");
  if (name.empty()) name = reference.sequence(0).name;
  // Checked before the build, which is the expensive part: a header with a
  // description ("chr21 Homo sapiens ...") is not a usable name.
  if (!IndexRegistry::valid_name(name)) {
    return HttpResponse::text(400, "invalid reference name '" + name +
                                       "' (no whitespace or '/'); pass ?name=NAME\n");
  }

  // Builds are CPU-heavy; serialize them so concurrent uploads don't thrash
  // the host. The install writes and checks the archive with no registry
  // lock held, so mapping requests keep flowing meanwhile.
  std::lock_guard<std::mutex> build_lock(build_mutex_);
  const std::size_t sequences = reference.num_sequences();
  const IndexRegistry::Handle handle =
      registry_.add(name, build_stored_index(std::move(reference), options_.pipeline));

  std::string out = "reference '" + name + "' indexed (" +
                    std::to_string(sequences) + " sequence(s), " +
                    std::to_string(handle->index.size()) + " bp)";
  if (!registry_.store_dir().empty()) {
    out += ", persisted to " + registry_.archive_path(name);
  }
  return HttpResponse::text(200, out + "\n");
}

HttpResponse WebService::handle_rollover(const HttpRequest& request) {
  const std::string name = request.query_param("ref");
  if (name.empty()) {
    return HttpResponse::text(400, "select a reference with ?ref=NAME\n");
  }
  if (!registry_.contains(name)) {
    return HttpResponse::text(404, "unknown reference '" + name +
                                       "'; use POST /reference for first registration\n");
  }
  if (request.content_length == 0) {
    return HttpResponse::text(400, "empty reference upload\n");
  }
  ReferenceSet reference;
  try {
    ChunkReader reader(*request.body, kRequestChunkBytes);
    reference = pack_fasta(reader);
  } catch (const std::exception& e) {
    return HttpResponse::text(400, std::string("bad FASTA: ") + e.what() + "\n");
  }

  // The rebuild runs outside every registry lock (mapping continues on the
  // current generation); only the final pointer flip inside rollover()
  // takes the write lock.
  std::lock_guard<std::mutex> build_lock(build_mutex_);
  try {
    registry_.rollover(name, build_stored_index(std::move(reference), options_.pipeline));
  } catch (const std::exception& e) {
    return HttpResponse::text(500, std::string("rollover failed: ") + e.what() + "\n");
  }
  const std::string json = "{\"ref\":\"" + json_escape(name) +
                           "\",\"generation\":" + std::to_string(registry_.generation(name)) +
                           "}\n";
  return HttpResponse::json(200, json);
}

std::string WebService::resolve_ref_name(const HttpRequest& request,
                                         HttpResponse& error) const {
  std::string name = request.query_param("ref");
  if (!name.empty()) {
    if (!registry_.contains(name)) {
      error = HttpResponse::text(404, "unknown reference '" + name + "'\n");
      return "";
    }
    return name;
  }
  const auto entries = registry_.list();
  if (entries.empty()) {
    error = HttpResponse::text(409, "no reference loaded; POST /reference first\n");
    return "";
  }
  if (entries.size() > 1) {
    error = HttpResponse::text(
        409, "multiple references loaded; select one with ?ref=NAME\n");
    return "";
  }
  return entries.front().name;
}

HttpResponse WebService::submit_map_job(const HttpRequest& request,
                                        JobPriority priority, std::uint64_t& job_id) {
  HttpResponse error;
  const std::string name = resolve_ref_name(request, error);
  if (name.empty()) return error;
  if (request.content_length == 0) {
    return HttpResponse::text(400, "empty read upload\n");
  }
  std::optional<std::chrono::milliseconds> timeout;
  const std::string timeout_raw = request.query_param("timeout-ms");
  if (!timeout_raw.empty()) {
    try {
      timeout = std::chrono::milliseconds(std::stoll(timeout_raw));
    } catch (const std::exception&) {
      return HttpResponse::text(400, "bad timeout-ms\n");
    }
  }

  // ?engine= overrides the service's configured engine for this job only
  // (the router forwards the client's choice through the fleet this way).
  PipelineConfig config = options_.pipeline;
  const std::string engine_raw = request.query_param("engine");
  if (!engine_raw.empty()) {
    const auto engine = kernels::parse_engine_name(engine_raw);
    if (!engine) {
      return HttpResponse::text(400, "unknown engine '" + engine_raw + "' (" +
                                         kernels::engine_choices() + ")\n");
    }
    config.engine = *engine;
  }

  // Pack the reads on the connection thread as the body arrives (one pass,
  // bounded by the body cap), so a malformed FASTQ fails fast with 400
  // instead of becoming a failed job. The job holds one batch; a plain body
  // is never held whole at all.
  std::shared_ptr<const ReadBatch> batch;
  try {
    batch = parse_request_reads(*request.body, config.engine, *metrics_);
  } catch (const std::exception& e) {
    return HttpResponse::text(400, std::string("bad FASTQ: ") + e.what() + "\n");
  }

  // The job closure is shared with the fleet transports (the worker
  // acquires the registry handle at run time, so an index evicted — or
  // rolled over — between submit and pickup is picked up fresh).
  try {
    job_id = jobs_.submit(name,
                          fleet::make_map_job(registry_, config, jobs_.stats(),
                                              name, std::move(batch)),
                          priority, timeout, request.request_id());
  } catch (const QueueFull&) {
    return queue_full_response();
  }
  jobs_.stats().record_reference(name);
  return HttpResponse{};  // status 200 marks "accepted" to the callers below
}

HttpResponse WebService::handle_map(const HttpRequest& request) {
  jobs_.stats().sync_requests.inc();
  // The synchronous path rides the same bounded queue as /jobs — one
  // admission-control point, one set of metrics — at high priority so
  // inline callers stay snappy under a backlog of batch jobs.
  std::uint64_t id = 0;
  HttpResponse submitted = submit_map_job(
      request, parse_priority(request.query_param("priority"), JobPriority::kHigh), id);
  if (submitted.status != 200 || id == 0) return submitted;

  const JobRecord record = jobs_.wait(id);
  switch (record.state) {
    case JobState::kDone: {
      // The caller waited for this result, so it moves out of the job: a
      // synchronous job retains no SAM once answered.
      auto sam = jobs_.take_result(id);
      if (!sam) return HttpResponse::text(500, "mapping result lost\n");
      return HttpResponse::bytes("text/x-sam", *std::move(sam));
    }
    case JobState::kTimedOut:
      return HttpResponse::text(503, "mapping job timed out\n");
    case JobState::kCancelled:
      return HttpResponse::text(410, "mapping job cancelled\n");
    default:
      return HttpResponse::text(500, "mapping failed: " + record.error + "\n");
  }
}

HttpResponse WebService::handle_job_submit(const HttpRequest& request) {
  jobs_.stats().async_requests.inc();
  std::uint64_t id = 0;
  HttpResponse submitted = submit_map_job(
      request, parse_priority(request.query_param("priority"), JobPriority::kNormal), id);
  if (submitted.status != 200 || id == 0) return submitted;
  const std::string json = "{\"id\":" + std::to_string(id) +
                           ",\"state\":\"queued\",\"poll\":\"/jobs/" +
                           std::to_string(id) + "\"}\n";
  return HttpResponse::json(202, json);
}

HttpResponse WebService::handle_job_list() const {
  std::string json = "[";
  bool first = true;
  for (const auto& record : jobs_.list()) {
    if (!first) json += ",";
    first = false;
    json += job_record_json(record);
  }
  json += "]\n";
  return HttpResponse::json(200, json);
}

HttpResponse WebService::handle_job_status(const HttpRequest& request) const {
  std::uint64_t id = 0;
  if (!parse_job_id(request, id)) {
    return HttpResponse::text(400, "bad job id\n");
  }
  const auto record = jobs_.status(id);
  if (!record) return HttpResponse::text(404, "unknown job " + std::to_string(id) + "\n");
  return HttpResponse::json(200, job_record_json(*record) + "\n");
}

HttpResponse WebService::handle_job_result(const HttpRequest& request) const {
  std::uint64_t id = 0;
  if (!parse_job_id(request, id)) {
    return HttpResponse::text(400, "bad job id\n");
  }
  const auto record = jobs_.status(id);
  if (!record) return HttpResponse::text(404, "unknown job " + std::to_string(id) + "\n");
  switch (record->state) {
    case JobState::kDone: {
      auto sam = jobs_.result(id);
      if (!sam) return HttpResponse::text(404, "result no longer retained\n");
      return HttpResponse::bytes("text/x-sam", *std::move(sam));
    }
    case JobState::kQueued:
    case JobState::kRunning:
      return HttpResponse::text(
          409, "job " + std::to_string(id) + " is " + to_string(record->state) + "\n");
    case JobState::kFailed:
      return HttpResponse::text(500, "job failed: " + record->error + "\n");
    case JobState::kCancelled:
      return HttpResponse::text(410, "job cancelled\n");
    case JobState::kTimedOut:
      return HttpResponse::text(410, "job timed out\n");
  }
  return HttpResponse::text(500, "unreachable\n");
}

HttpResponse WebService::handle_job_cancel(const HttpRequest& request) {
  std::uint64_t id = 0;
  if (!parse_job_id(request, id)) {
    return HttpResponse::text(400, "bad job id\n");
  }
  const auto record = jobs_.status(id);
  if (!record) return HttpResponse::text(404, "unknown job " + std::to_string(id) + "\n");
  if (!jobs_.cancel(id, request.query_param("reason", "client"))) {
    return HttpResponse::text(
        409, "job " + std::to_string(id) + " already " + to_string(record->state) + "\n");
  }
  return HttpResponse::text(202, "cancellation requested for job " +
                                     std::to_string(id) + "\n");
}

HttpResponse WebService::handle_stats() const {
  RegistryTelemetry registry;
  registry.loads_mmap = registry_.loads_mmap();
  registry.loads_copy = registry_.loads_copy();
  registry.heap_bytes = registry_.heap_bytes();
  registry.mapped_bytes = registry_.mapped_bytes();
  const auto& spec = kernels::engine_spec(options_.pipeline.engine);
  return HttpResponse::json(
      200, jobs_.stats().to_json(jobs_.queue_depth(), jobs_.queue_capacity(),
                                 jobs_.workers(), jobs_.retained(), &registry,
                                 spec.name,
                                 kernels::engine_kernel_name(spec.engine)) +
               "\n");
}

HttpResponse WebService::handle_metrics() {
  // Gauges and registry-owned counters are refreshed from their live
  // sources at scrape time; the mutex only serializes the refresh-delta
  // logic against concurrent scrapes (recording paths never touch it).
  std::lock_guard<std::mutex> lock(scrape_mutex_);
  metrics_
      ->gauge("bwaver_queue_depth", "Mapping jobs waiting in the bounded queue")
      .set(static_cast<double>(jobs_.queue_depth()));
  metrics_->gauge("bwaver_queue_capacity", "Bounded queue capacity")
      .set(static_cast<double>(jobs_.queue_capacity()));
  metrics_->gauge("bwaver_job_workers", "Job worker threads")
      .set(static_cast<double>(jobs_.workers()));
  metrics_->gauge("bwaver_jobs_retained", "Terminal jobs retained for polling")
      .set(static_cast<double>(jobs_.retained()));
  metrics_->gauge("bwaver_uptime_seconds", "Seconds since service start")
      .set(jobs_.stats().uptime_seconds());
  metrics_
      ->gauge("bwaver_registry_heap_bytes",
              "Private heap bytes of resident reference indexes")
      .set(static_cast<double>(registry_.heap_bytes()));
  metrics_
      ->gauge("bwaver_registry_mapped_bytes",
              "File-backed (mmap) bytes of resident reference indexes")
      .set(static_cast<double>(registry_.mapped_bytes()));
  metrics_
      ->gauge("bwaver_registry_resident_bytes",
              "Total resident bytes of reference indexes (heap + mapped)")
      .set(static_cast<double>(registry_.resident_bytes()));
  metrics_
      ->gauge("bwaver_registry_memory_budget_bytes",
              "Configured registry memory budget")
      .set(static_cast<double>(registry_.memory_budget()));
  metrics_
      ->gauge("bwaver_traces_completed", "Traces completed since start")
      .set(static_cast<double>(traces_->completed()));
  // One series per section of each resident reference, rebuilt per scrape
  // so evicted references and dropped sections leave no stale series.
  constexpr const char* kSectionBytes = "bwaver_index_section_bytes";
  constexpr const char* kSectionBytesHelp =
      "Resident bytes of each index section (heap or mapped), by reference";
  metrics_->clear_gauges(kSectionBytes);
  for (const RegistryEntry& entry : registry_.list()) {
    for (const SectionFootprint& section : entry.sections) {
      metrics_
          ->gauge(kSectionBytes, kSectionBytesHelp,
                  {{"ref", entry.name}, {"section", section.name}})
          .set(static_cast<double>(section.bytes));
    }
  }
  // Monotonic sources owned by IndexRegistry: advance the exported counter
  // by the delta since the last scrape (guarded by scrape_mutex_).
  const auto sync_counter = [this](const char* name, const char* help,
                                   const obs::Labels& labels, std::uint64_t current) {
    obs::Counter& c = metrics_->counter(name, help, labels);
    const std::uint64_t seen = c.value();
    if (current > seen) c.inc(current - seen);
  };
  sync_counter("bwaver_registry_loads_total", "Archive loads served, by path",
               {{"mode", "mmap"}}, registry_.loads_mmap());
  sync_counter("bwaver_registry_loads_total", "Archive loads served, by path",
               {{"mode", "copy"}}, registry_.loads_copy());
  sync_counter("bwaver_registry_evictions_total",
               "Resident index copies dropped, by cause", {{"cause", "explicit"}},
               registry_.evictions_explicit());
  sync_counter("bwaver_registry_evictions_total",
               "Resident index copies dropped, by cause", {{"cause", "budget"}},
               registry_.evictions_budget());

  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = metrics_->render_prometheus();
  return response;
}

HttpResponse WebService::handle_trace_recent(const HttpRequest& request) const {
  if (request.query_param("chrome") == "1") {
    // One flat Chrome trace_event array over the retained traces (each
    // event's args carry its trace_id, so chrome://tracing keeps them
    // distinguishable).
    const auto traces = traces_->recent();
    std::string events = "[";
    bool first = true;
    for (const auto& trace : traces) {
      std::string one = trace->chrome_json();
      // Strip the per-trace [ ] and splice.
      if (one.size() <= 2) continue;
      if (!first) events += ",";
      first = false;
      events.append(one, 1, one.size() - 2);
    }
    events += "]\n";
    return HttpResponse::json(200, events);
  }
  std::string json = "{\"enabled\":";
  json += traces_->config().enabled ? "true" : "false";
  json += ",\"completed\":" + std::to_string(traces_->completed());
  json += ",\"retained\":" + std::to_string(traces_->retained());
  json += ",\"slow_threshold_ms\":" + format_ms(traces_->config().slow_threshold_ms);
  json += ",\"traces\":" + traces_->recent_json() + "}\n";
  return HttpResponse::json(200, json);
}

HttpResponse WebService::handle_evict(const HttpRequest& request) {
  const std::string name = request.query_param("ref");
  if (name.empty()) {
    return HttpResponse::text(400, "select a reference with ?ref=NAME\n");
  }
  if (!registry_.contains(name)) {
    return HttpResponse::text(404, "unknown reference '" + name + "'\n");
  }
  if (registry_.store_dir().empty()) {
    return HttpResponse::text(409, "reference '" + name +
                                       "' has no archive to reload from; a server "
                                       "without --store-dir keeps every reference "
                                       "resident\n");
  }
  const bool evicted = registry_.evict(name);
  return HttpResponse::text(200, std::string(evicted ? "evicted" : "not resident") +
                                     ": " + name + "\n");
}

}  // namespace bwaver
