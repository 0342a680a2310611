// BWaveR web service (paper, Sec. III-D / Fig. 4): the "intuitive web
// application" front-end over the three-step pipeline, grown into a
// multi-tenant serving layer with an asynchronous mapping-job engine.
//
// Synchronous endpoints:
//   GET  /              — HTML landing page with usage instructions
//   GET  /status        — registry state and memory budget
//   GET  /references    — JSON listing of the loaded/stored references
//   POST /reference     — body: FASTA or FASTA.gz; runs steps 1+2 (the
//                         index `index build` writes, seed table included)
//                         and registers (and, with a store directory,
//                         persists) it. `?name=X` overrides the reference
//                         name (the first header line); a malformed FASTA or
//                         an invalid name is a 400, before any build
//   POST /map           — body: FASTQ or FASTQ.gz; queued as a mapping job
//                         like /jobs but waited on inline, then the SAM is
//                         returned. Shares admission control: 503 +
//                         Retry-After when the queue is full
//   POST /evict         — `?ref=X`; drops the resident copy (409 when it is
//                         the only copy: a memory-only server has no archive
//                         to reload from)
//
// Fleet endpoints (docs/fleet.md — consumed by the router/gateway):
//   GET  /healthz       — liveness: constant "ok", never touches the job
//                         queue or registry locks (sub-millisecond)
//   GET  /readyz        — readiness: "ok" while accepting work, 503 once
//                         draining; same no-lock discipline
//   POST /admin/rollover— body: FASTA[.gz]; `?ref=X` (required). Rebuilds
//                         the reference off the serving path and flips the
//                         registry to the new generation with zero
//                         downtime (in-flight maps finish on the old one)
//
// Async job endpoints (the million-user path — submit, poll, fetch):
//   POST   /jobs            — body: FASTQ[.gz]; `?ref=X&priority=high|
//                             normal|low&timeout-ms=N`. Returns 202 + JSON
//                             {"id":...} immediately, 503 when full
//   GET    /jobs            — JSON list of retained jobs, newest first
//   GET    /jobs/{id}       — JSON status/progress of one job
//   GET    /jobs/{id}/result— the SAM payload once done (409 while
//                             pending, 410 after cancel/timeout)
//   DELETE /jobs/{id}       — cooperative cancellation
//   GET    /stats           — ServerStats JSON: admission counters,
//                             queue-wait/map-time histograms, per-reference
//                             request counts
//
// Observability endpoints (docs/observability.md):
//   GET    /metrics         — Prometheus text exposition of the shared
//                             obs::MetricsRegistry (job counters, latency
//                             histograms, queue/registry gauges, per-stage
//                             mapping histograms)
//   GET    /trace/recent    — JSON ring of recent span trees; `?chrome=1`
//                             returns Chrome trace_event JSON for
//                             chrome://tracing / Perfetto
//
// Mapping work executes on the JobManager's fixed worker pool, never on
// HTTP connection threads; both /map and /jobs funnel through the same
// bounded queue, so overload sheds load instead of forking threads.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "app/http_server.hpp"
#include "jobs/job_manager.hpp"
#include "mapper/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/index_registry.hpp"

namespace bwaver {

struct WebServiceOptions {
  PipelineConfig pipeline{};
  std::string store_dir;  ///< empty: memory-only (no persistence)
  std::size_t memory_budget_bytes = IndexRegistry::kDefaultMemoryBudget;
  /// How v3 archives are materialized on acquire (--load-mode; v1/v2
  /// archives always deserialize onto the heap).
  LoadMode load_mode = default_load_mode();
  JobManagerConfig jobs{};  ///< worker count, queue capacity, timeout, GC
  HttpServerOptions http{};
  /// Tracing knobs (--trace*): span trees per job, /trace/recent ring.
  obs::TraceConfig trace{};
};

class WebService {
 public:
  explicit WebService(PipelineConfig config)
      : WebService([&config] {
          WebServiceOptions options;
          options.pipeline = config;
          return options;
        }()) {}
  explicit WebService(WebServiceOptions options = WebServiceOptions{});

  /// Starts serving on 127.0.0.1:`port` (0 = ephemeral).
  void start(std::uint16_t port = 0);
  void stop() { server_.stop(); }

  std::uint16_t port() const noexcept { return server_.port(); }
  const IndexRegistry& registry() const noexcept { return registry_; }
  JobManager& jobs() noexcept { return jobs_; }
  const ServerStats& stats() const noexcept { return jobs_.stats(); }
  obs::MetricsRegistry& metrics() noexcept { return *metrics_; }
  obs::TraceCollector& traces() noexcept { return *traces_; }

 private:
  HttpResponse handle_index() const;
  HttpResponse handle_status() const;
  HttpResponse handle_references() const;
  HttpResponse handle_reference(const HttpRequest& request);
  HttpResponse handle_rollover(const HttpRequest& request);
  HttpResponse handle_map(const HttpRequest& request);
  HttpResponse handle_evict(const HttpRequest& request);
  HttpResponse handle_job_submit(const HttpRequest& request);
  HttpResponse handle_job_list() const;
  HttpResponse handle_job_status(const HttpRequest& request) const;
  HttpResponse handle_job_result(const HttpRequest& request) const;
  HttpResponse handle_job_cancel(const HttpRequest& request);
  HttpResponse handle_stats() const;
  HttpResponse handle_metrics();
  HttpResponse handle_trace_recent(const HttpRequest& request) const;

  /// Parses, validates, and enqueues one mapping job; returns the id via
  /// `job_id` or an error response via the return value (status != 0).
  HttpResponse submit_map_job(const HttpRequest& request, JobPriority priority,
                              std::uint64_t& job_id);

  /// Resolves `?ref=` to a registry name, defaulting to the single loaded
  /// reference. Returns "" (with `error` filled) when ambiguous or unknown.
  std::string resolve_ref_name(const HttpRequest& request, HttpResponse& error) const;

  WebServiceOptions options_;
  IndexRegistry registry_;
  // Declared before jobs_: the JobManager's ServerStats registers its
  // counters into this shared registry, and workers attach job traces to
  // this collector.
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::shared_ptr<obs::TraceCollector> traces_;
  JobManager jobs_;
  std::mutex build_mutex_;  ///< serializes index *builds* (CPU-heavy), not maps
  std::mutex scrape_mutex_;  ///< serializes /metrics gauge refresh + render
  HttpServer server_;
};

}  // namespace bwaver
