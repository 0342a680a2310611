// The map-serving surface, extracted behind a transport.
//
// Everything above this interface (router, tests, future clients) speaks
// one verb — "map this FASTQ against that reference" — and everything
// below it is a deployment choice: InProcessTransport drives the local
// JobManager/IndexRegistry directly (exactly the path POST /map takes
// today), HttpMapTransport drives a remote replica over the job API
// (submit, poll, fetch). Both produce byte-identical SAM for the same
// request, which is what lets the router fan shards across replicas and
// splice the results back together.
//
// Failure is uniform too: every transport throws TransportError (typed —
// see http_client.hpp) so the router can decide retry/failover/hedge from
// the kind alone.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/http_client.hpp"
#include "io/fastq.hpp"
#include "jobs/job_manager.hpp"
#include "mapper/pipeline.hpp"
#include "mapper/read_batch.hpp"
#include "store/index_registry.hpp"

namespace bwaver::fleet {

/// One mapping request as the transport sees it.
struct MapRequest {
  std::string ref;            ///< registry name of the reference
  std::string fastq;          ///< FASTQ text (uncompressed)
  std::string request_id;     ///< correlation id, forwarded end to end
  std::string tenant;         ///< admission-control identity ("" = anonymous)
  /// Registry engine name overriding the backend's configured engine
  /// ("" = backend default); forwarded end to end like the request id.
  std::string engine;
  /// Per-job deadline forwarded to the backend (0 = backend default).
  std::chrono::milliseconds timeout{0};
};

class MapTransport {
 public:
  virtual ~MapTransport() = default;

  /// Blocks until the request is mapped and returns the SAM document.
  /// Throws TransportError on any failure. A non-null `give_up` flag is
  /// polled while waiting; once another thread sets it (this attempt lost
  /// a hedge race) the transport cancels the backend job — so the
  /// replica's cancel counters move and its worker frees up — and throws
  /// TransportError{kCancelled}.
  virtual std::string map(const MapRequest& request,
                          const std::atomic<bool>* give_up = nullptr) = 0;

  /// Stable identity for logs/metrics ("inproc", "127.0.0.1:8081").
  virtual std::string name() const = 0;
};

/// Builds the mapping-job closure shared by every in-process submitter
/// (WebService's /map and /jobs handlers, InProcessTransport) over a batch
/// the connection thread packed (parse_request_reads): acquire the
/// registry handle at *run* time (an index evicted between submit and
/// pickup is transparently reloaded), map with cooperative cancellation,
/// account reads/shards into `stats`. The job returns the SAM document.
JobManager::JobFn make_map_job(IndexRegistry& registry, PipelineConfig config,
                               ServerStats& stats, std::string ref,
                               std::shared_ptr<const ReadBatch> batch);

/// The same job over parsed records, through the records adapter
/// (map_records_over); kept for tests and the benchmark's layer replay.
JobManager::JobFn make_map_job(IndexRegistry& registry, PipelineConfig config,
                               ServerStats& stats, std::string ref,
                               std::shared_ptr<const std::vector<FastqRecord>> records);

/// Transport over the local JobManager — the single-process deployment.
/// Requests ride the same bounded queue and worker pool as HTTP traffic,
/// so admission control and metrics see them identically.
class InProcessTransport : public MapTransport {
 public:
  InProcessTransport(IndexRegistry& registry, JobManager& jobs, PipelineConfig config)
      : registry_(registry), jobs_(jobs), config_(std::move(config)) {}

  std::string map(const MapRequest& request,
                  const std::atomic<bool>* give_up = nullptr) override;
  std::string name() const override { return "inproc"; }

 private:
  IndexRegistry& registry_;
  JobManager& jobs_;
  PipelineConfig config_;
};

/// Transport over a replica's HTTP job API: POST /jobs, poll /jobs/{id}
/// with a growing interval, fetch /jobs/{id}/result; DELETE the job when
/// told to give up. HTTP statuses and terminal job states are folded into
/// TransportErrorKind so callers never parse replica responses.
class HttpMapTransport : public MapTransport {
 public:
  /// `client` is shared so every transport to every backend draws from one
  /// keep-alive connection pool.
  HttpMapTransport(std::shared_ptr<HttpClient> client, std::string host,
                   std::uint16_t port);

  std::string map(const MapRequest& request,
                  const std::atomic<bool>* give_up = nullptr) override;
  std::string name() const override { return host_ + ":" + std::to_string(port_); }

  /// Poll pacing (exposed for tests; defaults grow 2ms -> 50ms).
  void set_poll_interval(std::chrono::milliseconds initial, std::chrono::milliseconds max) {
    poll_initial_ = initial;
    poll_max_ = max;
  }

 private:
  /// Maps a non-2xx submit/poll/fetch response onto a typed throw.
  [[noreturn]] void throw_http(const ClientResponse& response, const std::string& what);

  std::shared_ptr<HttpClient> client_;
  std::string host_;
  std::uint16_t port_;
  std::chrono::milliseconds poll_initial_{2};
  std::chrono::milliseconds poll_max_{50};
};

}  // namespace bwaver::fleet
