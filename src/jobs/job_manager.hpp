// Asynchronous job engine: a fixed worker pool (util/thread_pool) draining
// the bounded priority JobQueue, with a per-job state machine
//
//     queued -> running -> done | failed
//        \         \-----> cancelled | timed_out
//         \------> cancelled | timed_out          (never picked up)
//
// Jobs are opaque callables returning a payload string (the web service
// submits mapping closures; tests submit synthetic ones), given a
// CancelToken that carries both the DELETE /jobs/{id} cancel flag and the
// per-job deadline. Terminal jobs are retained for polling and garbage-
// collected by age and count. All admission (sync /map and async /jobs)
// funnels through submit(), so QueueFull is the single 503 source and
// ServerStats sees every request.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "jobs/job_queue.hpp"
#include "jobs/server_stats.hpp"
#include "obs/trace.hpp"
#include "util/cancellation.hpp"
#include "util/thread_pool.hpp"

namespace bwaver {

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled, kTimedOut };

const char* to_string(JobState state);
bool is_terminal(JobState state);

struct JobManagerConfig {
  std::size_t workers = 4;
  std::size_t queue_capacity = 64;
  /// 0 = no deadline. Applies from submit time (queue wait counts against
  /// it — a job that waited its whole budget times out without running).
  std::chrono::milliseconds default_timeout{0};
  /// Terminal jobs older than this are GC'd (0 = immediately collectable).
  std::chrono::milliseconds retention{std::chrono::minutes(10)};
  /// Hard cap on retained terminal jobs (oldest evicted first).
  std::size_t max_retained = 1024;
  /// Shared metrics registry backing ServerStats (null = private registry).
  std::shared_ptr<obs::MetricsRegistry> metrics;
  /// Trace sink for per-job span trees (null = tracing off; jobs then run
  /// with only the ambient metrics context installed).
  std::shared_ptr<obs::TraceCollector> traces;
};

/// Immutable status snapshot handed to the HTTP layer.
struct JobRecord {
  std::uint64_t id = 0;
  std::string label;  ///< e.g. the target reference name
  JobPriority priority = JobPriority::kNormal;
  JobState state = JobState::kQueued;
  std::string request_id;        ///< trace-context id (X-Request-Id or job-<id>)
  std::string error;             ///< non-empty for kFailed
  std::string cancel_reason;     ///< who/why, for kCancelled ("client", "hedge-lost")
  double queue_wait_ms = 0.0;    ///< submit -> pickup (or now, while queued)
  double run_ms = 0.0;           ///< pickup -> finish (or now, while running)
  bool has_result = false;  ///< done, with its payload still retained
};

class JobManager {
 public:
  /// A job body: runs on a worker, polls `cancel` at checkpoints, returns
  /// the result payload (SAM for mapping jobs). Throwing OperationCancelled
  /// classifies as cancelled/timed-out; any other exception as failed.
  using JobFn = std::function<std::string(const CancelToken& cancel)>;

  explicit JobManager(JobManagerConfig config = JobManagerConfig{});
  ~JobManager();
  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Admits a job or throws QueueFull (counted in stats as a rejection).
  /// `timeout` overrides the config default; nullopt keeps it. `request_id`
  /// becomes the job's trace-context id (empty = derive "job-<id>").
  std::uint64_t submit(std::string label, JobFn fn,
                       JobPriority priority = JobPriority::kNormal,
                       std::optional<std::chrono::milliseconds> timeout = std::nullopt,
                       std::string request_id = {});

  std::optional<JobRecord> status(std::uint64_t id) const;

  /// Result payload once kDone; nullopt otherwise (or once taken).
  std::optional<std::string> result(std::uint64_t id) const;

  /// Moves the payload of a kDone job out, once: a synchronous caller that
  /// waited for its job takes the result instead of copying it, and the
  /// retained job then keeps none (status() reports has_result false and
  /// result() nullopt). nullopt if the job is not done or already taken.
  std::optional<std::string> take_result(std::uint64_t id);

  /// Requests cooperative cancellation. True if the job exists and was not
  /// already terminal (the final state may still become timed_out if the
  /// deadline fires first at a checkpoint). `reason` is an operator-facing
  /// tag recorded on the job and counted per-label in
  /// bwaver_jobs_cancel_requests_total (sanitized to [a-z0-9_-], so the
  /// router's "hedge-lost" cancels are distinguishable from client ones).
  bool cancel(std::uint64_t id, std::string reason = "client");

  /// Blocks until the job reaches a terminal state; throws
  /// std::out_of_range for unknown ids (e.g. already GC'd).
  JobRecord wait(std::uint64_t id);

  /// Snapshot of all retained jobs, newest first.
  std::vector<JobRecord> list() const;

  ServerStats& stats() noexcept { return stats_; }
  const ServerStats& stats() const noexcept { return stats_; }
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t queue_capacity() const noexcept { return queue_.capacity(); }
  std::size_t workers() const noexcept { return config_.workers; }
  std::size_t retained() const;

  /// Stops admission, drains queued jobs (they run), joins the workers.
  /// Idempotent; called by the destructor.
  void shutdown();

 private:
  struct Job;

  void worker_loop();
  void run_job(const std::shared_ptr<Job>& job);
  void finish(const std::shared_ptr<Job>& job, JobState state, std::string payload,
              std::string error);
  /// Ends the job's root span and files the trace with the collector.
  /// Callers hold job->m (each terminal transition closes exactly once).
  void close_trace_locked(Job& job);
  JobRecord snapshot(const Job& job) const;
  /// Sweeps terminal jobs past retention and enforces max_retained. Callers
  /// hold jobs_mutex_. The just-submitted `keep_id` is never collected.
  void gc_locked(std::uint64_t keep_id);

  JobManagerConfig config_;
  ServerStats stats_;
  JobQueue<std::shared_ptr<Job>> queue_;
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex jobs_mutex_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;  ///< ordered: id == age
  std::uint64_t next_id_ = 1;
  bool shut_down_ = false;
};

}  // namespace bwaver
