#include "jobs/job_manager.hpp"

#include <condition_variable>

#include "util/logging.hpp"

namespace bwaver {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Cancel reasons become metric label values; clamp them to a safe
/// alphabet and length so callers cannot mint unbounded label sets.
std::string sanitize_cancel_reason(std::string reason) {
  if (reason.empty()) return "client";
  if (reason.size() > 32) reason.resize(32);
  for (char& c : reason) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) c = '_';
  }
  return reason;
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kTimedOut: return "timed_out";
  }
  return "?";
}

bool is_terminal(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}

struct JobManager::Job {
  std::uint64_t id = 0;
  std::string label;
  std::string request_id;
  JobPriority priority = JobPriority::kNormal;
  JobFn fn;  ///< empty once a worker takes it or the job ends while queued
  CancelToken cancel;
  Clock::time_point submitted;

  // Per-job trace (null when the manager has no collector). The root span
  // covers submit -> terminal; queue_wait and run nest under it. Guarded by
  // `m` like the rest of the mutable state.
  std::shared_ptr<obs::Trace> trace;
  std::uint32_t root_span = 0;

  // The mutable half of the state machine, guarded by `m`; `cv` fires on
  // every transition so wait() can block on terminality.
  mutable std::mutex m;
  std::condition_variable cv;
  JobState state = JobState::kQueued;
  std::string payload;
  bool payload_taken = false;  ///< take_result() moved the payload out
  std::string error;
  std::string cancel_reason;
  Clock::time_point started;
  Clock::time_point finished;
};

JobManager::JobManager(JobManagerConfig config)
    : config_([&config] {
        if (config.workers == 0) config.workers = 1;
        if (config.queue_capacity == 0) config.queue_capacity = 1;
        return config;
      }()),
      stats_(config_.metrics),
      queue_(config_.queue_capacity),
      pool_(std::make_unique<ThreadPool>(config_.workers)) {
  for (std::size_t i = 0; i < config_.workers; ++i) {
    pool_->post([this] { worker_loop(); });
  }
}

JobManager::~JobManager() { shutdown(); }

std::uint64_t JobManager::submit(std::string label, JobFn fn, JobPriority priority,
                                 std::optional<std::chrono::milliseconds> timeout,
                                 std::string request_id) {
  auto job = std::make_shared<Job>();
  job->label = std::move(label);
  job->request_id = std::move(request_id);
  job->priority = priority;
  job->fn = std::move(fn);
  job->submitted = Clock::now();
  const auto effective_timeout = timeout.value_or(config_.default_timeout);
  if (effective_timeout.count() > 0) {
    job->cancel.set_deadline(job->submitted + effective_timeout);
  }

  std::lock_guard<std::mutex> lock(jobs_mutex_);
  if (shut_down_) throw std::runtime_error("JobManager: submit after shutdown");
  job->id = next_id_;
  if (job->request_id.empty()) job->request_id = "job-" + std::to_string(job->id);
  if (config_.traces) {
    job->trace = config_.traces->start_trace(job->request_id);
    if (job->trace) job->root_span = job->trace->begin("job:" + job->label);
  }
  // Record before publishing to the queue so a worker can never be running a
  // job that status() does not yet know about.
  jobs_.emplace(job->id, job);
  if (!queue_.try_push(job, priority)) {
    jobs_.erase(job->id);
    stats_.rejected_full.inc();
    throw QueueFull(queue_.capacity());
  }
  ++next_id_;
  stats_.submitted.inc();
  gc_locked(job->id);
  return job->id;
}

void JobManager::worker_loop() {
  while (auto popped = queue_.pop()) {
    run_job(*popped);
  }
}

void JobManager::run_job(const std::shared_ptr<Job>& job) {
  // The closure owns the request's parsed reads; the job gives it up as it
  // starts, and it dies before the job is published terminal, so a
  // finished job retains only its result.
  JobFn fn;
  {
    std::lock_guard<std::mutex> lock(job->m);
    if (is_terminal(job->state)) return;  // cancelled while queued
    if (job->cancel.deadline_passed()) {
      // Spent its whole budget waiting — never runs.
      job->fn = nullptr;
      job->state = JobState::kTimedOut;
      job->error = "deadline expired while queued";
      job->finished = Clock::now();
      stats_.timed_out.inc();
      if (job->trace) {
        job->trace->emit("queue_wait", job->root_span, 0.0,
                         ms_between(job->submitted, job->finished));
      }
      close_trace_locked(*job);
      job->cv.notify_all();
      return;
    }
    fn = std::move(job->fn);
    job->fn = nullptr;
    job->state = JobState::kRunning;
    job->started = Clock::now();
    const double wait_ms = ms_between(job->submitted, job->started);
    stats_.queue_wait.observe_ms(wait_ms);
    if (job->trace) job->trace->emit("queue_wait", job->root_span, 0.0, wait_ms);
  }

  // Ambient context for the job body: the metrics registry always (so the
  // mapping stages find their histograms), the trace only when one exists.
  obs::ObsContext context;
  context.trace = job->trace.get();
  context.parent_span = job->root_span;
  context.metrics = stats_.metrics.get();
  obs::ScopedObsContext scoped(context);

  JobState state = JobState::kDone;
  std::string payload;
  std::string error;
  try {
    obs::TraceSpan run_span("run");
    payload = fn(job->cancel);
  } catch (const OperationCancelled&) {
    // The checkpoint fired: classify by which stop reason was raised. An
    // explicit DELETE wins over a deadline that also happens to be past.
    state = job->cancel.cancel_requested() ? JobState::kCancelled : JobState::kTimedOut;
    error = to_string(state);
  } catch (const std::exception& e) {
    state = JobState::kFailed;
    error = e.what();
  } catch (...) {
    state = JobState::kFailed;
    error = "unknown error";
  }
  fn = nullptr;
  finish(job, state, std::move(payload), std::move(error));
}

void JobManager::finish(const std::shared_ptr<Job>& job, JobState state,
                        std::string payload, std::string error) {
  {
    std::lock_guard<std::mutex> lock(job->m);
    job->state = state;
    job->payload = std::move(payload);
    job->error = std::move(error);
    job->finished = Clock::now();
    if (state == JobState::kDone) {
      stats_.map_time.observe_ms(ms_between(job->started, job->finished));
    }
    // Counters must be bumped before any waiter can observe the terminal
    // state, so a wait()+stats() pair always sees consistent accounting.
    switch (state) {
      case JobState::kDone:
        stats_.completed.inc();
        break;
      case JobState::kFailed:
        stats_.failed.inc();
        LOG_WARN << "job " << job->id << " (" << job->label
                 << ") failed: " << job->error;
        break;
      case JobState::kCancelled:
        stats_.cancelled.inc();
        break;
      case JobState::kTimedOut:
        stats_.timed_out.inc();
        break;
      default:
        break;
    }
    close_trace_locked(*job);
  }
  job->cv.notify_all();
}

void JobManager::close_trace_locked(Job& job) {
  if (!job.trace) return;
  job.trace->end(job.root_span);
  if (config_.traces) config_.traces->finish(job.trace);
}

JobRecord JobManager::snapshot(const Job& job) const {
  std::lock_guard<std::mutex> lock(job.m);
  JobRecord record;
  record.id = job.id;
  record.label = job.label;
  record.request_id = job.request_id;
  record.priority = job.priority;
  record.state = job.state;
  record.error = job.error;
  record.cancel_reason = job.cancel_reason;
  const auto now = Clock::now();
  switch (job.state) {
    case JobState::kQueued:
      record.queue_wait_ms = ms_between(job.submitted, now);
      break;
    case JobState::kRunning:
      record.queue_wait_ms = ms_between(job.submitted, job.started);
      record.run_ms = ms_between(job.started, now);
      break;
    default:
      record.queue_wait_ms = ms_between(
          job.submitted, job.started == Clock::time_point{} ? job.finished : job.started);
      if (job.started != Clock::time_point{}) {
        record.run_ms = ms_between(job.started, job.finished);
      }
      break;
  }
  record.has_result = job.state == JobState::kDone && !job.payload_taken;
  return record;
}

std::optional<JobRecord> JobManager::status(std::uint64_t id) const {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    job = it->second;
  }
  return snapshot(*job);
}

std::optional<std::string> JobManager::result(std::uint64_t id) const {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    job = it->second;
  }
  std::lock_guard<std::mutex> lock(job->m);
  if (job->state != JobState::kDone || job->payload_taken) return std::nullopt;
  return job->payload;
}

std::optional<std::string> JobManager::take_result(std::uint64_t id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    job = it->second;
  }
  std::lock_guard<std::mutex> lock(job->m);
  if (job->state != JobState::kDone || job->payload_taken) return std::nullopt;
  job->payload_taken = true;
  std::string payload = std::move(job->payload);
  job->payload = std::string();  // release the buffer, not just its contents
  return payload;
}

bool JobManager::cancel(std::uint64_t id, std::string reason) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    job = it->second;
  }
  const std::string tag = sanitize_cancel_reason(std::move(reason));
  {
    std::lock_guard<std::mutex> lock(job->m);
    if (is_terminal(job->state)) return false;
    stats_.metrics
        ->counter("bwaver_jobs_cancel_requests_total",
                  "Cancellation requests accepted, by reason", {{"reason", tag}})
        .inc();
    job->cancel_reason = tag;
    job->cancel.request_cancel();
    if (job->state == JobState::kQueued) {
      // Transition immediately so polls see "cancelled" without waiting for
      // a worker to reach it; the worker skips terminal jobs on pickup.
      job->fn = nullptr;
      job->state = JobState::kCancelled;
      job->finished = Clock::now();
      stats_.cancelled.inc();
      close_trace_locked(*job);
    }
  }
  job->cv.notify_all();
  return true;
}

JobRecord JobManager::wait(std::uint64_t id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) throw std::out_of_range("JobManager: unknown job id");
    job = it->second;
  }
  {
    std::unique_lock<std::mutex> lock(job->m);
    job->cv.wait(lock, [&job] { return is_terminal(job->state); });
  }
  return snapshot(*job);
}

std::vector<JobRecord> JobManager::list() const {
  std::vector<std::shared_ptr<Job>> held;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    held.reserve(jobs_.size());
    for (auto it = jobs_.rbegin(); it != jobs_.rend(); ++it) held.push_back(it->second);
  }
  std::vector<JobRecord> records;
  records.reserve(held.size());
  for (const auto& job : held) records.push_back(snapshot(*job));
  return records;
}

std::size_t JobManager::retained() const {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  return jobs_.size();
}

void JobManager::gc_locked(std::uint64_t keep_id) {
  const auto now = Clock::now();
  std::size_t terminal = 0;
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    if (it->first == keep_id) {
      // Never collect the job this submit just created, even if a worker
      // already finished it and the retention window is zero.
      ++it;
      continue;
    }
    const auto& job = *it->second;
    bool drop = false;
    {
      std::lock_guard<std::mutex> lock(job.m);
      if (is_terminal(job.state)) {
        ++terminal;
        drop = now - job.finished > config_.retention;
      }
    }
    if (drop) {
      --terminal;
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
  // Age cap: evict the oldest terminal jobs beyond max_retained (ids are
  // monotonic, so map order is age order).
  for (auto it = jobs_.begin(); terminal > config_.max_retained && it != jobs_.end();) {
    if (it->first == keep_id) {
      ++it;
      continue;
    }
    bool drop = false;
    {
      std::lock_guard<std::mutex> lock(it->second->m);
      drop = is_terminal(it->second->state);
    }
    if (drop) {
      --terminal;
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
}

void JobManager::shutdown() {
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queue_.close();
  pool_.reset();  // joins the workers after the queue drains
}

}  // namespace bwaver
