#include "obs/trace.hpp"

#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

#include "util/json.hpp"

namespace bwaver::obs {

namespace {

using Clock = std::chrono::steady_clock;

thread_local ObsContext g_context;

std::string format_ms(double ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", ms);
  return buffer;
}

}  // namespace

Trace::Trace(std::string id, std::size_t max_spans)
    : id_(std::move(id)), max_spans_(max_spans == 0 ? 1 : max_spans),
      epoch_(Clock::now()) {}

std::uint32_t Trace::thread_ordinal_locked() {
  const std::uint64_t hashed = std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (std::size_t i = 0; i < thread_ids_.size(); ++i) {
    if (thread_ids_[i] == hashed) return static_cast<std::uint32_t>(i);
  }
  thread_ids_.push_back(hashed);
  return static_cast<std::uint32_t>(thread_ids_.size() - 1);
}

std::uint32_t Trace::begin(std::string_view name, std::uint32_t parent) {
  const double start_ms = elapsed_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return 0;
  }
  SpanRecord record;
  record.id = static_cast<std::uint32_t>(spans_.size() + 1);
  record.parent = parent;
  record.name.assign(name);
  record.start_ms = start_ms;
  record.tid = thread_ordinal_locked();
  spans_.push_back(std::move(record));
  return spans_.back().id;
}

void Trace::end(std::uint32_t span) {
  if (span == 0) return;
  const double now_ms = elapsed_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  if (span > spans_.size()) return;
  SpanRecord& record = spans_[span - 1];
  if (record.dur_ms < 0.0) record.dur_ms = now_ms - record.start_ms;
}

std::uint32_t Trace::emit(std::string_view name, std::uint32_t parent, double start_ms,
                          double dur_ms) {
  if (dur_ms < 0.0) dur_ms = 0.0;
  if (start_ms < 0.0) start_ms = elapsed_ms() - dur_ms;
  if (start_ms < 0.0) start_ms = 0.0;
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return 0;
  }
  SpanRecord record;
  record.id = static_cast<std::uint32_t>(spans_.size() + 1);
  record.parent = parent;
  record.name.assign(name);
  record.start_ms = start_ms;
  record.dur_ms = dur_ms;
  record.tid = thread_ordinal_locked();
  spans_.push_back(std::move(record));
  return spans_.back().id;
}

double Trace::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch_).count();
}

std::size_t Trace::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::uint64_t Trace::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<SpanRecord> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string Trace::to_json() const {
  const auto snapshot = spans();
  // Total: the end of the last-finishing root span (open spans count as
  // still running up to the trace's current elapsed time).
  double total_ms = 0.0;
  for (const auto& span : snapshot) {
    const double end = span.start_ms + (span.dur_ms < 0.0 ? 0.0 : span.dur_ms);
    if (end > total_ms) total_ms = end;
  }
  std::string json = "{\"trace_id\":\"" + json_escape(id_) + "\"";
  json += ",\"total_ms\":" + format_ms(total_ms);
  json += ",\"dropped_spans\":" + std::to_string(dropped());
  json += ",\"spans\":[";
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const SpanRecord& span = snapshot[i];
    if (i > 0) json += ",";
    json += "{\"id\":" + std::to_string(span.id);
    json += ",\"parent\":" + std::to_string(span.parent);
    json += ",\"name\":\"" + json_escape(span.name) + "\"";
    json += ",\"start_ms\":" + format_ms(span.start_ms);
    json += ",\"dur_ms\":" + format_ms(span.dur_ms < 0.0 ? 0.0 : span.dur_ms);
    json += ",\"tid\":" + std::to_string(span.tid);
    json += "}";
  }
  json += "]}";
  return json;
}

std::string Trace::chrome_json() const {
  const auto snapshot = spans();
  std::string json = "[";
  bool first = true;
  for (const auto& span : snapshot) {
    if (!first) json += ",";
    first = false;
    json += "{\"name\":\"" + json_escape(span.name) + "\"";
    json += ",\"cat\":\"bwaver\",\"ph\":\"X\",\"pid\":1";
    json += ",\"tid\":" + std::to_string(span.tid);
    json += ",\"ts\":" + format_ms(span.start_ms * 1000.0);
    json += ",\"dur\":" + format_ms((span.dur_ms < 0.0 ? 0.0 : span.dur_ms) * 1000.0);
    json += ",\"args\":{\"trace_id\":\"" + json_escape(id_) + "\"";
    json += ",\"span\":" + std::to_string(span.id);
    json += ",\"parent\":" + std::to_string(span.parent) + "}}";
  }
  json += "]";
  return json;
}

const ObsContext& current_context() { return g_context; }

ScopedObsContext::ScopedObsContext(ObsContext context) : saved_(g_context) {
  g_context = context;
}

ScopedObsContext::~ScopedObsContext() { g_context = saved_; }

TraceSpan::TraceSpan(std::string_view name) {
  if (g_context.trace == nullptr) return;
  trace_ = g_context.trace;
  saved_parent_ = g_context.parent_span;
  id_ = trace_->begin(name, saved_parent_);
  if (id_ != 0) g_context.parent_span = id_;
}

TraceSpan::~TraceSpan() {
  if (trace_ == nullptr) return;
  if (id_ != 0) {
    g_context.parent_span = saved_parent_;
    trace_->end(id_);
  }
}

TraceCollector::TraceCollector(TraceConfig config) : config_(config) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
}

std::shared_ptr<Trace> TraceCollector::start_trace(std::string id) {
  if (!config_.enabled) return nullptr;
  return std::make_shared<Trace>(std::move(id), config_.max_spans_per_trace);
}

void TraceCollector::finish(const std::shared_ptr<Trace>& trace) {
  if (trace == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++completed_;
  double total_ms = 0.0;
  for (const auto& span : trace->spans()) {
    const double end = span.start_ms + (span.dur_ms < 0.0 ? 0.0 : span.dur_ms);
    if (end > total_ms) total_ms = end;
  }
  if (total_ms < config_.slow_threshold_ms) return;
  ring_.push_back(trace);
  while (ring_.size() > config_.ring_capacity) ring_.pop_front();
}

std::vector<std::shared_ptr<const Trace>> TraceCollector::recent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.rbegin(), ring_.rend()};
}

std::string TraceCollector::recent_json() const {
  const auto traces = recent();
  std::string json = "[";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) json += ",";
    json += traces[i]->to_json();
  }
  json += "]";
  return json;
}

std::uint64_t TraceCollector::completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

std::uint64_t TraceCollector::retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

}  // namespace bwaver::obs
