// Hierarchical trace spans with a per-request trace context.
//
// A Trace is one request's (or one CLI batch run's) tree of timed spans:
// the job layer opens the root and queue-wait spans, the mapping loop adds
// the per-stage spans (parse or pack / search / locate / sam), shard workers nest
// theirs under the stage that dispatched them, and the FPGA / staged
// mappers append modeled-time phase spans. Span recording takes a mutex —
// spans are coarse (a handful per request), so contention is nil.
//
// Propagation is ambient: ScopedObsContext installs {trace, parent span,
// metrics registry} in a thread-local slot, TraceSpan reads it. When no
// context is installed (tracing off, or sampling skipped the request)
// TraceSpan construction is a thread-local load and a null check — the
// "compiled to a no-op RAII" cheapness the serving benches guard (<2%
// overhead, bench_job_throughput trace_overhead_pct).
//
// Completed traces land in a TraceCollector: a bounded ring of the most
// recent requests at/above a slowness threshold, exported as summary JSON
// (GET /trace/recent) or Chrome trace_event JSON (chrome://tracing,
// Perfetto) for the slow-request post-mortems the paper does with OpenCL
// event profiling.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bwaver::obs {

class MetricsRegistry;

struct SpanRecord {
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;  ///< 0 for roots
  std::string name;
  double start_ms = 0.0;  ///< relative to the trace epoch
  double dur_ms = -1.0;   ///< -1 while the span is open
  std::uint32_t tid = 0;  ///< small per-trace thread ordinal
};

class Trace {
 public:
  static constexpr std::size_t kDefaultMaxSpans = 512;

  explicit Trace(std::string id, std::size_t max_spans = kDefaultMaxSpans);

  const std::string& id() const noexcept { return id_; }

  /// Opens a span; returns its id (0 when the span cap was hit — every
  /// later call on that id is a no-op, `dropped()` counts the loss).
  std::uint32_t begin(std::string_view name, std::uint32_t parent = 0);
  void end(std::uint32_t span);

  /// Appends an already-timed span (modeled FPGA phases, queue waits whose
  /// endpoints were captured elsewhere). `start_ms` is relative to the
  /// trace epoch; negative start means "ends now, lasted dur_ms". Returns
  /// the span id (0 when dropped at the cap).
  std::uint32_t emit(std::string_view name, std::uint32_t parent, double start_ms,
                     double dur_ms);

  /// Milliseconds since the trace epoch.
  double elapsed_ms() const;

  /// Span count and spans dropped over max_spans.
  std::size_t size() const;
  std::uint64_t dropped() const;

  std::vector<SpanRecord> spans() const;

  /// One JSON object: {"trace_id":...,"total_ms":...,"spans":[...]}.
  std::string to_json() const;

  /// Chrome trace_event array ("X" complete events, microsecond
  /// timestamps), loadable in chrome://tracing and Perfetto.
  std::string chrome_json() const;

 private:
  std::uint32_t thread_ordinal_locked();

  std::string id_;
  std::size_t max_spans_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint64_t> thread_ids_;  ///< hashed std::thread::id -> ordinal
  std::uint64_t dropped_ = 0;
};

/// The ambient observability context: which trace (and parent span) spans
/// attach to, and which registry ambient stage metrics record into.
struct ObsContext {
  Trace* trace = nullptr;
  std::uint32_t parent_span = 0;
  MetricsRegistry* metrics = nullptr;
};

/// The calling thread's current context (all-null when none installed).
const ObsContext& current_context();

/// Installs `context` for the current thread, restoring the previous one on
/// destruction. Used at request/job boundaries and when a worker thread
/// picks up a shard on behalf of a traced request.
class ScopedObsContext {
 public:
  explicit ScopedObsContext(ObsContext context);
  ~ScopedObsContext();
  ScopedObsContext(const ScopedObsContext&) = delete;
  ScopedObsContext& operator=(const ScopedObsContext&) = delete;

 private:
  ObsContext saved_;
};

/// RAII span against the ambient context; a no-op when no trace is
/// installed. While alive, nested TraceSpans on the same thread parent to
/// it.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// The underlying span id (0 when tracing is off).
  std::uint32_t id() const noexcept { return id_; }

 private:
  Trace* trace_ = nullptr;
  std::uint32_t id_ = 0;
  std::uint32_t saved_parent_ = 0;
};

struct TraceConfig {
  bool enabled = true;
  /// Completed traces shorter than this never enter the ring (0 keeps all).
  double slow_threshold_ms = 0.0;
  /// Ring capacity: most recent qualifying traces retained.
  std::size_t ring_capacity = 64;
  std::size_t max_spans_per_trace = Trace::kDefaultMaxSpans;
};

/// Bounded ring of recently completed traces. start_trace() returns null
/// when tracing is disabled — callers treat a null trace as "don't
/// instrument".
class TraceCollector {
 public:
  explicit TraceCollector(TraceConfig config = TraceConfig{});

  std::shared_ptr<Trace> start_trace(std::string id);

  /// Files a completed trace into the ring (dropping the oldest beyond
  /// capacity) unless it is faster than the slow threshold.
  void finish(const std::shared_ptr<Trace>& trace);

  std::vector<std::shared_ptr<const Trace>> recent() const;

  /// JSON array of Trace::to_json() objects, most recent first.
  std::string recent_json() const;

  const TraceConfig& config() const noexcept { return config_; }
  std::uint64_t completed() const;
  std::uint64_t retained() const;

 private:
  TraceConfig config_;
  mutable std::mutex mutex_;
  std::deque<std::shared_ptr<const Trace>> ring_;
  std::uint64_t completed_ = 0;
};

}  // namespace bwaver::obs
