// Unified metrics registry — the process-wide successor to the ad-hoc
// counters that used to live in jobs/server_stats.*.
//
// Three metric kinds, all wait-free to record:
//   Counter   — monotonically increasing uint64 (relaxed atomic add);
//   Gauge     — settable double (atomic store, CAS add);
//   Histogram — fixed cumulative buckets + count + sum, Prometheus-shaped.
//
// A MetricsRegistry owns families keyed by metric name; a family owns one
// child metric per label set. Registration (get-or-create) takes a mutex —
// callers cache the returned reference and record lock-free afterwards.
// Returned references stay valid for the registry's lifetime.
//
// render_prometheus() emits the text exposition format (HELP/TYPE lines,
// escaped label values, `_bucket`/`_sum`/`_count` histogram series) served
// by GET /metrics; the grammar is pinned by tests/obs_metrics_test.cpp and
// tools/validate_prometheus.py.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace bwaver::obs {

/// Label key/value pairs. Order does not matter for identity (label sets
/// are canonicalized by sorting on key), but rendering preserves the
/// canonical order.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  /// Compatibility alias for call sites (and tests) written against the
  /// former std::atomic counters.
  std::uint64_t load() const noexcept { return value(); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-boundary cumulative histogram. Observations are doubles in the
/// family's unit (seconds for all time histograms in this tree, per
/// Prometheus convention); `bounds` are the finite upper bounds, with an
/// implicit +Inf bucket appended.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value) noexcept;
  void observe_ms(double ms) noexcept { observe(ms / 1000.0); }

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double sum_ms() const noexcept { return sum() * 1000.0; }
  double mean_ms() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum_ms() / static_cast<double>(n);
  }

  /// Finite bounds only (the +Inf bucket is implicit).
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Cumulative count of observations <= bounds()[i]; i == bounds().size()
  /// is the +Inf bucket (== count()).
  std::uint64_t cumulative_count(std::size_t i) const noexcept;

  /// The 1 ms .. 100 s decade-with-mid-step ladder (in seconds) shared by
  /// every latency histogram in the tree.
  static std::vector<double> default_time_bounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  ///< bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind kind);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. Throws std::invalid_argument on an invalid metric/label
  /// name and std::logic_error when `name` is already registered as a
  /// different kind (or, for histograms, with different bounds).
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, const Labels& labels = {});

  /// Snapshot of every child of a counter family, in canonical label order.
  /// Empty when the family does not exist.
  std::vector<std::pair<Labels, std::uint64_t>> counter_values(
      const std::string& name) const;

  /// Drops every child of gauge family `name`, for a scrape-time family
  /// whose label sets come and go (the children are set again after). A
  /// no-op when the family does not exist; references to its gauges dangle.
  void clear_gauges(const std::string& name);

  /// Prometheus text exposition of every family, families in name order.
  std::string render_prometheus() const;

  /// True when `name` is a valid Prometheus metric name
  /// ([a-zA-Z_:][a-zA-Z0-9_:]*).
  static bool valid_metric_name(const std::string& name);
  /// True when `name` is a valid label name ([a-zA-Z_][a-zA-Z0-9_]*).
  static bool valid_label_name(const std::string& name);
  /// Escapes `\`, `"`, and newline for a label value position.
  static std::string escape_label_value(const std::string& value);

 private:
  struct Child {
    Labels labels;  ///< canonical (key-sorted) order
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<double> bounds;              ///< histograms only
    std::map<std::string, Child> children;   ///< keyed by serialized labels
  };

  Child& child_for(const std::string& name, const std::string& help, MetricKind kind,
                   const Labels& labels, const std::vector<double>* bounds);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

/// Process-wide registry used by ambient instrumentation (CLI runs, stage
/// histograms when no per-service registry is attached).
MetricsRegistry& default_registry();

}  // namespace bwaver::obs
