#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace bwaver::obs {

namespace {

/// Shortest round-trip-ish representation: integers render bare, everything
/// else through %g (enough precision for bucket bounds and sums).
std::string format_double(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15 && v > -1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return labels;
}

/// Serialized canonical label set — the child key ("" for the unlabeled
/// child) and, non-empty, the rendered {...} selector.
std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"" + MetricsRegistry::escape_label_value(value) + "\"";
  }
  out += "}";
  return out;
}

/// As render_labels but with one extra label appended (histogram `le`).
std::string render_labels_with(const Labels& labels, const std::string& key,
                               const std::string& value) {
  Labels extended = labels;
  extended.emplace_back(key, value);
  return render_labels(extended);
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bucket bounds must be sorted");
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double value) noexcept {
  if (!(value >= 0.0)) value = 0.0;  // NaN and negatives clamp to the first bucket
  std::size_t bucket = bounds_.size();
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::cumulative_count(std::size_t i) const noexcept {
  std::uint64_t cumulative = 0;
  const std::size_t upto = std::min(i, bounds_.size());
  for (std::size_t b = 0; b <= upto; ++b) {
    cumulative += buckets_[b].load(std::memory_order_relaxed);
  }
  return cumulative;
}

std::vector<double> Histogram::default_time_bounds() {
  return {0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0};
}

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

bool MetricsRegistry::valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
  };
  if (!head(name[0])) return false;
  for (const char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool MetricsRegistry::valid_label_name(const std::string& name) {
  return valid_metric_name(name) && name.find(':') == std::string::npos;
}

std::string MetricsRegistry::escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

MetricsRegistry::Child& MetricsRegistry::child_for(const std::string& name,
                                                   const std::string& help,
                                                   MetricKind kind, const Labels& labels,
                                                   const std::vector<double>* bounds) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("MetricsRegistry: invalid metric name '" + name + "'");
  }
  for (const auto& [key, value] : labels) {
    (void)value;
    if (!valid_label_name(key)) {
      throw std::invalid_argument("MetricsRegistry: invalid label name '" + key + "'");
    }
  }
  const Labels sorted = canonical(labels);
  const std::string child_key = render_labels(sorted);

  std::lock_guard<std::mutex> lock(mutex_);
  auto [family_it, inserted] = families_.try_emplace(name);
  Family& family = family_it->second;
  if (inserted) {
    family.help = help;
    family.kind = kind;
    if (bounds != nullptr) family.bounds = *bounds;
  } else {
    if (family.kind != kind) {
      throw std::logic_error("MetricsRegistry: '" + name + "' already registered as " +
                             std::string(to_string(family.kind)));
    }
    if (bounds != nullptr && family.bounds != *bounds) {
      throw std::logic_error("MetricsRegistry: '" + name +
                             "' re-registered with different bucket bounds");
    }
  }
  auto [child_it, child_inserted] = family.children.try_emplace(child_key);
  Child& child = child_it->second;
  if (child_inserted) {
    child.labels = sorted;
    switch (kind) {
      case MetricKind::kCounter: child.counter = std::make_unique<Counter>(); break;
      case MetricKind::kGauge: child.gauge = std::make_unique<Gauge>(); break;
      case MetricKind::kHistogram:
        child.histogram = std::make_unique<Histogram>(family.bounds);
        break;
    }
  }
  return child;
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help,
                                  const Labels& labels) {
  return *child_for(name, help, MetricKind::kCounter, labels, nullptr).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const Labels& labels) {
  return *child_for(name, help, MetricKind::kGauge, labels, nullptr).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const std::string& help,
                                      std::vector<double> bounds, const Labels& labels) {
  return *child_for(name, help, MetricKind::kHistogram, labels, &bounds).histogram;
}

std::vector<std::pair<Labels, std::uint64_t>> MetricsRegistry::counter_values(
    const std::string& name) const {
  std::vector<std::pair<Labels, std::uint64_t>> values;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = families_.find(name);
  if (it == families_.end() || it->second.kind != MetricKind::kCounter) return values;
  for (const auto& [key, child] : it->second.children) {
    (void)key;
    values.emplace_back(child.labels, child.counter->value());
  }
  return values;
}

void MetricsRegistry::clear_gauges(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = families_.find(name);
  if (it != families_.end() && it->second.kind == MetricKind::kGauge) {
    it->second.children.clear();
  }
}

std::string MetricsRegistry::render_prometheus() const {
  std::string out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, family] : families_) {
    out += "# HELP " + name + " ";
    // HELP text escapes backslash and newline (but not quotes).
    for (const char c : family.help) {
      if (c == '\\') {
        out += "\\\\";
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out.push_back(c);
      }
    }
    out += "\n# TYPE " + name + " " + to_string(family.kind) + "\n";
    for (const auto& [key, child] : family.children) {
      (void)key;
      const std::string selector = render_labels(child.labels);
      switch (family.kind) {
        case MetricKind::kCounter:
          out += name + selector + " " + std::to_string(child.counter->value()) + "\n";
          break;
        case MetricKind::kGauge:
          out += name + selector + " " + format_double(child.gauge->value()) + "\n";
          break;
        case MetricKind::kHistogram: {
          const Histogram& h = *child.histogram;
          // One pass over the bucket atomics so the emitted series are
          // internally consistent even while recorders race the scrape:
          // cumulative counts are non-decreasing and `+Inf` == `_count` by
          // construction.
          for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            out += name + "_bucket" +
                   render_labels_with(child.labels, "le", format_double(h.bounds()[i])) +
                   " " + std::to_string(h.cumulative_count(i)) + "\n";
          }
          const std::uint64_t total = h.cumulative_count(h.bounds().size());
          out += name + "_bucket" + render_labels_with(child.labels, "le", "+Inf") + " " +
                 std::to_string(total) + "\n";
          out += name + "_sum" + selector + " " + format_double(h.sum()) + "\n";
          out += name + "_count" + selector + " " + std::to_string(total) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

MetricsRegistry& default_registry() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace bwaver::obs
