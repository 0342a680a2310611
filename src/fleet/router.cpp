#include "fleet/router.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "io/fastq.hpp"
#include "util/json.hpp"

namespace bwaver::fleet {

namespace {

constexpr std::size_t kLatencyWindow = 256;  ///< shard latencies kept for quantiles
constexpr std::size_t kMinHedgeSamples = 16;

/// Splits a SAM document into its leading header block ('@' lines) and the
/// alignment lines that follow.
void split_sam(const std::string& sam, std::string& header, std::string& body) {
  std::size_t pos = 0;
  while (pos < sam.size() && sam[pos] == '@') {
    const std::size_t eol = sam.find('\n', pos);
    if (eol == std::string::npos) {
      pos = sam.size();
      break;
    }
    pos = eol + 1;
  }
  header = sam.substr(0, pos);
  body = sam.substr(pos);
}

/// Pulls `"queue":{"depth":N` out of a replica /stats document.
bool parse_queue_depth(const std::string& json, std::size_t& depth) {
  const std::size_t block = json.find("\"queue\":{");
  if (block == std::string::npos) return false;
  const std::string needle = "\"depth\":";
  const std::size_t at = json.find(needle, block);
  if (at == std::string::npos) return false;
  std::size_t pos = at + needle.size();
  if (pos >= json.size() || !std::isdigit(static_cast<unsigned char>(json[pos]))) {
    return false;
  }
  depth = 0;
  while (pos < json.size() && std::isdigit(static_cast<unsigned char>(json[pos]))) {
    depth = depth * 10 + static_cast<std::size_t>(json[pos] - '0');
    ++pos;
  }
  return true;
}

}  // namespace

BackendAddress parse_backend(const std::string& spec) {
  BackendAddress address;
  std::string port_part = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) address.host = spec.substr(0, colon);
    port_part = spec.substr(colon + 1);
  }
  if (port_part.empty() ||
      port_part.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument("bad backend spec '" + spec + "' (want host:port)");
  }
  const unsigned long port = std::stoul(port_part);
  if (port == 0 || port > 65535) {
    throw std::invalid_argument("bad backend port in '" + spec + "'");
  }
  address.port = static_cast<std::uint16_t>(port);
  return address;
}

struct RouterService::Backend {
  BackendAddress address;
  std::shared_ptr<HttpMapTransport> transport;
  std::atomic<bool> up{true};  ///< optimistic until the first probe says otherwise
  std::atomic<int> consecutive_failures{0};
  std::atomic<int> consecutive_successes{0};
  std::atomic<std::size_t> queue_depth{0};
  std::atomic<std::uint64_t> errors{0};
  obs::Gauge* up_gauge = nullptr;
  obs::Gauge* depth_gauge = nullptr;
  obs::Histogram* latency = nullptr;  ///< successful shard round-trips
};

RouterService::RouterService(RouterOptions options)
    : options_(std::move(options)),
      metrics_(std::make_shared<obs::MetricsRegistry>()),
      client_(std::make_shared<HttpClient>(options_.client)),
      server_(options_.http),
      ring_(options_.vnodes),
      requests_total_(metrics_->counter("bwaver_router_requests_total",
                                        "Mapping requests accepted by the router")),
      shards_total_(metrics_->counter("bwaver_router_shards_total",
                                      "Shards dispatched to replicas")),
      hedges_total_(metrics_->counter("bwaver_router_hedges_total",
                                      "Hedge attempts launched after the latency "
                                      "quantile trigger")),
      retries_total_(metrics_->counter("bwaver_router_retries_total",
                                       "Failover attempts after a retryable shard "
                                       "failure")),
      rate_limited_total_(metrics_->counter("bwaver_router_rate_limited_total",
                                            "Requests answered 429 by per-tenant "
                                            "admission control")),
      request_latency_(metrics_->histogram("bwaver_router_request_seconds",
                                           "End-to-end router mapping latency",
                                           obs::Histogram::default_time_bounds())) {
  if (options_.backends.empty()) {
    throw std::invalid_argument("RouterService: at least one backend required");
  }
  if (options_.max_attempts == 0) options_.max_attempts = 1;
  for (const BackendAddress& address : options_.backends) {
    auto backend = std::make_shared<Backend>();
    backend->address = address;
    backend->transport =
        std::make_shared<HttpMapTransport>(client_, address.host, address.port);
    const obs::Labels labels{{"backend", address.key()}};
    backend->up_gauge = &metrics_->gauge("bwaver_router_backend_up",
                                         "1 when the backend is in the ring", labels);
    backend->depth_gauge =
        &metrics_->gauge("bwaver_router_backend_queue_depth",
                         "Replica job-queue depth at the last probe", labels);
    backend->latency = &metrics_->histogram("bwaver_router_backend_seconds",
                                            "Successful shard round-trip latency",
                                            obs::Histogram::default_time_bounds(), labels);
    backend->up_gauge->set(1.0);
    if (by_key_.count(address.key()) != 0) {
      throw std::invalid_argument("RouterService: duplicate backend " + address.key());
    }
    ring_.add(address.key());
    by_key_[address.key()] = backend;
    backends_.push_back(std::move(backend));
  }

  server_.route("GET", "/healthz",
                [](const HttpRequest&) { return HttpResponse::text(200, "ok\n"); });
  server_.route("GET", "/readyz", [this](const HttpRequest&) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return ring_.size() > 0 ? HttpResponse::text(200, "ok\n")
                            : HttpResponse::text(503, "no healthy backends\n");
  });
  server_.route("GET", "/backends",
                [this](const HttpRequest&) { return handle_backends(); });
  server_.route("GET", "/metrics",
                [this](const HttpRequest&) { return handle_metrics(); });
  server_.route("POST", "/map",
                [this](const HttpRequest& request) { return handle_map(request); });
  server_.route("POST", "/admin/rollover",
                [this](const HttpRequest& request) { return handle_rollover(request); });
  server_.route("GET", "/", [this](const HttpRequest&) {
    std::string text = "bwaver router: " + std::to_string(backends_.size()) +
                       " backend(s)\nPOST /map?ref=NAME with a FASTQ body; see "
                       "/backends, /metrics\n";
    return HttpResponse::text(200, text);
  });
}

RouterService::~RouterService() { stop(); }

void RouterService::start(std::uint16_t port) {
  server_.start(port);
  running_.store(true);
  health_thread_ = std::thread([this] { health_loop(); });
}

void RouterService::stop() {
  if (running_.exchange(false)) {
    health_cv_.notify_all();
    if (health_thread_.joinable()) health_thread_.join();
  }
  server_.stop();
  client_->close_idle();
}

void RouterService::health_loop() {
  std::unique_lock<std::mutex> lock(health_mutex_);
  while (running_.load()) {
    for (const auto& backend : backends_) {
      if (!running_.load()) return;
      probe(*backend);
    }
    health_cv_.wait_for(lock, options_.health_interval,
                        [this] { return !running_.load(); });
  }
}

void RouterService::check_health_now() {
  std::lock_guard<std::mutex> lock(health_mutex_);
  for (const auto& backend : backends_) probe(*backend);
}

void RouterService::probe(Backend& backend) {
  bool alive = false;
  try {
    const ClientResponse health = client_->request(backend.address.host,
                                                   backend.address.port, "GET", "/healthz");
    alive = health.status == 200;
    if (alive) {
      // Queue depth is advisory (load-aware tiebreak); a failed stats read
      // does not demote a live backend.
      try {
        const ClientResponse stats = client_->request(backend.address.host,
                                                      backend.address.port, "GET", "/stats");
        std::size_t depth = 0;
        if (stats.status == 200 && parse_queue_depth(stats.body, depth)) {
          backend.queue_depth.store(depth, std::memory_order_relaxed);
          backend.depth_gauge->set(static_cast<double>(depth));
        }
      } catch (const TransportError&) {
      }
    }
  } catch (const TransportError&) {
    alive = false;
  }
  if (alive) {
    note_success(backend);
  } else {
    note_failure(backend, TransportErrorKind::kConnect);
  }
}

void RouterService::note_success(Backend& backend) {
  backend.consecutive_failures.store(0, std::memory_order_relaxed);
  const int streak = backend.consecutive_successes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!backend.up.load(std::memory_order_relaxed) && streak >= options_.healthy_after) {
    set_up_state(backend, true);
  }
}

void RouterService::note_failure(Backend& backend, TransportErrorKind kind) {
  backend.errors.fetch_add(1, std::memory_order_relaxed);
  metrics_
      ->counter("bwaver_router_backend_errors_total", "Backend failures, by kind",
                {{"backend", backend.address.key()}, {"kind", to_string(kind)}})
      .inc();
  backend.consecutive_successes.store(0, std::memory_order_relaxed);
  const int streak = backend.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  if (backend.up.load(std::memory_order_relaxed) && streak >= options_.unhealthy_after) {
    set_up_state(backend, false);
  }
}

void RouterService::set_up_state(Backend& backend, bool up) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (backend.up.exchange(up) == up) return;
  if (up) {
    ring_.add(backend.address.key());
  } else {
    ring_.remove(backend.address.key());
  }
  backend.up_gauge->set(up ? 1.0 : 0.0);
  metrics_
      ->counter("bwaver_router_backend_transitions_total",
                "Backend up/down transitions",
                {{"backend", backend.address.key()}, {"to", up ? "up" : "down"}})
      .inc();
}

std::vector<std::shared_ptr<RouterService::Backend>> RouterService::pick_candidates(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  std::vector<std::shared_ptr<Backend>> out;
  for (const std::string& node : ring_.candidates(key, backends_.size())) {
    out.push_back(by_key_.at(node));
  }
  // Load-aware tiebreak: prefer the first failover candidate when it is
  // strictly less loaded than the hash-chosen primary.
  if (out.size() >= 2 &&
      out[1]->queue_depth.load(std::memory_order_relaxed) <
          out[0]->queue_depth.load(std::memory_order_relaxed)) {
    std::swap(out[0], out[1]);
  }
  if (out.size() > options_.max_attempts) out.resize(options_.max_attempts);
  return out;
}

std::chrono::milliseconds RouterService::hedge_delay_now() {
  std::lock_guard<std::mutex> lock(latency_mutex_);
  if (recent_latencies_.size() < kMinHedgeSamples) return options_.hedge_min_delay;
  std::vector<double> sorted(recent_latencies_.begin(), recent_latencies_.end());
  const double q = std::clamp(options_.hedge_quantile, 0.0, 1.0);
  const std::size_t rank = std::min(
      sorted.size() - 1, static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                   sorted.end());
  const auto delay = std::chrono::milliseconds(
      static_cast<std::int64_t>(sorted[rank] * 1000.0));
  return std::max(options_.hedge_min_delay, delay);
}

void RouterService::record_shard_latency(double seconds) {
  std::lock_guard<std::mutex> lock(latency_mutex_);
  recent_latencies_.push_back(seconds);
  while (recent_latencies_.size() > kLatencyWindow) recent_latencies_.pop_front();
}

struct RouterService::Race {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  std::string sam;
  std::size_t failed = 0;
  std::vector<TransportError> errors;
  std::atomic<bool> give_up{false};
};

std::string RouterService::map_shard(const MapRequest& request, std::size_t shard_index) {
  const std::string key = request.ref + "/" + std::to_string(shard_index);
  const auto candidates = pick_candidates(key);
  if (candidates.empty()) {
    throw TransportError(TransportErrorKind::kConnect, "no healthy backends", 503);
  }
  shards_total_.inc();

  const auto race = std::make_shared<Race>();
  std::vector<std::thread> attempts;
  const auto started = std::chrono::steady_clock::now();

  auto launch = [&](std::size_t attempt_index) {
    const std::shared_ptr<Backend> backend = candidates[attempt_index];
    MapRequest attempt = request;
    attempt.request_id += "-a" + std::to_string(attempt_index);
    attempts.emplace_back([this, backend, attempt = std::move(attempt), race] {
      const auto t0 = std::chrono::steady_clock::now();
      try {
        std::string sam = backend->transport->map(attempt, &race->give_up);
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        backend->latency->observe(seconds);
        note_success(*backend);
        bool won = false;
        {
          std::lock_guard<std::mutex> lock(race->m);
          if (!race->done) {
            race->done = true;
            race->sam = std::move(sam);
            won = true;
          }
        }
        if (won) race->give_up.store(true, std::memory_order_relaxed);
        race->cv.notify_all();
      } catch (const TransportError& error) {
        // A kCancelled loss is this race's own doing and a kBadRequest the
        // client's (every replica rejects it alike): neither is a backend
        // fault, so neither may push a healthy replica out of the ring.
        if (error.kind() != TransportErrorKind::kCancelled &&
            error.kind() != TransportErrorKind::kBadRequest) {
          note_failure(*backend, error.kind());
        }
        {
          std::lock_guard<std::mutex> lock(race->m);
          ++race->failed;
          race->errors.push_back(error);
        }
        race->cv.notify_all();
      } catch (const std::exception& e) {
        note_failure(*backend, TransportErrorKind::kFailed);
        {
          std::lock_guard<std::mutex> lock(race->m);
          ++race->failed;
          race->errors.emplace_back(TransportErrorKind::kFailed, e.what());
        }
        race->cv.notify_all();
      }
    });
  };

  const bool hedging = options_.hedge_quantile > 0.0 && candidates.size() > 1;
  const auto hedge_after = hedging ? hedge_delay_now() : std::chrono::milliseconds(0);
  launch(0);
  std::size_t launched = 1;
  bool hedged = false;

  {
    std::unique_lock<std::mutex> lock(race->m);
    while (!race->done) {
      if (race->failed == launched) {
        // Every in-flight attempt has failed. Fail over while the last
        // error is worth retrying elsewhere and candidates remain.
        if (launched < candidates.size() && race->errors.back().retryable()) {
          lock.unlock();
          launch(launched);
          lock.lock();
          ++launched;
          retries_total_.inc();
          continue;
        }
        break;
      }
      if (hedging && !hedged && launched < candidates.size()) {
        const bool settled = race->cv.wait_for(
            lock, hedge_after, [&] { return race->done || race->failed == launched; });
        if (!settled) {
          lock.unlock();
          launch(launched);
          lock.lock();
          ++launched;
          hedged = true;
          hedges_total_.inc();
        }
      } else {
        race->cv.wait(lock, [&] { return race->done || race->failed == launched; });
      }
    }
  }

  // Tell losers to cancel their replica-side jobs, then join every attempt
  // (losers abandon within one poll interval).
  race->give_up.store(true, std::memory_order_relaxed);
  race->cv.notify_all();
  for (std::thread& attempt : attempts) attempt.join();

  std::lock_guard<std::mutex> lock(race->m);
  if (race->done) {
    record_shard_latency(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count());
    return std::move(race->sam);
  }
  // Prefer the non-retryable error (it describes the request, not the
  // fleet); otherwise the most recent failure.
  for (const TransportError& error : race->errors) {
    if (!error.retryable()) throw error;
  }
  if (!race->errors.empty()) throw race->errors.back();
  throw TransportError(TransportErrorKind::kFailed, "shard failed with no diagnosis");
}

HttpResponse RouterService::handle_map(const HttpRequest& request) {
  requests_total_.inc();
  const auto started = std::chrono::steady_clock::now();

  std::string tenant = "anonymous";
  if (const auto it = request.headers.find("x-tenant"); it != request.headers.end()) {
    if (!it->second.empty()) tenant = it->second;
  }
  if (options_.tenant_rate > 0.0) {
    TokenBucket* bucket = nullptr;
    {
      std::lock_guard<std::mutex> lock(tenants_mutex_);
      auto& slot = tenants_[tenant];
      if (!slot) {
        const double burst = options_.tenant_burst > 0.0
                                 ? options_.tenant_burst
                                 : std::max(options_.tenant_rate, 1.0);
        slot = std::make_unique<TokenBucket>(options_.tenant_rate, burst);
      }
      bucket = slot.get();
    }
    if (!bucket->try_acquire()) {
      rate_limited_total_.inc();
      metrics_
          ->counter("bwaver_router_tenant_rejections_total",
                    "429s issued, by tenant", {{"tenant", tenant}})
          .inc();
      const auto retry_after =
          static_cast<long>(std::ceil(bucket->seconds_until_available()));
      HttpResponse response =
          HttpResponse::text(429, "tenant '" + tenant + "' over rate limit\n");
      response.with_header("Retry-After", std::to_string(std::max(1L, retry_after)));
      return response;
    }
  }

  const std::string ref = request.query_param("ref");
  if (ref.empty()) {
    return HttpResponse::text(400, "select a reference with ?ref=NAME\n");
  }
  // The client's engine choice is forwarded verbatim to every shard's
  // backend (which validates it); the router itself is engine-agnostic.
  const std::string engine = request.query_param("engine");
  if (request.body.empty()) {
    return HttpResponse::text(400, "empty read upload\n");
  }
  std::vector<FastqRecord> records;
  try {
    records = parse_fastq(request.body);
  } catch (const std::exception& e) {
    return HttpResponse::text(400, std::string("bad FASTQ: ") + e.what() + "\n");
  }

  const std::size_t per_shard = std::max<std::size_t>(1, options_.shard_reads);
  const std::size_t shard_count = (records.size() + per_shard - 1) / per_shard;
  std::vector<std::string> results(shard_count);
  std::vector<std::string> failures(shard_count);
  std::vector<int> failure_status(shard_count, 0);
  std::vector<std::thread> shard_threads;
  shard_threads.reserve(shard_count);

  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    const std::size_t begin = shard * per_shard;
    const std::size_t end = std::min(records.size(), begin + per_shard);
    MapRequest shard_request;
    shard_request.ref = ref;
    shard_request.fastq = format_fastq(
        std::span<const FastqRecord>(records.data() + begin, end - begin));
    shard_request.request_id = request.request_id() + "-s" + std::to_string(shard);
    shard_request.tenant = tenant;
    shard_request.engine = engine;
    shard_request.timeout = options_.map_timeout;
    shard_threads.emplace_back([this, shard, shard_request = std::move(shard_request),
                                &results, &failures, &failure_status] {
      try {
        results[shard] = map_shard(shard_request, shard);
      } catch (const TransportError& error) {
        failures[shard] = error.what();
        switch (error.kind()) {
          case TransportErrorKind::kBadRequest:
            failure_status[shard] = error.http_status() != 0 ? error.http_status() : 400;
            break;
          case TransportErrorKind::kOverload:
            failure_status[shard] = 503;
            break;
          case TransportErrorKind::kTimeout:
            failure_status[shard] = 504;
            break;
          default:
            failure_status[shard] = 502;
            break;
        }
      } catch (const std::exception& e) {
        failures[shard] = e.what();
        failure_status[shard] = 502;
      }
    });
  }
  for (std::thread& thread : shard_threads) thread.join();

  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    if (failure_status[shard] != 0) {
      metrics_
          ->counter("bwaver_router_request_errors_total",
                    "Mapping requests failed at the router, by status",
                    {{"status", std::to_string(failure_status[shard])}})
          .inc();
      return HttpResponse::text(failure_status[shard],
                                "shard " + std::to_string(shard) +
                                    " failed: " + failures[shard] + "\n");
    }
  }

  // Splice: the deterministic header comes from shard 0; alignment lines
  // concatenate in shard (== read) order, which reproduces the single-
  // replica document byte for byte.
  std::string merged_header;
  std::string merged;
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    std::string header, body;
    split_sam(results[shard], header, body);
    if (shard == 0) merged_header = std::move(header);
    merged += body;
  }
  merged.insert(0, merged_header);

  request_latency_.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count());
  HttpResponse response = HttpResponse::bytes("text/x-sam", std::move(merged));
  response.with_header("X-Bwaver-Shards", std::to_string(shard_count));
  return response;
}

HttpResponse RouterService::handle_rollover(const HttpRequest& request) {
  const std::string ref = request.query_param("ref");
  if (ref.empty()) {
    return HttpResponse::text(400, "select a reference with ?ref=NAME\n");
  }
  if (request.body.empty()) {
    return HttpResponse::text(400, "empty reference upload\n");
  }
  const std::string body(request.body.begin(), request.body.end());
  const std::string target = "/admin/rollover?ref=" + url_encode(ref);
  const std::vector<std::pair<std::string, std::string>> headers{
      {"X-Request-Id", request.request_id()}};

  // Sequential fan-out: replicas rebuild one at a time, so at every moment
  // all but one replica serve at full speed and a bad FASTA stops after
  // the first failure instead of poisoning the whole fleet.
  std::string detail = "[";
  bool first = true;
  bool all_ok = true;
  for (const auto& backend : backends_) {
    if (!backend->up.load(std::memory_order_relaxed)) continue;
    std::string entry = "{\"backend\":\"" + json_escape(backend->address.key()) + "\",";
    try {
      const ClientResponse response = client_->request(
          backend->address.host, backend->address.port, "POST", target, body, headers);
      entry += "\"status\":" + std::to_string(response.status);
      if (response.status != 200) {
        all_ok = false;
        entry += ",\"error\":\"" + json_escape(response.body.substr(0, 200)) + "\"";
      }
    } catch (const TransportError& error) {
      all_ok = false;
      entry += "\"status\":0,\"error\":\"" + json_escape(error.what()) + "\"";
    }
    entry += "}";
    if (!first) detail += ",";
    first = false;
    detail += entry;
    if (!all_ok) break;  // don't roll the rest of the fleet onto a bad build
  }
  detail += "]";
  metrics_
      ->counter("bwaver_router_rollovers_total", "Fleet rollover fan-outs, by outcome",
                {{"outcome", all_ok ? "ok" : "failed"}})
      .inc();
  const std::string json =
      "{\"ref\":\"" + json_escape(ref) + "\",\"ok\":" + (all_ok ? "true" : "false") +
      ",\"backends\":" + detail + "}\n";
  return HttpResponse::json(all_ok ? 200 : 502, json);
}

HttpResponse RouterService::handle_backends() const {
  std::string json = "[";
  bool first = true;
  for (const BackendSnapshot& snapshot : backends()) {
    if (!first) json += ",";
    first = false;
    json += "{\"backend\":\"" + json_escape(snapshot.key) + "\"";
    json += ",\"up\":" + std::string(snapshot.up ? "true" : "false");
    json += ",\"queue_depth\":" + std::to_string(snapshot.queue_depth);
    json += ",\"errors\":" + std::to_string(snapshot.errors);
    json += "}";
  }
  json += "]\n";
  return HttpResponse::json(200, json);
}

HttpResponse RouterService::handle_metrics() {
  metrics_->gauge("bwaver_router_backends", "Configured backends")
      .set(static_cast<double>(backends_.size()));
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = metrics_->render_prometheus();
  return response;
}

std::vector<BackendSnapshot> RouterService::backends() const {
  std::vector<BackendSnapshot> out;
  out.reserve(backends_.size());
  for (const auto& backend : backends_) {
    BackendSnapshot snapshot;
    snapshot.key = backend->address.key();
    snapshot.up = backend->up.load(std::memory_order_relaxed);
    snapshot.queue_depth = backend->queue_depth.load(std::memory_order_relaxed);
    snapshot.errors = backend->errors.load(std::memory_order_relaxed);
    out.push_back(std::move(snapshot));
  }
  return out;
}

}  // namespace bwaver::fleet
