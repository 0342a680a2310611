#include "fleet/map_transport.hpp"

#include <cctype>
#include <stdexcept>
#include <thread>
#include <utility>

#include "app/http_server.hpp"
#include "io/fastq.hpp"
#include "kernels/registry.hpp"
#include "mapper/map_service.hpp"

namespace bwaver::fleet {

namespace {

/// Minimal field extraction from the replica's flat JSON documents
/// ({"id":7,...} / {"state":"running",...}); not a general parser.
bool json_uint_field(const std::string& json, const std::string& key, std::uint64_t& out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  std::size_t pos = at + needle.size();
  if (pos >= json.size() || !std::isdigit(static_cast<unsigned char>(json[pos]))) {
    return false;
  }
  out = 0;
  while (pos < json.size() && std::isdigit(static_cast<unsigned char>(json[pos]))) {
    out = out * 10 + static_cast<std::uint64_t>(json[pos] - '0');
    ++pos;
  }
  return true;
}

/// Decodes the string value of `key`, undoing every escape the replica's
/// json_escape writes (\" \\ \n \r \t and \u00XX). False when the key is
/// absent or the value is unterminated or malformed.
bool json_string_field(const std::string& json, const std::string& key, std::string& out) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  std::string value;
  for (std::size_t pos = at + needle.size(); pos < json.size(); ++pos) {
    const char c = json[pos];
    if (c == '"') {
      out = std::move(value);
      return true;
    }
    if (c != '\\') {
      value.push_back(c);
      continue;
    }
    if (++pos == json.size()) return false;
    switch (json[pos]) {
      case '"': value.push_back('"'); break;
      case '\\': value.push_back('\\'); break;
      case 'n': value.push_back('\n'); break;
      case 'r': value.push_back('\r'); break;
      case 't': value.push_back('\t'); break;
      case 'u': {
        // json_escape writes \u00XX only, for control bytes.
        const std::string hex = json.substr(pos + 1, 4);
        if (hex.size() != 4 || hex.compare(0, 2, "00") != 0 ||
            !std::isxdigit(static_cast<unsigned char>(hex[2])) ||
            !std::isxdigit(static_cast<unsigned char>(hex[3]))) {
          return false;
        }
        value.push_back(static_cast<char>(std::stoi(hex, nullptr, 16)));
        pos += 4;
        break;
      }
      default:
        return false;
    }
  }
  return false;
}

}  // namespace

JobManager::JobFn make_map_job(IndexRegistry& registry, PipelineConfig config,
                               ServerStats& stats, std::string ref,
                               std::shared_ptr<const ReadBatch> batch) {
  return [&registry, config = std::move(config), &stats, ref = std::move(ref),
          batch = std::move(batch)](const CancelToken& cancel) {
    const IndexRegistry::Handle handle = registry.acquire(ref);
    MappingOutcome outcome =
        map_batch_over(*handle, config, *batch, /*mapping_seconds=*/nullptr, &cancel);
    stats.reads_mapped.inc(outcome.reads);
    stats.map_shards.inc(outcome.shards);
    return std::move(outcome.sam);
  };
}

JobManager::JobFn make_map_job(IndexRegistry& registry, PipelineConfig config,
                               ServerStats& stats, std::string ref,
                               std::shared_ptr<const std::vector<FastqRecord>> records) {
  return [&registry, config = std::move(config), &stats, ref = std::move(ref),
          records = std::move(records)](const CancelToken& cancel) {
    const IndexRegistry::Handle handle = registry.acquire(ref);
    MappingOutcome outcome =
        map_records_over(*handle, config, *records, /*mapping_seconds=*/nullptr, &cancel);
    stats.reads_mapped.inc(outcome.reads);
    stats.map_shards.inc(outcome.shards);
    return std::move(outcome.sam);
  };
}

std::string InProcessTransport::map(const MapRequest& request,
                                    const std::atomic<bool>* give_up) {
  PipelineConfig config = config_;
  if (!request.engine.empty()) {
    const auto engine = kernels::parse_engine_name(request.engine);
    if (!engine) {
      const std::string known = kernels::engine_choices();
      throw TransportError(TransportErrorKind::kBadRequest,
                           "unknown engine '" + request.engine + "' (" + known + ")", 400);
    }
    config.engine = *engine;
  }
  std::shared_ptr<const ReadBatch> batch;
  try {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(request.fastq.data());
    batch = parse_request_reads(std::span<const std::uint8_t>(bytes, request.fastq.size()),
                                config.engine, *jobs_.stats().metrics);
  } catch (const std::exception& e) {
    throw TransportError(TransportErrorKind::kBadRequest,
                         std::string("bad FASTQ: ") + e.what(), 400);
  }
  if (!registry_.contains(request.ref)) {
    throw TransportError(TransportErrorKind::kBadRequest,
                         "unknown reference '" + request.ref + "'", 404);
  }

  std::optional<std::chrono::milliseconds> timeout;
  if (request.timeout.count() > 0) timeout = request.timeout;
  std::uint64_t id = 0;
  try {
    id = jobs_.submit(request.ref,
                      make_map_job(registry_, config, jobs_.stats(), request.ref, batch),
                      JobPriority::kHigh, timeout, request.request_id);
  } catch (const QueueFull&) {
    throw TransportError(TransportErrorKind::kOverload, "mapping queue full", 503);
  }
  jobs_.stats().record_reference(request.ref);

  // Poll rather than JobManager::wait() so a hedge loser can be abandoned
  // (and its queued/running work cancelled) mid-wait.
  bool cancel_sent = false;
  for (;;) {
    const auto record = jobs_.status(id);
    if (!record) {
      throw TransportError(TransportErrorKind::kFailed,
                           "job " + std::to_string(id) + " vanished (GC'd?)");
    }
    if (is_terminal(record->state)) {
      switch (record->state) {
        case JobState::kDone: {
          auto sam = jobs_.take_result(id);
          if (!sam) {
            throw TransportError(TransportErrorKind::kFailed, "result no longer retained");
          }
          return *std::move(sam);
        }
        case JobState::kTimedOut:
          throw TransportError(TransportErrorKind::kTimeout, "mapping job timed out");
        case JobState::kCancelled:
          throw TransportError(TransportErrorKind::kCancelled, "mapping job cancelled");
        default:
          throw TransportError(TransportErrorKind::kFailed, record->error, 500);
      }
    }
    if (give_up != nullptr && give_up->load(std::memory_order_relaxed) && !cancel_sent) {
      jobs_.cancel(id, "hedge-lost");
      cancel_sent = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

HttpMapTransport::HttpMapTransport(std::shared_ptr<HttpClient> client, std::string host,
                                   std::uint16_t port)
    : client_(std::move(client)), host_(std::move(host)), port_(port) {}

void HttpMapTransport::throw_http(const ClientResponse& response, const std::string& what) {
  const std::string detail =
      what + " -> HTTP " + std::to_string(response.status) + " from " + name();
  if (response.status == 503 || response.status == 429) {
    throw TransportError(TransportErrorKind::kOverload, detail, response.status);
  }
  if (response.status >= 400 && response.status < 500) {
    throw TransportError(TransportErrorKind::kBadRequest, detail, response.status);
  }
  throw TransportError(TransportErrorKind::kFailed, detail, response.status);
}

std::string HttpMapTransport::map(const MapRequest& request,
                                  const std::atomic<bool>* give_up) {
  std::string target = "/jobs?ref=" + url_encode(request.ref) + "&priority=high";
  if (!request.engine.empty()) {
    target += "&engine=" + url_encode(request.engine);
  }
  if (request.timeout.count() > 0) {
    target += "&timeout-ms=" + std::to_string(request.timeout.count());
  }
  std::vector<std::pair<std::string, std::string>> headers;
  if (!request.request_id.empty()) headers.emplace_back("X-Request-Id", request.request_id);
  if (!request.tenant.empty()) headers.emplace_back("X-Tenant", request.tenant);

  const ClientResponse submitted =
      client_->request(host_, port_, "POST", target, request.fastq, headers);
  if (submitted.status != 202) throw_http(submitted, "submit");
  std::uint64_t id = 0;
  if (!json_uint_field(submitted.body, "id", id)) {
    throw TransportError(TransportErrorKind::kProtocol,
                         "submit accepted but no job id in: " + submitted.body.substr(0, 128));
  }
  const std::string job_path = "/jobs/" + std::to_string(id);

  auto interval = poll_initial_;
  for (;;) {
    if (give_up != nullptr && give_up->load(std::memory_order_relaxed)) {
      // Lost the hedge race: free the replica's worker/queue slot. Best
      // effort — the loser's outcome no longer matters to the caller.
      try {
        client_->request(host_, port_, "DELETE", job_path + "?reason=hedge-lost");
      } catch (const TransportError&) {
      }
      throw TransportError(TransportErrorKind::kCancelled, "hedge lost; job " +
                                                               std::to_string(id) +
                                                               " cancelled on " + name());
    }

    const ClientResponse polled = client_->request(host_, port_, "GET", job_path);
    if (polled.status != 200) throw_http(polled, "poll " + job_path);
    std::string state;
    if (!json_string_field(polled.body, "state", state)) {
      throw TransportError(TransportErrorKind::kProtocol,
                           "no state in poll response: " + polled.body.substr(0, 128));
    }
    if (state == "done") break;
    if (state == "failed") {
      std::string error;
      json_string_field(polled.body, "error", error);
      throw TransportError(TransportErrorKind::kFailed,
                           "job " + std::to_string(id) + " failed on " + name() + ": " + error,
                           500);
    }
    if (state == "cancelled") {
      throw TransportError(TransportErrorKind::kCancelled,
                           "job " + std::to_string(id) + " cancelled on " + name());
    }
    if (state == "timed_out") {
      throw TransportError(TransportErrorKind::kTimeout,
                           "job " + std::to_string(id) + " timed out on " + name());
    }

    std::this_thread::sleep_for(interval);
    interval = std::min(poll_max_, interval + interval / 2 + std::chrono::milliseconds(1));
  }

  const ClientResponse result = client_->request(host_, port_, "GET", job_path + "/result");
  if (result.status != 200) throw_http(result, "fetch " + job_path + "/result");
  return result.body;
}

}  // namespace bwaver::fleet
