// Pooled blocking HTTP/1.1 client for router -> replica hops.
//
// The router/gateway makes many small localhost requests per mapped batch
// (submit, poll, fetch, cancel, health); paying a TCP connect for each one
// dominates the hop cost. This client keeps a per-host:port pool of
// kept-alive connections (idle timeout + max-requests-per-connection cap,
// mirroring the server's keep-alive grant) and surfaces every failure mode
// as a *typed* TransportError so callers can count errors and route around
// sick backends instead of pattern-matching message strings.
//
// Not a general-purpose client: Content-Length framing only (no chunked
// encoding — the bwaver server never emits it), loopback/IPv4, blocking
// with poll()-based deadlines.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace bwaver::fleet {

/// Failure classification the router keys retry/failover decisions on.
enum class TransportErrorKind {
  kConnect,     ///< refused, unreachable, or connect timeout
  kTimeout,     ///< slow headers/body, or a remote job deadline
  kReset,       ///< peer disconnected mid-response
  kOversize,    ///< response exceeded max_response_bytes
  kProtocol,    ///< malformed status line / headers / framing
  kOverload,    ///< remote admission control said 503-retry-later
  kBadRequest,  ///< the request itself is invalid (4xx-class, not retryable)
  kFailed,      ///< remote processing failed (5xx-class / job failed)
  kCancelled,   ///< attempt abandoned on purpose (hedge loser, give-up)
};

const char* to_string(TransportErrorKind kind);

/// True for errors a *different* backend might not reproduce (connectivity,
/// overload, remote failure); false for caller mistakes and cancellations.
bool is_retryable(TransportErrorKind kind);

class TransportError : public std::runtime_error {
 public:
  TransportError(TransportErrorKind kind, const std::string& message, int http_status = 0)
      : std::runtime_error(std::string(to_string(kind)) + ": " + message),
        kind_(kind),
        http_status_(http_status) {}

  TransportErrorKind kind() const noexcept { return kind_; }
  /// HTTP status attached to kOverload/kBadRequest/kFailed (0 elsewhere).
  int http_status() const noexcept { return http_status_; }
  bool retryable() const noexcept { return is_retryable(kind_); }

 private:
  TransportErrorKind kind_;
  int http_status_;
};

struct HttpClientOptions {
  std::chrono::milliseconds connect_timeout{1000};
  /// Budget from sending the request to having the full response head.
  std::chrono::milliseconds header_timeout{5000};
  /// Per-poll budget while streaming the response body.
  std::chrono::milliseconds body_timeout{10000};
  std::size_t max_response_bytes = std::size_t{256} << 20;
  /// Pool kept-alive connections and reuse them (false = one connection
  /// per request, Connection: close).
  bool keep_alive = true;
  /// Idle pooled connections older than this are closed, not reused. Below
  /// the server's 5-s keep-alive timeout (HttpServerOptions), with a 1-s
  /// margin, so a pooled connection is retired before the server drops it
  /// rather than sent into a closed socket and retried.
  std::chrono::milliseconds pool_idle_timeout{4000};
  /// Pooled connections kept per host:port beyond in-flight ones.
  std::size_t max_pool_per_host = 8;
  /// Requests sent over one connection before it is retired (client-side
  /// mirror of the server's Keep-Alive max).
  std::size_t max_requests_per_connection = 1000;
};

struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< lower-cased names
  std::string body;

  std::string header(const std::string& name, const std::string& fallback = "") const {
    const auto it = headers.find(name);
    return it == headers.end() ? fallback : it->second;
  }
};

class HttpClient {
 public:
  explicit HttpClient(HttpClientOptions options = HttpClientOptions{});
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Performs one request and returns the parsed response (any status,
  /// including 4xx/5xx — HTTP-level errors are NOT thrown; only transport
  /// failures throw TransportError: kConnect/kTimeout/kReset/kOversize/
  /// kProtocol). A reused pooled connection that dies before yielding a
  /// single response byte is retried once on a fresh connection.
  ClientResponse request(const std::string& host, std::uint16_t port,
                         const std::string& method, const std::string& target,
                         const std::string& body = "",
                         const std::vector<std::pair<std::string, std::string>>& headers = {});

  /// Drops every pooled idle connection.
  void close_idle();

  /// Lifetime telemetry (tests assert pooling actually pools).
  std::uint64_t connections_opened() const noexcept {
    return connections_opened_.load(std::memory_order_relaxed);
  }
  std::uint64_t requests_sent() const noexcept {
    return requests_sent_.load(std::memory_order_relaxed);
  }

  const HttpClientOptions& options() const noexcept { return options_; }

 private:
  struct Connection {
    int fd = -1;
    std::size_t requests = 0;
    std::chrono::steady_clock::time_point last_used{};
  };

  /// Pops a fresh-enough pooled connection or opens a new one (throws
  /// TransportError{kConnect}). `reused` reports which happened.
  Connection checkout(const std::string& host, std::uint16_t port, bool& reused);
  void checkin(const std::string& key, Connection connection, bool reusable);
  Connection open_connection(const std::string& host, std::uint16_t port);
  ClientResponse roundtrip(Connection& connection, const std::string& host,
                           const std::string& method, const std::string& target,
                           const std::string& body,
                           const std::vector<std::pair<std::string, std::string>>& headers,
                           bool& connection_reusable, bool& peer_died_early);

  HttpClientOptions options_;
  std::mutex mutex_;
  std::map<std::string, std::vector<Connection>> pool_;  ///< key: host:port
  std::atomic<std::uint64_t> connections_opened_{0};
  std::atomic<std::uint64_t> requests_sent_{0};
};

}  // namespace bwaver::fleet
