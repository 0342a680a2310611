// Minimal HTTP/1.1 server over POSIX sockets — the C++ substitute for the
// paper's Flask web server, hardened for serving: one background accept
// thread feeding a *bounded* connection worker pool (no thread-per-
// connection fork bombs), a configurable kernel accept backlog and
// in-process pending cap (overload answers 503 immediately), a maximum
// request body size (413), Content-Length bodies that a handler reads as
// they arrive (RequestBody; `Expect: 100-continue` is answered, a
// Transfer-Encoding gets 501), keep-alive connection reuse (idle timeout +
// max-requests-per-connection cap, HTTP/1.1 semantics; `Connection: close`
// honored), and path templates (`/jobs/{id}`) alongside exact routes.
// stop() joins — never detaches — so shutdown cannot race in-flight
// handlers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/chunk_reader.hpp"
#include "util/thread_pool.hpp"

namespace bwaver {

/// Percent-encodes a query-string value: every byte but ASCII letters,
/// digits and `-_.~` becomes %XX, so a value can carry `&`, `=`, `%`, CR or
/// LF into a request target without splitting the query or the request
/// line. The server's query parser decodes it back to the same bytes.
std::string url_encode(const std::string& value);

/// A request body as it arrives: the bytes that came in with the head, then
/// the socket, never read past the declared Content-Length (bytes beyond it
/// belong to the next pipelined request). The server hands it to the
/// handler unread, so a handler packs the body as it arrives instead of
/// holding it whole. A read that outwaits the keep-alive timeout, or finds
/// the connection closed before the body ends, throws IoError; the server
/// then closes the connection without answering.
class RequestBody final : public ByteSource {
 public:
  /// `carried` holds the bytes received after the head; those the body
  /// takes are erased from its front.
  RequestBody(int fd, std::string& carried, std::size_t length,
              std::chrono::milliseconds timeout) noexcept
      : fd_(fd), carried_(carried), remaining_(length), timeout_(timeout) {}

  std::size_t read(std::uint8_t* out, std::size_t size) override;
  /// Bytes of the body not yet read.
  std::size_t remaining() const noexcept override { return remaining_; }
  /// True once a read failed: the body never arrived whole.
  bool failed() const noexcept { return failed_; }

  /// Reads the rest of the body and drops it; false if it failed.
  bool discard_rest() noexcept;

 private:
  int fd_;
  std::string& carried_;
  std::size_t remaining_;
  std::chrono::milliseconds timeout_;
  bool failed_ = false;
};

struct HttpRequest {
  std::string method;
  std::string path;                            ///< without the query string
  std::map<std::string, std::string> query;    ///< decoded ?key=value params
  std::map<std::string, std::string> headers;  ///< lower-cased names
  std::map<std::string, std::string> path_params;  ///< `{name}` captures
  /// The declared body length, within the server's cap (checked before any
  /// body byte is read).
  std::size_t content_length = 0;
  /// The body, unread: a handler packs it window by window (a ChunkReader
  /// over it) or reads it whole (read_body()). What the handler leaves
  /// unread is discarded after its response. Set by the server for the
  /// handler's call; null otherwise.
  RequestBody* body = nullptr;

  /// Reads what is left of the body, all of it, into one string (growing
  /// with the bytes that arrive, never to the declared length up front).
  /// Throws IoError as RequestBody::read does.
  std::string read_body() const;

  /// Query parameter lookup with a fallback.
  std::string query_param(const std::string& key, const std::string& fallback = "") const {
    const auto it = query.find(key);
    return it == query.end() ? fallback : it->second;
  }

  /// Capture from a `{name}` route segment ("" when absent).
  std::string path_param(const std::string& key) const {
    const auto it = path_params.find(key);
    return it == path_params.end() ? "" : it->second;
  }

  /// The request's correlation id. The server guarantees this is non-empty
  /// by the time a handler runs: a sanitized client X-Request-Id, or a
  /// generated one (echoed back in the X-Request-Id response header).
  std::string request_id() const {
    const auto it = headers.find("x-request-id");
    return it == headers.end() ? "" : it->second;
  }
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  /// Extra response headers (e.g. Retry-After on 503).
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  static HttpResponse text(int status, std::string message);
  static HttpResponse html(std::string markup);
  static HttpResponse json(int status, std::string document);
  /// Sends `payload` as is; a moved-in payload (a job's SAM) is not copied.
  static HttpResponse bytes(const std::string& content_type, std::string payload);

  HttpResponse& with_header(std::string name, std::string value) {
    headers.emplace_back(std::move(name), std::move(value));
    return *this;
  }
};

struct HttpServerOptions {
  std::size_t worker_threads = 8;  ///< connection handlers (bounded pool)
  int accept_backlog = 64;         ///< listen(2) backlog
  /// Accepted connections waiting for a free worker beyond this are
  /// answered 503 immediately instead of queueing unboundedly.
  std::size_t max_pending_connections = 64;
  std::size_t max_body_bytes = std::size_t{64} << 20;  ///< 413 beyond this
  /// HTTP/1.1 keep-alive: serve multiple sequential requests per
  /// connection (a router->replica hop then costs one TCP connect, not
  /// one per request). `Connection: close` and HTTP/1.0 still close.
  bool keep_alive = true;
  /// Idle time waiting for the next request before the server closes a
  /// kept-alive connection. Also bounds how long a half-sent request may
  /// stall between reads.
  std::chrono::milliseconds keep_alive_timeout{5000};
  /// Requests served on one connection before the server closes it
  /// (bounds per-connection resource pinning; advertised via Keep-Alive).
  std::size_t max_requests_per_connection = 1000;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer() = default;
  explicit HttpServer(HttpServerOptions options) : options_(options) {}
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler. `path` is either exact ("/stats") or a template
  /// with `{name}` segments ("/jobs/{id}/result") whose captures land in
  /// HttpRequest::path_params. Exact routes win over templates; templates
  /// match in registration order.
  void route(const std::string& method, const std::string& path, Handler handler);

  /// Binds to 127.0.0.1:`port` (0 = ephemeral) and starts serving on a
  /// background thread. Throws on bind failure.
  void start(std::uint16_t port = 0);

  /// Stops accepting, wakes every idle keep-alive connection, and drains
  /// and joins every in-flight handler (each still sends its response).
  void stop();

  bool running() const noexcept { return running_.load(); }
  std::uint16_t port() const noexcept { return port_; }
  const HttpServerOptions& options() const noexcept { return options_; }

  /// Matches `path` against a `{name}`-template. On success fills `params`
  /// with the captures and returns true. Exposed for unit tests.
  static bool match_path_template(const std::string& pattern, const std::string& path,
                                  std::map<std::string, std::string>& params);

 private:
  struct PatternRoute {
    std::string method;
    std::string pattern;
    Handler handler;
  };

  void serve_loop();
  void handle_connection(int client_fd);
  /// Serves one request from `buffer` + the socket. Returns false when the
  /// connection must close (error, EOF, idle timeout, or a close-semantics
  /// request). Consumed bytes are erased from `buffer`; pipelined bytes
  /// for the next request remain. The handler reads the body itself (see
  /// RequestBody); the server discards what it leaves unread.
  bool serve_one(int client_fd, std::string& buffer, std::size_t served);
  const Handler* find_route(HttpRequest& request, bool& method_known_for_path) const;

  HttpServerOptions options_{};
  std::map<std::pair<std::string, std::string>, Handler> routes_;
  std::vector<PatternRoute> pattern_routes_;
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> workers_;
  std::atomic<bool> running_{false};
  // Written by start()/stop(), read by the accept loop: must be atomic.
  std::atomic<int> listen_fd_{-1};
  // Open client connections, which stop() shuts for reading.
  std::mutex clients_mutex_;
  std::set<int> clients_;
  std::uint16_t port_ = 0;
};

}  // namespace bwaver
