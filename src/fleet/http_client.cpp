#include "fleet/http_client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

namespace bwaver::fleet {

namespace {

using Clock = std::chrono::steady_clock;

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Milliseconds left until `deadline`, clamped to >= 0.
int remaining_ms(Clock::time_point deadline) {
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
  return static_cast<int>(std::max<std::int64_t>(left.count(), 0));
}

bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

const char* to_string(TransportErrorKind kind) {
  switch (kind) {
    case TransportErrorKind::kConnect: return "connect";
    case TransportErrorKind::kTimeout: return "timeout";
    case TransportErrorKind::kReset: return "reset";
    case TransportErrorKind::kOversize: return "oversize";
    case TransportErrorKind::kProtocol: return "protocol";
    case TransportErrorKind::kOverload: return "overload";
    case TransportErrorKind::kBadRequest: return "bad_request";
    case TransportErrorKind::kFailed: return "failed";
    case TransportErrorKind::kCancelled: return "cancelled";
  }
  return "?";
}

bool is_retryable(TransportErrorKind kind) {
  switch (kind) {
    case TransportErrorKind::kConnect:
    case TransportErrorKind::kTimeout:
    case TransportErrorKind::kReset:
    case TransportErrorKind::kOversize:
    case TransportErrorKind::kProtocol:
    case TransportErrorKind::kOverload:
    case TransportErrorKind::kFailed:
      return true;
    case TransportErrorKind::kBadRequest:
    case TransportErrorKind::kCancelled:
      return false;
  }
  return false;
}

HttpClient::HttpClient(HttpClientOptions options) : options_(options) {}

HttpClient::~HttpClient() { close_idle(); }

void HttpClient::close_idle() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, connections] : pool_) {
    for (Connection& connection : connections) ::close(connection.fd);
    connections.clear();
  }
  pool_.clear();
}

HttpClient::Connection HttpClient::open_connection(const std::string& host,
                                                   std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw TransportError(TransportErrorKind::kConnect, "socket(): " + std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw TransportError(TransportErrorKind::kConnect, "bad address: " + host);
  }

  // Non-blocking connect with a poll() deadline, then back to blocking
  // (reads are paced by poll() anyway).
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      const std::string detail = std::strerror(errno);
      ::close(fd);
      throw TransportError(TransportErrorKind::kConnect,
                           host + ":" + std::to_string(port) + ": " + detail);
    }
    pollfd waiter{};
    waiter.fd = fd;
    waiter.events = POLLOUT;
    const int ready =
        ::poll(&waiter, 1, static_cast<int>(options_.connect_timeout.count()));
    int err = 0;
    socklen_t len = sizeof(err);
    if (ready <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      if (ready <= 0) {
        throw TransportError(TransportErrorKind::kConnect,
                             host + ":" + std::to_string(port) + ": connect timeout");
      }
      throw TransportError(TransportErrorKind::kConnect,
                           host + ":" + std::to_string(port) + ": " + std::strerror(err));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  connections_opened_.fetch_add(1, std::memory_order_relaxed);
  Connection connection;
  connection.fd = fd;
  connection.last_used = Clock::now();
  return connection;
}

HttpClient::Connection HttpClient::checkout(const std::string& host, std::uint16_t port,
                                            bool& reused) {
  const std::string key = host + ":" + std::to_string(port);
  if (options_.keep_alive) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& connections = pool_[key];
    const auto now = Clock::now();
    while (!connections.empty()) {
      Connection connection = connections.back();
      connections.pop_back();
      if (now - connection.last_used > options_.pool_idle_timeout) {
        ::close(connection.fd);
        continue;
      }
      reused = true;
      return connection;
    }
  }
  reused = false;
  return open_connection(host, port);
}

void HttpClient::checkin(const std::string& key, Connection connection, bool reusable) {
  if (!reusable || !options_.keep_alive ||
      connection.requests >= options_.max_requests_per_connection) {
    ::close(connection.fd);
    return;
  }
  connection.last_used = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  auto& connections = pool_[key];
  if (connections.size() >= options_.max_pool_per_host) {
    ::close(connection.fd);
    return;
  }
  connections.push_back(connection);
}

ClientResponse HttpClient::roundtrip(
    Connection& connection, const std::string& host, const std::string& method,
    const std::string& target, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers,
    bool& connection_reusable, bool& peer_died_early) {
  connection_reusable = false;
  peer_died_early = false;

  std::string request = method + " " + target + " HTTP/1.1\r\nHost: " + host + "\r\n";
  request += options_.keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : headers) {
    request += name + ": " + value + "\r\n";
  }
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  if (!send_all(connection.fd, request.data(), request.size())) {
    peer_died_early = true;  // a stale pooled connection dies on send
    throw TransportError(TransportErrorKind::kReset, "send failed: " + std::string(std::strerror(errno)));
  }
  connection.requests++;
  requests_sent_.fetch_add(1, std::memory_order_relaxed);

  // Response head, under the header deadline.
  const auto header_deadline = Clock::now() + options_.header_timeout;
  std::string buffer;
  std::size_t header_end = std::string::npos;
  char chunk[8192];
  while (header_end == std::string::npos) {
    pollfd waiter{};
    waiter.fd = connection.fd;
    waiter.events = POLLIN;
    const int ready = ::poll(&waiter, 1, remaining_ms(header_deadline));
    if (ready <= 0) {
      throw TransportError(TransportErrorKind::kTimeout,
                           "response headers not received within " +
                               std::to_string(options_.header_timeout.count()) + " ms");
    }
    const ssize_t n = ::recv(connection.fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (buffer.empty()) {
        // Not one response byte: indistinguishable from a keep-alive race
        // on a reused connection; the caller may retry once.
        peer_died_early = true;
      }
      throw TransportError(TransportErrorKind::kReset,
                           "peer closed before response headers completed");
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    header_end = buffer.find("\r\n\r\n");
    if (header_end == std::string::npos && buffer.size() > (1u << 20)) {
      throw TransportError(TransportErrorKind::kProtocol, "response headers exceed 1 MiB");
    }
  }

  // Status line: "HTTP/1.1 NNN Reason".
  ClientResponse response;
  {
    const std::size_t eol = buffer.find("\r\n");
    const std::string status_line = buffer.substr(0, eol);
    if (status_line.compare(0, 5, "HTTP/") != 0) {
      throw TransportError(TransportErrorKind::kProtocol,
                           "bad status line: " + status_line.substr(0, 64));
    }
    const std::size_t sp = status_line.find(' ');
    if (sp == std::string::npos || sp + 4 > status_line.size() ||
        !std::isdigit(static_cast<unsigned char>(status_line[sp + 1])) ||
        !std::isdigit(static_cast<unsigned char>(status_line[sp + 2])) ||
        !std::isdigit(static_cast<unsigned char>(status_line[sp + 3]))) {
      throw TransportError(TransportErrorKind::kProtocol,
                           "bad status line: " + status_line.substr(0, 64));
    }
    response.status = std::stoi(status_line.substr(sp + 1, 3));

    std::size_t pos = eol + 2;
    while (pos < header_end) {
      std::size_t line_end = buffer.find("\r\n", pos);
      if (line_end == std::string::npos || line_end > header_end) line_end = header_end;
      const std::string line = buffer.substr(pos, line_end - pos);
      pos = line_end + 2;
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.erase(value.begin());
      response.headers[lower(line.substr(0, colon))] = value;
    }
  }

  // Body framing: Content-Length (ours always sends it) or read-to-EOF.
  std::size_t content_length = 0;
  bool has_length = false;
  if (const auto it = response.headers.find("content-length"); it != response.headers.end()) {
    try {
      content_length = static_cast<std::size_t>(std::stoull(it->second));
      has_length = true;
    } catch (const std::exception&) {
      throw TransportError(TransportErrorKind::kProtocol,
                           "bad Content-Length: " + it->second.substr(0, 64));
    }
  }
  if (has_length && content_length > options_.max_response_bytes) {
    throw TransportError(TransportErrorKind::kOversize,
                         "response of " + std::to_string(content_length) +
                             " bytes exceeds cap of " +
                             std::to_string(options_.max_response_bytes));
  }

  response.body = buffer.substr(header_end + 4);
  while (!has_length || response.body.size() < content_length) {
    if (response.body.size() > options_.max_response_bytes) {
      throw TransportError(TransportErrorKind::kOversize,
                           "response exceeds cap of " +
                               std::to_string(options_.max_response_bytes) + " bytes");
    }
    pollfd waiter{};
    waiter.fd = connection.fd;
    waiter.events = POLLIN;
    const int ready =
        ::poll(&waiter, 1, static_cast<int>(options_.body_timeout.count()));
    if (ready <= 0) {
      throw TransportError(TransportErrorKind::kTimeout,
                           "response body stalled beyond " +
                               std::to_string(options_.body_timeout.count()) + " ms");
    }
    const ssize_t n = ::recv(connection.fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (!has_length) break;  // EOF terminates an unframed body
      throw TransportError(TransportErrorKind::kReset,
                           "peer closed mid-body (" +
                               std::to_string(response.body.size()) + "/" +
                               std::to_string(content_length) + " bytes)");
    }
    response.body.append(chunk, static_cast<std::size_t>(n));
  }
  if (has_length && response.body.size() > content_length) {
    // Pipelined surplus would desynchronize the pooled connection; we never
    // pipeline, so surplus bytes mean broken framing.
    throw TransportError(TransportErrorKind::kProtocol, "response longer than Content-Length");
  }

  connection_reusable = has_length && options_.keep_alive &&
                        lower(response.header("connection")) == "keep-alive";
  return response;
}

ClientResponse HttpClient::request(
    const std::string& host, std::uint16_t port, const std::string& method,
    const std::string& target, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  const std::string key = host + ":" + std::to_string(port);
  for (int attempt = 0;; ++attempt) {
    bool reused = false;
    // The retry below follows a pooled connection the server had closed;
    // the rest of the pool idled as long, so it opens a fresh one.
    Connection connection =
        attempt == 0 ? checkout(host, port, reused) : open_connection(host, port);
    bool reusable = false;
    bool died_early = false;
    try {
      ClientResponse response = roundtrip(connection, host, method, target, body,
                                          headers, reusable, died_early);
      checkin(key, connection, reusable);
      return response;
    } catch (const TransportError&) {
      ::close(connection.fd);
      // One silent retry for the classic keep-alive race: the server closed
      // the pooled connection while our request was in flight. Only when the
      // connection was reused and not a single response byte arrived.
      if (reused && died_early && attempt == 0) continue;
      throw;
    }
  }
}

}  // namespace bwaver::fleet
