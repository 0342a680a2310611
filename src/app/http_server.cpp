#include "app/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>

namespace bwaver {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 410: return "Gone";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

/// Percent- and '+'-decoding for query strings; malformed escapes pass
/// through verbatim.
std::string url_decode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size() &&
               std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
      out.push_back(static_cast<char>(std::stoi(s.substr(i + 1, 2), nullptr, 16)));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::map<std::string, std::string> parse_query(const std::string& query) {
  std::map<std::string, std::string> params;
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    pos = amp + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      params[url_decode(pair)] = "";
    } else {
      params[url_decode(pair.substr(0, eq))] = url_decode(pair.substr(eq + 1));
    }
  }
  return params;
}

/// Sends `head` then `body` with as few sendmsg calls as the socket takes:
/// a small response leaves in one segment instead of a head segment that
/// waits for its ACK before the body may follow.
bool send_all(int fd, std::string_view head, std::string_view body) {
  iovec parts[2] = {{const_cast<char*>(head.data()), head.size()},
                    {const_cast<char*>(body.data()), body.size()}};
  iovec* next = parts;
  std::size_t count = body.empty() ? 1 : 2;
  while (count > 0) {
    msghdr message{};
    message.msg_iov = next;
    message.msg_iovlen = count;
    // MSG_NOSIGNAL: a peer that hangs up mid-response (a pooled client
    // retiring the connection, a killed router) must surface as EPIPE here,
    // not as a process-wide SIGPIPE.
    const ssize_t sent = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (sent <= 0) return false;
    auto left = static_cast<std::size_t>(sent);
    while (count > 0 && left >= next->iov_len) {
      left -= next->iov_len;
      ++next;
      --count;
    }
    if (count > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + left;
      next->iov_len -= left;
    }
  }
  return true;
}

/// Keep-alive grant advertised on a response: none (close), or a timeout
/// plus how many further requests this connection may carry.
struct KeepAliveGrant {
  bool keep = false;
  std::chrono::milliseconds timeout{0};
  std::size_t remaining = 0;
};

void send_response(int fd, const HttpResponse& response,
                   const KeepAliveGrant& grant = KeepAliveGrant{}) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     status_text(response.status) + "\r\n";
  head += "Content-Type: " + response.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.headers) {
    head += name + ": " + value + "\r\n";
  }
  if (grant.keep) {
    head += "Connection: keep-alive\r\n";
    head += "Keep-Alive: timeout=" +
            std::to_string(grant.timeout.count() / 1000) + ", max=" +
            std::to_string(grant.remaining) + "\r\n\r\n";
  } else {
    head += "Connection: close\r\n\r\n";
  }
  send_all(fd, head, response.body);
}

/// One poll+recv with a timeout; appends to `buffer`. Returns false on
/// timeout, EOF, or error.
bool recv_some(int fd, std::string& buffer, std::chrono::milliseconds timeout) {
  pollfd waiter{};
  waiter.fd = fd;
  waiter.events = POLLIN;
  const int ready = ::poll(&waiter, 1, static_cast<int>(timeout.count()));
  if (ready <= 0) return false;
  char chunk[4096];
  const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
  if (n <= 0) return false;
  buffer.append(chunk, static_cast<std::size_t>(n));
  return true;
}

/// Smallest step by which a whole body's string grows (read_body).
constexpr std::size_t kBodyReadBytes = std::size_t{256} << 10;

/// Splits a path into '/'-separated segments ("" for the root path).
std::vector<std::string> split_segments(const std::string& path) {
  std::vector<std::string> segments;
  std::size_t pos = 1;  // skip the leading '/'
  while (pos <= path.size()) {
    std::size_t slash = path.find('/', pos);
    if (slash == std::string::npos) slash = path.size();
    segments.push_back(path.substr(pos, slash - pos));
    pos = slash + 1;
  }
  return segments;
}

bool is_template(const std::string& path) {
  return path.find('{') != std::string::npos;
}

/// Client-supplied request ids pass through with hostile characters
/// stripped (they are echoed in headers and logs) and a sane length cap.
std::string sanitize_request_id(const std::string& raw) {
  std::string out;
  out.reserve(std::min<std::size_t>(raw.size(), 64));
  for (const char c : raw) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                    (c >= 'A' && c <= 'Z') || c == '-' || c == '_' || c == '.' ||
                    c == ':';
    if (ok) out.push_back(c);
    if (out.size() == 64) break;
  }
  return out;
}

/// Process-unique fallback id: startup-timestamped prefix + sequence number.
std::string generate_request_id() {
  static const std::uint64_t epoch = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  static std::atomic<std::uint64_t> sequence{0};
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "req-%llx-%llu",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(
                    sequence.fetch_add(1, std::memory_order_relaxed) + 1));
  return buffer;
}

}  // namespace

std::string url_encode(const std::string& value) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(value.size());
  for (const unsigned char c : value) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(hex[c >> 4]);
      out.push_back(hex[c & 0xf]);
    }
  }
  return out;
}

std::size_t RequestBody::read(std::uint8_t* out, std::size_t size) {
  if (failed_) throw IoError("request body: the connection failed");
  size = std::min(size, remaining_);
  if (size == 0) return 0;
  if (!carried_.empty()) {
    const std::size_t take = std::min(size, carried_.size());
    std::memcpy(out, carried_.data(), take);
    carried_.erase(0, take);
    remaining_ -= take;
    return take;
  }
  pollfd waiter{};
  waiter.fd = fd_;
  waiter.events = POLLIN;
  if (::poll(&waiter, 1, static_cast<int>(timeout_.count())) <= 0) {
    failed_ = true;
    throw IoError("request body: no bytes for " + std::to_string(timeout_.count()) + " ms");
  }
  const ssize_t n = ::recv(fd_, out, size, 0);
  if (n <= 0) {
    failed_ = true;
    throw IoError("request body ended " + std::to_string(remaining_) + " bytes short");
  }
  remaining_ -= static_cast<std::size_t>(n);
  return static_cast<std::size_t>(n);
}

bool RequestBody::discard_rest() noexcept {
  std::uint8_t sink[16384];
  try {
    while (remaining_ > 0) read(sink, sizeof(sink));
  } catch (const std::exception&) {
    return false;
  }
  return !failed_;
}

std::string HttpRequest::read_body() const {
  std::string out;
  if (body == nullptr) return out;
  std::size_t filled = 0;
  while (body->remaining() > 0) {
    if (filled == out.size()) {
      out.resize(filled + std::min(body->remaining(), std::max(filled, kBodyReadBytes)));
    }
    filled += body->read(reinterpret_cast<std::uint8_t*>(out.data()) + filled,
                         out.size() - filled);
  }
  return out;
}

HttpResponse HttpResponse::text(int status, std::string message) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(message);
  return response;
}

HttpResponse HttpResponse::html(std::string markup) {
  HttpResponse response;
  response.content_type = "text/html; charset=utf-8";
  response.body = std::move(markup);
  return response;
}

HttpResponse HttpResponse::json(int status, std::string document) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = std::move(document);
  return response;
}

HttpResponse HttpResponse::bytes(const std::string& content_type, std::string payload) {
  HttpResponse response;
  response.content_type = content_type;
  response.body = std::move(payload);
  return response;
}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::match_path_template(const std::string& pattern, const std::string& path,
                                     std::map<std::string, std::string>& params) {
  if (pattern.empty() || path.empty() || pattern[0] != '/' || path[0] != '/') {
    return false;
  }
  const auto pattern_segments = split_segments(pattern);
  const auto path_segments = split_segments(path);
  if (pattern_segments.size() != path_segments.size()) return false;
  std::map<std::string, std::string> captured;
  for (std::size_t i = 0; i < pattern_segments.size(); ++i) {
    const std::string& ps = pattern_segments[i];
    if (ps.size() >= 2 && ps.front() == '{' && ps.back() == '}') {
      if (path_segments[i].empty()) return false;  // `{id}` never matches ""
      captured[ps.substr(1, ps.size() - 2)] = url_decode(path_segments[i]);
    } else if (ps != path_segments[i]) {
      return false;
    }
  }
  params = std::move(captured);
  return true;
}

void HttpServer::route(const std::string& method, const std::string& path,
                       Handler handler) {
  if (is_template(path)) {
    pattern_routes_.push_back(PatternRoute{method, path, std::move(handler)});
  } else {
    routes_[{method, path}] = std::move(handler);
  }
}

void HttpServer::start(std::uint16_t port) {
  if (running_.load()) throw std::logic_error("HttpServer: already running");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("HttpServer: socket() failed");
  const int opt = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &opt, sizeof(opt));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("HttpServer: bind() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  if (::listen(fd, std::max(options_.accept_backlog, 1)) != 0) {
    ::close(fd);
    throw std::runtime_error("HttpServer: listen() failed");
  }
  workers_ = std::make_unique<ThreadPool>(std::max<std::size_t>(options_.worker_threads, 1));
  listen_fd_.store(fd);
  running_.store(true);
  accept_thread_ = std::thread([this] { serve_loop(); });
}

void HttpServer::stop() {
  if (!running_.exchange(false)) return;
  // Shutting down the listening socket unblocks accept().
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Shutting every open connection for reading wakes a worker parked on an
  // idle keep-alive connection at once (its poll sees EOF) instead of after
  // the idle timeout; a handler already running still sends its response.
  {
    const std::lock_guard lock(clients_mutex_);
    for (const int client : clients_) ::shutdown(client, SHUT_RD);
  }
  // Joining the pool drains queued connections and finishes in-flight
  // handlers — no detached threads can outlive the server.
  workers_.reset();
}

void HttpServer::serve_loop() {
  while (running_.load()) {
    const int fd = listen_fd_.load();
    if (fd < 0) break;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (!running_.load()) break;
      continue;
    }
    // Responses leave whole (one sendmsg); Nagle would still hold the tail
    // of a large one for an ACK the client delays.
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Connection-level overload shedding: the kernel backlog absorbs
    // bursts, the pool bounds concurrency, and anything beyond the pending
    // cap is told to come back instead of queueing without limit.
    if (workers_->pending() >= options_.max_pending_connections) {
      HttpResponse busy = HttpResponse::text(503, "server overloaded\n");
      busy.with_header("Retry-After", "1");
      send_response(client, busy);
      ::close(client);
      continue;
    }
    {
      const std::lock_guard lock(clients_mutex_);
      clients_.insert(client);
    }
    workers_->post([this, client] {
      handle_connection(client);
      // Deregistered before the close, so stop() never shuts a reused fd.
      {
        const std::lock_guard lock(clients_mutex_);
        clients_.erase(client);
      }
      ::close(client);
    });
  }
}

const HttpServer::Handler* HttpServer::find_route(HttpRequest& request,
                                                  bool& method_known_for_path) const {
  method_known_for_path = false;
  const auto exact = routes_.find({request.method, request.path});
  if (exact != routes_.end()) return &exact->second;
  for (const auto& route : pattern_routes_) {
    std::map<std::string, std::string> params;
    if (!match_path_template(route.pattern, request.path, params)) continue;
    if (route.method != request.method) {
      method_known_for_path = true;
      continue;
    }
    request.path_params = std::move(params);
    return &route.handler;
  }
  for (const auto& [key, handler] : routes_) {
    if (key.second == request.path) {
      method_known_for_path = true;
      break;
    }
  }
  return nullptr;
}

void HttpServer::handle_connection(int client_fd) {
  // Sequential keep-alive loop: each serve_one() call consumes exactly one
  // request from the connection (pipelined bytes carry over in `buffer`)
  // and reports whether the connection may serve another.
  std::string buffer;
  std::size_t served = 0;
  while (running_.load() && served < options_.max_requests_per_connection) {
    if (!serve_one(client_fd, buffer, served)) break;
    ++served;
  }
}

bool HttpServer::serve_one(int client_fd, std::string& buffer, std::size_t served) {
  // Read until the end of headers. The idle timeout bounds both waiting
  // for a follow-up request on a kept-alive connection and a half-sent
  // request stalling between reads.
  std::size_t header_end = buffer.find("\r\n\r\n");
  while (header_end == std::string::npos) {
    if (!recv_some(client_fd, buffer, options_.keep_alive_timeout)) return false;
    header_end = buffer.find("\r\n\r\n");
    if (buffer.size() > (1u << 20) && header_end == std::string::npos) return false;
  }

  HttpRequest request;
  std::string http_version;
  {
    const std::string head = buffer.substr(0, header_end);
    std::size_t pos = 0;
    std::size_t eol = head.find("\r\n");
    const std::string request_line = head.substr(0, eol == std::string::npos ? head.size() : eol);
    const std::size_t sp1 = request_line.find(' ');
    const std::size_t sp2 = request_line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) return false;
    request.method = request_line.substr(0, sp1);
    request.path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    http_version = request_line.substr(sp2 + 1);
    if (const std::size_t qmark = request.path.find('?'); qmark != std::string::npos) {
      request.query = parse_query(request.path.substr(qmark + 1));
      request.path.resize(qmark);
    }

    pos = (eol == std::string::npos) ? head.size() : eol + 2;
    while (pos < head.size()) {
      std::size_t line_end = head.find("\r\n", pos);
      if (line_end == std::string::npos) line_end = head.size();
      const std::string line = head.substr(pos, line_end - pos);
      pos = line_end + 2;
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.erase(value.begin());
      request.headers[lower(line.substr(0, colon))] = value;
    }
  }

  // Keep-alive negotiation: HTTP/1.1 defaults to persistent unless the
  // client sent Connection: close; HTTP/1.0 always closes (we do not
  // honor opt-in 1.0 keep-alive). The grant is decided before dispatch so
  // error responses advertise the right semantics too.
  KeepAliveGrant grant;
  {
    std::string connection;
    if (const auto it = request.headers.find("connection"); it != request.headers.end()) {
      connection = lower(it->second);
    }
    grant.keep = options_.keep_alive && http_version == "HTTP/1.1" &&
                 connection != "close" &&
                 served + 1 < options_.max_requests_per_connection;
    grant.timeout = options_.keep_alive_timeout;
    grant.remaining = options_.max_requests_per_connection - served - 1;
  }

  // Request-id propagation: honor a client X-Request-Id (sanitized), mint
  // one otherwise, and echo it on every response from here on so a job can
  // be correlated across client logs, /jobs objects, and trace spans.
  std::string request_id;
  if (const auto it = request.headers.find("x-request-id"); it != request.headers.end()) {
    request_id = sanitize_request_id(it->second);
  }
  if (request_id.empty()) request_id = generate_request_id();
  request.headers["x-request-id"] = request_id;
  const auto respond = [client_fd, &request_id, &grant](HttpResponse response) {
    response.with_header("X-Request-Id", request_id);
    send_response(client_fd, response, grant);
  };

  // Only Content-Length bodies are read. A transfer coding cannot be skipped
  // without decoding it, and its bytes would be taken for the next request.
  if (request.headers.count("transfer-encoding") != 0) {
    grant.keep = false;
    respond(HttpResponse::text(501, "unsupported transfer coding; send Content-Length\n"));
    return false;
  }
  // The body's length is capped before a single byte of it is read.
  std::size_t content_length = 0;
  if (auto it = request.headers.find("content-length"); it != request.headers.end()) {
    try {
      content_length = static_cast<std::size_t>(std::stoull(it->second));
    } catch (const std::exception&) {
      grant.keep = false;  // framing is lost without a believable length
      respond(HttpResponse::text(400, "bad Content-Length\n"));
      return false;
    }
  }
  if (content_length > options_.max_body_bytes) {
    grant.keep = false;  // the oversized body is still on the wire
    respond(HttpResponse::text(413, "request body exceeds " +
                                        std::to_string(options_.max_body_bytes) +
                                        " bytes\n"));
    return false;
  }
  request.content_length = content_length;
  // A client that asked to be told (curl does, for bodies over 1 MiB) waits
  // for this before it sends the body.
  if (const auto it = request.headers.find("expect");
      content_length > 0 && it != request.headers.end() && lower(it->second) == "100-continue") {
    send_all(client_fd, "HTTP/1.1 100 Continue\r\n\r\n", {});
  }
  // The handler reads the body as it arrives, starting with the bytes that
  // came in with the head; bytes past the body stay in `buffer` for the
  // next pipelined request.
  buffer.erase(0, header_end + 4);
  RequestBody body(client_fd, buffer, content_length, options_.keep_alive_timeout);
  request.body = &body;

  // Dispatch.
  HttpResponse response;
  bool method_known_for_path = false;
  const Handler* handler = find_route(request, method_known_for_path);
  if (handler == nullptr) {
    response = method_known_for_path
                   ? HttpResponse::text(405, "method not allowed: " + request.method +
                                                 " " + request.path + "\n")
                   : HttpResponse::text(404, "not found: " + request.path + "\n");
  } else {
    try {
      response = (*handler)(request);
    } catch (const std::exception& e) {
      response = HttpResponse::text(500, std::string("error: ") + e.what() + "\n");
    }
  }
  // A body that stalled or ended short never made a request: no answer.
  if (body.failed()) return false;
  respond(std::move(response));
  // An early answer (a handler's 4xx, or the 404/405 above) leaves the rest
  // of the body unread. It is read and dropped, so the response is not lost
  // to a reset and the next request starts where this one ends.
  return body.discard_rest() && grant.keep;
}

}  // namespace bwaver
