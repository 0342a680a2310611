// Pooled HTTP client: keep-alive reuse actually reuses, and every transport
// failure mode surfaces as the right typed TransportError — the router keys
// failover decisions on these kinds, so they are contract, not detail.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "app/http_server.hpp"
#include "fleet/http_client.hpp"
#include "scripted_server.hpp"

namespace bwaver::fleet {
namespace {

using test::ScriptedServer;

/// Drains the request head so the client's send() is not racing our close.
void read_request_head(int fd) {
  std::string seen;
  char chunk[512];
  while (seen.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return;
    seen.append(chunk, static_cast<std::size_t>(n));
  }
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

TransportErrorKind request_error_kind(HttpClient& client, std::uint16_t port,
                                      const std::string& target = "/") {
  try {
    client.request("127.0.0.1", port, "GET", target);
  } catch (const TransportError& error) {
    return error.kind();
  }
  ADD_FAILURE() << "request unexpectedly succeeded";
  return TransportErrorKind::kFailed;
}

TEST(FleetHttpClient, KeepAlivePoolsOneConnectionAcrossRequests) {
  HttpServer server;
  server.route("GET", "/ping", [](const HttpRequest&) { return HttpResponse::text(200, "pong"); });
  server.start(0);

  HttpClient client;
  for (int i = 0; i < 5; ++i) {
    const ClientResponse response = client.request("127.0.0.1", server.port(), "GET", "/ping");
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, "pong");
  }
  EXPECT_EQ(client.requests_sent(), 5u);
  EXPECT_EQ(client.connections_opened(), 1u) << "sequential requests must reuse the pooled connection";
  server.stop();
}

TEST(FleetHttpClient, KeepAliveDisabledOpensPerRequest) {
  HttpServer server;
  server.route("GET", "/ping", [](const HttpRequest&) { return HttpResponse::text(200, "pong"); });
  server.start(0);

  HttpClientOptions options;
  options.keep_alive = false;
  HttpClient client(options);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.request("127.0.0.1", server.port(), "GET", "/ping").status, 200);
  }
  EXPECT_EQ(client.connections_opened(), 3u);
  server.stop();
}

TEST(FleetHttpClient, PooledConnectionsRetireBeforeTheServerDropsThem) {
  // The server closes a connection idle for its keep-alive timeout (5 s by
  // default). A client that pools one longer sends its next request into
  // the closed socket and has to retry it on a fresh connection.
  EXPECT_LT(HttpClientOptions{}.pool_idle_timeout, HttpServerOptions{}.keep_alive_timeout);

  HttpServer server;
  server.route("GET", "/ping", [](const HttpRequest&) { return HttpResponse::text(200, "pong"); });
  server.start(0);
  HttpClient client;
  EXPECT_EQ(client.request("127.0.0.1", server.port(), "GET", "/ping").status, 200);
  std::this_thread::sleep_for(HttpServerOptions{}.keep_alive_timeout +
                              std::chrono::milliseconds(300));
  EXPECT_EQ(client.request("127.0.0.1", server.port(), "GET", "/ping").status, 200);
  EXPECT_EQ(client.requests_sent(), 2u) << "a request went into a connection the server had closed";
  EXPECT_EQ(client.connections_opened(), 2u);
  server.stop();
}

TEST(FleetHttpClient, RetryAfterAStalePooledConnectionOpensAFreshOne) {
  // The server drops kept-alive connections after 100 ms idle; the client
  // pools them for 4 s. After a pause, every pooled connection is stale,
  // so the one retry must not take a second pooled connection.
  HttpServerOptions server_options;
  server_options.keep_alive_timeout = std::chrono::milliseconds(100);
  HttpServer server(server_options);
  server.route("GET", "/slow", [](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return HttpResponse::text(200, "pong");
  });
  server.start(0);

  HttpClient client;
  // Two overlapping requests leave two connections in the pool.
  std::thread other([&client, &server] {
    EXPECT_EQ(client.request("127.0.0.1", server.port(), "GET", "/slow").status, 200);
  });
  EXPECT_EQ(client.request("127.0.0.1", server.port(), "GET", "/slow").status, 200);
  other.join();
  ASSERT_EQ(client.connections_opened(), 2u);

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const ClientResponse response = client.request("127.0.0.1", server.port(), "GET", "/slow");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "pong");
  EXPECT_EQ(client.connections_opened(), 3u);
  server.stop();
}

TEST(FleetHttpClient, HttpErrorStatusesAreReturnedNotThrown) {
  HttpServer server;
  server.route("GET", "/missing",
               [](const HttpRequest&) { return HttpResponse::text(404, "not found"); });
  server.start(0);

  HttpClient client;
  const ClientResponse response = client.request("127.0.0.1", server.port(), "GET", "/missing");
  EXPECT_EQ(response.status, 404);
  EXPECT_EQ(response.body, "not found");
  server.stop();
}

TEST(FleetHttpClient, ConnectionRefusedIsKConnect) {
  // Grab an ephemeral port and release it so nothing listens there.
  std::uint16_t dead_port = 0;
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    dead_port = ntohs(addr.sin_port);
    ::close(fd);
  }
  HttpClient client;
  EXPECT_EQ(request_error_kind(client, dead_port), TransportErrorKind::kConnect);
}

TEST(FleetHttpClient, MalformedStatusLineIsKProtocol) {
  ScriptedServer server([](int fd) {
    read_request_head(fd);
    send_all(fd, "BOGUS/9.9 banana\r\n\r\n");
  });
  HttpClient client;
  EXPECT_EQ(request_error_kind(client, server.port()), TransportErrorKind::kProtocol);
}

TEST(FleetHttpClient, MidBodyDisconnectIsKReset) {
  ScriptedServer server([](int fd) {
    read_request_head(fd);
    // Promise 100 bytes, deliver 5, hang up.
    send_all(fd, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nhello");
  });
  HttpClient client;
  EXPECT_EQ(request_error_kind(client, server.port()), TransportErrorKind::kReset);
}

TEST(FleetHttpClient, OversizedResponseIsKOversize) {
  ScriptedServer server([](int fd) {
    read_request_head(fd);
    send_all(fd, "HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n");
    send_all(fd, std::string(4096, 'x'));
  });
  HttpClientOptions options;
  options.max_response_bytes = 1024;
  HttpClient client(options);
  EXPECT_EQ(request_error_kind(client, server.port()), TransportErrorKind::kOversize);
}

TEST(FleetHttpClient, SlowHeadersAreKTimeout) {
  ScriptedServer server([](int fd) {
    read_request_head(fd);
    // Never answer; hold the socket open past the client's header budget.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  });
  HttpClientOptions options;
  options.header_timeout = std::chrono::milliseconds(100);
  HttpClient client(options);
  const auto started = std::chrono::steady_clock::now();
  EXPECT_EQ(request_error_kind(client, server.port()), TransportErrorKind::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - started, std::chrono::milliseconds(450))
      << "timeout must fire at header_timeout, not at the server's leisure";
}

TEST(FleetHttpClient, RetryableClassificationMatchesRouterContract) {
  EXPECT_TRUE(is_retryable(TransportErrorKind::kConnect));
  EXPECT_TRUE(is_retryable(TransportErrorKind::kTimeout));
  EXPECT_TRUE(is_retryable(TransportErrorKind::kReset));
  EXPECT_TRUE(is_retryable(TransportErrorKind::kOverload));
  EXPECT_TRUE(is_retryable(TransportErrorKind::kFailed));
  EXPECT_FALSE(is_retryable(TransportErrorKind::kBadRequest))
      << "a bad request is bad on every backend";
  EXPECT_FALSE(is_retryable(TransportErrorKind::kCancelled));
}

}  // namespace
}  // namespace bwaver::fleet
