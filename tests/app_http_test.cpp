#include "app/http_server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include "app/web_service.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "io/gzip.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace bwaver {
namespace {

/// Blocking loopback HTTP client good enough for tests.
std::string http_request(std::uint16_t port, const std::string& method,
                         const std::string& path, const std::string& body = "") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::string request = method + " " + path + " HTTP/1.1\r\nHost: localhost\r\n";
  // These helpers read the response until EOF, so opt out of keep-alive.
  request += "Connection: close\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));

  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpServer, RoutesAndResponds) {
  HttpServer server;
  server.route("GET", "/ping", [](const HttpRequest&) {
    return HttpResponse::text(200, "pong");
  });
  server.start(0);
  ASSERT_GT(server.port(), 0);

  const std::string response = http_request(server.port(), "GET", "/ping");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("pong"), std::string::npos);
  server.stop();
}

TEST(HttpServer, UnknownPathIs404) {
  HttpServer server;
  server.start(0);
  const std::string response = http_request(server.port(), "GET", "/missing");
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos);
  server.stop();
}

TEST(HttpServer, PostBodyIsDelivered) {
  HttpServer server;
  std::string received;
  server.route("POST", "/echo", [&](const HttpRequest& request) {
    received = request.read_body();
    return HttpResponse::text(200, "got " + std::to_string(received.size()));
  });
  server.start(0);
  const std::string body(10000, 'x');  // larger than one recv chunk
  const std::string response = http_request(server.port(), "POST", "/echo", body);
  EXPECT_NE(response.find("got 10000"), std::string::npos);
  EXPECT_EQ(received, body);
  server.stop();
}

TEST(HttpServer, HandlerExceptionBecomes500) {
  HttpServer server;
  server.route("GET", "/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("kaboom");
  });
  server.start(0);
  const std::string response = http_request(server.port(), "GET", "/boom");
  EXPECT_NE(response.find("HTTP/1.1 500"), std::string::npos);
  EXPECT_NE(response.find("kaboom"), std::string::npos);
  server.stop();
}

TEST(HttpServer, MultipleSequentialRequests) {
  HttpServer server;
  server.route("GET", "/n", [](const HttpRequest&) {
    static int counter = 0;
    return HttpResponse::text(200, std::to_string(++counter));
  });
  server.start(0);
  for (int i = 1; i <= 5; ++i) {
    const std::string response = http_request(server.port(), "GET", "/n");
    EXPECT_NE(response.find(std::to_string(i)), std::string::npos);
  }
  server.stop();
}

TEST(HttpServer, DoubleStartThrows) {
  HttpServer server;
  server.start(0);
  EXPECT_THROW(server.start(0), std::logic_error);
  server.stop();
}

// ------------------------------------------------- path-template routing

TEST(HttpServerRouting, TemplateMatchCapturesParams) {
  std::map<std::string, std::string> params;
  EXPECT_TRUE(HttpServer::match_path_template("/jobs/{id}", "/jobs/42", params));
  EXPECT_EQ(params.at("id"), "42");

  EXPECT_TRUE(
      HttpServer::match_path_template("/jobs/{id}/result", "/jobs/7/result", params));
  EXPECT_EQ(params.at("id"), "7");

  EXPECT_TRUE(HttpServer::match_path_template("/a/{x}/b/{y}", "/a/one/b/two", params));
  EXPECT_EQ(params.at("x"), "one");
  EXPECT_EQ(params.at("y"), "two");
}

TEST(HttpServerRouting, TemplateMissCases) {
  std::map<std::string, std::string> params;
  // Wrong segment count.
  EXPECT_FALSE(HttpServer::match_path_template("/jobs/{id}", "/jobs", params));
  EXPECT_FALSE(HttpServer::match_path_template("/jobs/{id}", "/jobs/42/result", params));
  // Literal mismatch.
  EXPECT_FALSE(HttpServer::match_path_template("/jobs/{id}", "/tasks/42", params));
  EXPECT_FALSE(
      HttpServer::match_path_template("/jobs/{id}/result", "/jobs/42/status", params));
  // An empty segment never satisfies a capture.
  EXPECT_FALSE(HttpServer::match_path_template("/jobs/{id}", "/jobs/", params));
  // Non-rooted inputs.
  EXPECT_FALSE(HttpServer::match_path_template("jobs/{id}", "/jobs/42", params));
  EXPECT_FALSE(HttpServer::match_path_template("/jobs/{id}", "jobs/42", params));
}

TEST(HttpServerRouting, PathParamsReachHandlers) {
  HttpServer server;
  server.route("GET", "/jobs/{id}", [](const HttpRequest& request) {
    return HttpResponse::text(200, "job=" + request.path_param("id"));
  });
  server.route("GET", "/jobs/{id}/result", [](const HttpRequest& request) {
    return HttpResponse::text(200, "result-for=" + request.path_param("id"));
  });
  server.start(0);

  EXPECT_NE(http_request(server.port(), "GET", "/jobs/42").find("job=42"),
            std::string::npos);
  EXPECT_NE(http_request(server.port(), "GET", "/jobs/42/result")
                .find("result-for=42"),
            std::string::npos);
  // Misses fall through to 404.
  EXPECT_NE(http_request(server.port(), "GET", "/jobs/42/other").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(http_request(server.port(), "GET", "/jobs").find("HTTP/1.1 404"),
            std::string::npos);
  server.stop();
}

TEST(HttpServerRouting, ExactRouteWinsOverTemplate) {
  HttpServer server;
  server.route("GET", "/jobs/{id}", [](const HttpRequest&) {
    return HttpResponse::text(200, "template");
  });
  server.route("GET", "/jobs/latest", [](const HttpRequest&) {
    return HttpResponse::text(200, "exact");
  });
  server.start(0);
  EXPECT_NE(http_request(server.port(), "GET", "/jobs/latest").find("exact"),
            std::string::npos);
  EXPECT_NE(http_request(server.port(), "GET", "/jobs/3").find("template"),
            std::string::npos);
  server.stop();
}

TEST(HttpServerRouting, WrongMethodOnKnownPathIs405) {
  HttpServer server;
  server.route("GET", "/ping", [](const HttpRequest&) {
    return HttpResponse::text(200, "pong");
  });
  server.route("GET", "/jobs/{id}", [](const HttpRequest&) {
    return HttpResponse::text(200, "job");
  });
  server.start(0);
  EXPECT_NE(http_request(server.port(), "POST", "/ping").find("HTTP/1.1 405"),
            std::string::npos);
  EXPECT_NE(http_request(server.port(), "POST", "/jobs/9").find("HTTP/1.1 405"),
            std::string::npos);
  server.stop();
}

// ----------------------------------------- body limits and worker pool

TEST(HttpServerLimits, OversizedBodyIs413) {
  HttpServerOptions options;
  options.max_body_bytes = 512;
  HttpServer server(options);
  bool handler_ran = false;
  server.route("POST", "/upload", [&](const HttpRequest&) {
    handler_ran = true;
    return HttpResponse::text(200, "ok");
  });
  server.start(0);
  const std::string big(2048, 'x');
  const std::string response = http_request(server.port(), "POST", "/upload", big);
  EXPECT_NE(response.find("HTTP/1.1 413"), std::string::npos);
  EXPECT_FALSE(handler_ran) << "oversized bodies must be rejected before dispatch";
  // At the limit is still accepted.
  const std::string ok = http_request(server.port(), "POST", "/upload",
                                      std::string(512, 'x'));
  EXPECT_NE(ok.find("HTTP/1.1 200"), std::string::npos);
  server.stop();
}

TEST(HttpServerLimits, ExtraHeadersAreEmitted) {
  HttpServer server;
  server.route("GET", "/busy", [](const HttpRequest&) {
    HttpResponse response = HttpResponse::text(503, "try later\n");
    response.with_header("Retry-After", "3");
    return response;
  });
  server.start(0);
  const std::string response = http_request(server.port(), "GET", "/busy");
  EXPECT_NE(response.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(response.find("Retry-After: 3"), std::string::npos);
  server.stop();
}

TEST(HttpServerPool, BoundedWorkersServeConcurrentBurst) {
  HttpServerOptions options;
  options.worker_threads = 2;
  HttpServer server(options);
  std::atomic<int> served{0};
  server.route("GET", "/slow", [&](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ++served;
    return HttpResponse::text(200, "done");
  });
  server.start(0);
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&] {
      const std::string response = http_request(server.port(), "GET", "/slow");
      if (response.find("HTTP/1.1 200") != std::string::npos) ++ok;
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(ok.load(), 8) << "burst beyond the pool size must still be served";
  EXPECT_EQ(served.load(), 8);
  server.stop();
}

TEST(HttpServerPool, StopJoinsInFlightHandlers) {
  HttpServer server;
  std::atomic<bool> finished{false};
  server.route("GET", "/slow", [&](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    finished = true;
    return HttpResponse::text(200, "done");
  });
  server.start(0);
  std::thread client([&] { http_request(server.port(), "GET", "/slow"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // handler in flight
  server.stop();
  EXPECT_TRUE(finished.load()) << "stop() must join, not abandon, in-flight handlers";
  client.join();
}

// --------------------------------------------------------- keep-alive

/// Reads exactly one Content-Length-framed response from `fd`.
std::string read_one_response(int fd) {
  std::string data;
  char chunk[4096];
  while (data.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return data;
    data.append(chunk, static_cast<std::size_t>(n));
  }
  const std::size_t head_end = data.find("\r\n\r\n") + 4;
  std::size_t content_length = 0;
  const std::size_t at = data.find("Content-Length: ");
  if (at != std::string::npos && at < head_end) {
    content_length = std::strtoul(data.c_str() + at + 16, nullptr, 10);
  }
  while (data.size() < head_end + content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    data.append(chunk, static_cast<std::size_t>(n));
  }
  return data.substr(0, head_end + content_length);
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

TEST(HttpServerKeepAlive, OneConnectionServesSequentialRequests) {
  HttpServer server;
  std::atomic<int> hits{0};
  server.route("GET", "/ping", [&](const HttpRequest&) {
    ++hits;
    return HttpResponse::text(200, "pong");
  });
  server.start(0);

  const int fd = connect_to(server.port());
  const std::string request =
      "GET /ping HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n";
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    const std::string response = read_one_response(fd);
    EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
    EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos)
        << "an HTTP/1.1 response on a reusable connection must advertise keep-alive";
    EXPECT_NE(response.find("pong"), std::string::npos);
  }
  ::close(fd);
  EXPECT_EQ(hits.load(), 3) << "all three requests must arrive over the one connection";
  server.stop();
}

TEST(HttpServerKeepAlive, SmallResponsesDoNotWaitForADelayedAck) {
  // A response whose head and body leave as two segments (or whose body
  // Nagle holds back) waits ~40 ms per request for the client's delayed
  // ACK of the head: 50 requests would take ~2 s. The client socket keeps
  // its defaults, as curl's or a load generator's may.
  HttpServer server;
  server.route("GET", "/ping", [](const HttpRequest&) { return HttpResponse::text(200, "pong"); });
  server.start(0);

  const int fd = connect_to(server.port());
  const std::string request =
      "GET /ping HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n";
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    ASSERT_NE(read_one_response(fd).find("pong"), std::string::npos);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ::close(fd);
  server.stop();
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << "50 keep-alive requests took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count() << " ms";
}

TEST(HttpServerKeepAlive, LargeBodiesArriveWhole) {
  // Bodies far beyond one socket buffer take several sendmsg calls.
  std::string big(3 << 20, 'x');
  for (std::size_t i = 0; i < big.size(); i += 4093) big[i] = static_cast<char>('a' + i % 26);
  HttpServer server;
  server.route("GET", "/big", [&](const HttpRequest&) { return HttpResponse::text(200, big); });
  server.start(0);

  const int fd = connect_to(server.port());
  const std::string request =
      "GET /big HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n";
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    const std::string response = read_one_response(fd);
    const std::size_t head_end = response.find("\r\n\r\n");
    ASSERT_NE(head_end, std::string::npos);
    EXPECT_TRUE(response.compare(head_end + 4, std::string::npos, big) == 0) << "request " << i;
  }
  ::close(fd);
  server.stop();
}

TEST(HttpServerKeepAlive, ConnectionCloseIsHonored) {
  HttpServer server;
  server.route("GET", "/ping",
               [](const HttpRequest&) { return HttpResponse::text(200, "pong"); });
  server.start(0);

  const int fd = connect_to(server.port());
  const std::string request =
      "GET /ping HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
      "Content-Length: 0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string data;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    data.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_NE(data.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(data.find("Connection: close"), std::string::npos);
  // recv returning 0 above proves the server closed after one response.
  ::close(fd);
  server.stop();
}

TEST(HttpServerKeepAlive, StopDoesNotWaitOutAnIdleConnection) {
  HttpServer server;  // 5-s keep-alive idle timeout
  server.route("GET", "/ping",
               [](const HttpRequest&) { return HttpResponse::text(200, "pong"); });
  server.start(0);

  // One answered request leaves the connection open and idle: its worker
  // waits for the next request.
  const int fd = connect_to(server.port());
  const std::string request =
      "GET /ping HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  ASSERT_NE(read_one_response(fd).find("Connection: keep-alive"), std::string::npos);

  const auto start = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1))
      << "stop() must wake an idle keep-alive connection, not wait out its timeout";
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "the server closes the connection";
  ::close(fd);
}

TEST(HttpServerKeepAlive, DisabledKeepAliveClosesAfterEachResponse) {
  HttpServerOptions options;
  options.keep_alive = false;
  HttpServer server(options);
  server.route("GET", "/ping",
               [](const HttpRequest&) { return HttpResponse::text(200, "pong"); });
  server.start(0);

  const std::string response = http_request(server.port(), "GET", "/ping");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  server.stop();
}

TEST(HttpServerKeepAlive, SegmentedBodyRunsStraightIntoAPipelinedRequest) {
  // A body that trickles in over many small segments, with the next
  // request's bytes in the same segment as the body's last ones: the body
  // arrives whole, and the pipelined request is served from the carry-over.
  HttpServer server;
  std::vector<std::string> bodies;
  server.route("POST", "/echo", [&](const HttpRequest& request) {
    bodies.push_back(request.read_body());
    return HttpResponse::text(200, "got " + std::to_string(bodies.back().size()));
  });
  server.start(0);

  std::string body;
  for (int i = 0; i < 200'000; ++i) body.push_back(static_cast<char>('a' + i % 26));
  const std::string first = "POST /echo HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                            std::to_string(body.size()) + "\r\n\r\n" + body;
  const std::string second =
      "POST /echo HTTP/1.1\r\nHost: localhost\r\nContent-Length: 3\r\n\r\nxyz";
  const std::string wire = first + second;

  const int fd = connect_to(server.port());
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Segments of 1..997 bytes up to the body's last few bytes; the final
  // segment carries those and the whole next request.
  const std::size_t last = first.size() - 5;
  std::size_t sent = 0;
  for (std::size_t segment = 1; sent < last; segment = segment * 7 % 997 + 1) {
    const std::size_t take = std::min(segment, last - sent);
    ASSERT_EQ(::send(fd, wire.data() + sent, take, 0), static_cast<ssize_t>(take));
    sent += take;
    if (sent % 5 == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ASSERT_EQ(::send(fd, wire.data() + sent, wire.size() - sent, 0),
            static_cast<ssize_t>(wire.size() - sent));
  // Both responses may arrive in one read, so collect everything up to the
  // server's close, which follows our end of input.
  ::shutdown(fd, SHUT_WR);
  std::string responses;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    responses.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t first_reply = responses.find("got 200000");
  ASSERT_NE(first_reply, std::string::npos) << responses;
  EXPECT_NE(responses.find("got 3", first_reply), std::string::npos) << responses;
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(bodies[0], body);
  EXPECT_EQ(bodies[1], "xyz");
  server.stop();
}

/// Sends all of `data`, in one call or in segments of 1..997 bytes drawn
/// from `rng`.
void send_wire(int fd, const std::string& data, Xoshiro256* rng = nullptr) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const std::size_t take =
        rng == nullptr ? data.size() - sent
                       : std::min<std::size_t>(1 + rng->below(997), data.size() - sent);
    const ssize_t n = ::send(fd, data.data() + sent, take, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

/// Ends our side of the connection and reads everything the server sends
/// until it closes.
std::string finish_and_read_all(int fd) {
  ::shutdown(fd, SHUT_WR);
  std::string data;
  char chunk[65536];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    data.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return data;
}

/// Splits back-to-back Content-Length-framed responses.
std::vector<std::string> split_responses(const std::string& data) {
  std::vector<std::string> responses;
  std::size_t at = 0;
  while (at < data.size()) {
    const std::size_t head_end = data.find("\r\n\r\n", at);
    if (head_end == std::string::npos) break;
    const std::size_t length_at = data.find("Content-Length: ", at);
    const std::size_t length =
        length_at < head_end ? std::strtoul(data.c_str() + length_at + 16, nullptr, 10) : 0;
    const std::size_t end = std::min(data.size(), head_end + 4 + length);
    responses.push_back(data.substr(at, end - at));
    at = end;
  }
  return responses;
}

TEST(HttpServerBody, ExpectContinueIsAnsweredBeforeTheBody) {
  // curl sends `Expect: 100-continue` with bodies over 1 MiB, then waits up
  // to a second for the interim response before it sends the body anyway.
  HttpServer server;
  server.route("POST", "/echo", [](const HttpRequest& request) {
    return HttpResponse::text(200, "got " + std::to_string(request.read_body().size()));
  });
  server.start(0);
  const int fd = connect_to(server.port());
  send_wire(fd,
            "POST /echo HTTP/1.1\r\nHost: localhost\r\nExpect: 100-continue\r\n"
            "Content-Length: 5000\r\n\r\n");
  pollfd waiter{};
  waiter.fd = fd;
  waiter.events = POLLIN;
  ASSERT_EQ(::poll(&waiter, 1, 500), 1) << "no interim response within 500 ms";
  const std::string interim = "HTTP/1.1 100 Continue\r\n\r\n";
  std::string got(interim.size(), '\0');
  ASSERT_EQ(::recv(fd, got.data(), got.size(), MSG_WAITALL), static_cast<ssize_t>(got.size()));
  EXPECT_EQ(got, interim);
  send_wire(fd, std::string(5000, 'x'));
  const std::string response = read_one_response(fd);
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  EXPECT_NE(response.find("got 5000"), std::string::npos) << response;
  ::close(fd);
  server.stop();
}

TEST(HttpServerBody, OversizedExpectContinueGets413WithoutTheInterimResponse) {
  HttpServerOptions options;
  options.max_body_bytes = 512;
  HttpServer server(options);
  server.route("POST", "/upload", [](const HttpRequest&) { return HttpResponse::text(200, "ok"); });
  server.start(0);
  const int fd = connect_to(server.port());
  send_wire(fd,
            "POST /upload HTTP/1.1\r\nHost: localhost\r\nExpect: 100-continue\r\n"
            "Content-Length: 2048\r\n\r\n");
  const std::string response = finish_and_read_all(fd);
  EXPECT_EQ(response.rfind("HTTP/1.1 413", 0), 0u) << response;
  EXPECT_EQ(response.find("100 Continue"), std::string::npos) << response;
  server.stop();
}

TEST(HttpServerBody, ChunkedUploadIs501AndCloses) {
  // The chunk framing would otherwise be parsed as the next request.
  HttpServer server;
  std::atomic<bool> handler_ran{false};
  server.route("POST", "/echo", [&](const HttpRequest&) {
    handler_ran = true;
    return HttpResponse::text(200, "ok");
  });
  server.start(0);
  const int fd = connect_to(server.port());
  send_wire(fd,
            "POST /echo HTTP/1.1\r\nHost: localhost\r\nTransfer-Encoding: chunked\r\n\r\n"
            "5\r\nhello\r\n0\r\n\r\n");
  const auto responses = split_responses(finish_and_read_all(fd));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].rfind("HTTP/1.1 501", 0), 0u) << responses[0];
  EXPECT_NE(responses[0].find("send Content-Length"), std::string::npos) << responses[0];
  EXPECT_NE(responses[0].find("Connection: close"), std::string::npos) << responses[0];
  EXPECT_FALSE(handler_ran.load());
  server.stop();
}

TEST(HttpServerBody, EarlyAnswerDiscardsTheBodyAndServesTheNextRequest) {
  // A handler that rejects a request before reading its body: the rest of
  // the body is read and dropped, the answer arrives, and the pipelined
  // request behind it is served on the same connection.
  HttpServer server;
  server.route("POST", "/reject",
               [](const HttpRequest&) { return HttpResponse::text(400, "rejected\n"); });
  server.route("GET", "/ping", [](const HttpRequest&) { return HttpResponse::text(200, "pong"); });
  server.start(0);
  const std::string body(300'000, 'x');
  const int fd = connect_to(server.port());
  send_wire(fd, "POST /reject HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body +
                    "GET /ping HTTP/1.1\r\nHost: localhost\r\n\r\n");
  const auto responses = split_responses(finish_and_read_all(fd));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].rfind("HTTP/1.1 400", 0), 0u) << responses[0];
  EXPECT_NE(responses[0].find("Connection: keep-alive"), std::string::npos) << responses[0];
  EXPECT_EQ(responses[1].rfind("HTTP/1.1 200", 0), 0u) << responses[1];
  EXPECT_NE(responses[1].find("pong"), std::string::npos) << responses[1];
  server.stop();
}

TEST(HttpServerBody, StalledBodyClosesTheConnectionUnanswered) {
  HttpServerOptions options;
  options.keep_alive_timeout = std::chrono::milliseconds(200);
  HttpServer server(options);
  std::atomic<bool> read_failed{false};
  server.route("POST", "/echo", [&](const HttpRequest& request) {
    try {
      request.read_body();
    } catch (const IoError&) {
      read_failed = true;
    }
    return HttpResponse::text(200, "ok");
  });
  server.start(0);
  const int fd = connect_to(server.port());
  send_wire(fd, "POST /echo HTTP/1.1\r\nHost: localhost\r\nContent-Length: 1000\r\n\r\n" +
                    std::string(10, 'x'));
  // No shutdown: the body stalls, and the server gives up on it.
  std::string data;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    data.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_TRUE(data.empty()) << data;
  EXPECT_TRUE(read_failed.load());
  server.stop();
}

// --------------------------------------------------------- WebService

class WebServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GenomeSimConfig config;
    config.length = 20000;
    config.seed = 5;
    genome_codes_ = simulate_genome(config);

    const FastaRecord ref{"web_ref", dna_decode_string(genome_codes_)};
    fasta_text_ = format_fasta(std::span<const FastaRecord>(&ref, 1));

    ReadSimConfig rc;
    rc.num_reads = 50;
    rc.read_length = 40;
    rc.mapping_ratio = 1.0;
    const auto reads = simulate_reads(genome_codes_, rc);
    fastq_text_ = format_fastq(reads_to_fastq(reads));

    service_.start(0);
  }

  void TearDown() override { service_.stop(); }

  std::vector<std::uint8_t> genome_codes_;
  std::string fasta_text_;
  std::string fastq_text_;
  WebService service_;
};

TEST_F(WebServiceTest, LandingPageIsHtml) {
  const std::string response = http_request(service_.port(), "GET", "/");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("BWaveR"), std::string::npos);
  EXPECT_NE(response.find("text/html"), std::string::npos);
}

TEST_F(WebServiceTest, StatusBeforeReference) {
  const std::string response = http_request(service_.port(), "GET", "/status");
  EXPECT_NE(response.find("no reference loaded"), std::string::npos);
}

TEST_F(WebServiceTest, MapBeforeReferenceIs409) {
  const std::string response =
      http_request(service_.port(), "POST", "/map", fastq_text_);
  EXPECT_NE(response.find("HTTP/1.1 409"), std::string::npos);
}

TEST_F(WebServiceTest, FullUploadIndexMapWorkflow) {
  const std::string upload =
      http_request(service_.port(), "POST", "/reference", fasta_text_);
  EXPECT_NE(upload.find("200 OK"), std::string::npos);
  EXPECT_NE(upload.find("web_ref"), std::string::npos);

  const std::string status = http_request(service_.port(), "GET", "/status");
  EXPECT_NE(status.find("state: ready"), std::string::npos);
  EXPECT_NE(status.find("20000 bp"), std::string::npos);

  const std::string sam = http_request(service_.port(), "POST", "/map", fastq_text_);
  EXPECT_NE(sam.find("200 OK"), std::string::npos);
  EXPECT_NE(sam.find("@SQ\tSN:web_ref"), std::string::npos);
  EXPECT_NE(sam.find("40M"), std::string::npos);  // 40 bp exact matches
}

TEST_F(WebServiceTest, MemoryOnlyEvictIs409AndTheReferenceStaysServed) {
  ASSERT_NE(http_request(service_.port(), "POST", "/reference", fasta_text_).find("200 OK"),
            std::string::npos);
  // With no store directory the resident copy is the only copy.
  const std::string evict = http_request(service_.port(), "POST", "/evict?ref=web_ref");
  EXPECT_NE(evict.find("HTTP/1.1 409"), std::string::npos) << evict;
  EXPECT_NE(evict.find("no archive"), std::string::npos) << evict;
  EXPECT_TRUE(service_.registry().list().front().resident);
  const std::string sam = http_request(service_.port(), "POST", "/map", fastq_text_);
  EXPECT_NE(sam.find("200 OK"), std::string::npos) << sam;
}

TEST_F(WebServiceTest, GzippedUploadsAccepted) {
  const auto gz_fasta = gzip_compress(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(fasta_text_.data()), fasta_text_.size()));
  const std::string upload = http_request(
      service_.port(), "POST", "/reference",
      std::string(gz_fasta.begin(), gz_fasta.end()));
  EXPECT_NE(upload.find("200 OK"), std::string::npos);
}

TEST_F(WebServiceTest, EmptyUploadRejected) {
  const std::string response = http_request(service_.port(), "POST", "/reference", "");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
}

TEST_F(WebServiceTest, UnknownEngineIs400ListingTheEngines) {
  http_request(service_.port(), "POST", "/reference", fasta_text_);
  // `plain` is an ablation backend; `vector` is a retired engine.
  for (const std::string engine : {"plain", "vector"}) {
    const std::string response =
        http_request(service_.port(), "POST", "/map?engine=" + engine, fastq_text_);
    EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << engine;
    EXPECT_NE(response.find("unknown engine '" + engine + "' (fpga|rrr|sampled|epr)"),
              std::string::npos)
        << response;
  }
}

TEST_F(WebServiceTest, MalformedFastaIs400) {
  // A client's mistake, not a server fault.
  const std::string response =
      http_request(service_.port(), "POST", "/reference", "garbage not fasta");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(response.find("bad FASTA"), std::string::npos);
}

TEST_F(WebServiceTest, DescriptionHeaderWithoutNameIs400) {
  // The first header line would become the reference name, and a
  // description makes it an invalid one: rejected before any index build.
  const FastaRecord ref{"chr21 Homo sapiens chromosome 21",
                        dna_decode_string(genome_codes_)};
  const std::string fasta = format_fasta(std::span<const FastaRecord>(&ref, 1));
  const std::string response = http_request(service_.port(), "POST", "/reference", fasta);
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(response.find("?name="), std::string::npos);
  EXPECT_EQ(service_.registry().size(), 0u);

  // The same upload with an explicit name is indexed.
  const std::string named =
      http_request(service_.port(), "POST", "/reference?name=chr21", fasta);
  EXPECT_NE(named.find("200 OK"), std::string::npos);
  EXPECT_TRUE(service_.registry().contains("chr21"));
}

TEST_F(WebServiceTest, QnameStopsAtTheFirstSpaceOrTab) {
  http_request(service_.port(), "POST", "/reference", fasta_text_);
  const std::string read = dna_decode_string(
      std::span<const std::uint8_t>(genome_codes_.data() + 1000, 40));
  const std::string quality(40, 'I');
  const std::string fastq = "@r2\tcomment\n" + read + "\n+\n" + quality +
                            "\n@SRR001666.1 071112_SLXA-EAS1_s_7:5:1:817:345 length=40\n" +
                            read + "\n+\n" + quality + "\n";
  const std::string response = http_request(service_.port(), "POST", "/map", fastq);
  ASSERT_NE(response.find("200 OK"), std::string::npos) << response;
  const std::string sam = response.substr(response.find("\r\n\r\n") + 4);
  std::size_t lines = 0;
  std::size_t at = 0;
  while (at < sam.size()) {
    const std::size_t eol = sam.find('\n', at);
    const std::string line = sam.substr(at, eol - at);
    at = eol + 1;
    if (line.empty() || line[0] == '@') continue;
    ++lines;
    // Eleven tab-separated columns, FLAG in column 2, no space anywhere.
    EXPECT_EQ(std::count(line.begin(), line.end(), '\t'), 10) << line;
    EXPECT_EQ(line.find(' '), std::string::npos) << line;
    EXPECT_TRUE(line.rfind("r2\t0\tweb_ref\t1001\t", 0) == 0 ||
                line.rfind("SRR001666.1\t0\tweb_ref\t1001\t", 0) == 0)
        << line;
  }
  EXPECT_EQ(lines, 2u);

  // A header with no name before its comment is a client error.
  const std::string nameless = "@ comment\n" + read + "\n+\n" + quality + "\n";
  const std::string rejected = http_request(service_.port(), "POST", "/map", nameless);
  EXPECT_NE(rejected.find("HTTP/1.1 400"), std::string::npos) << rejected;
  EXPECT_NE(rejected.find("no read name"), std::string::npos) << rejected;
}

/// `count` reads of 40 bp drawn from `genome`, as FASTQ text.
std::string simulated_fastq(const std::vector<std::uint8_t>& genome, std::size_t count) {
  ReadSimConfig config;
  config.num_reads = count;
  config.read_length = 40;
  config.mapping_ratio = 1.0;
  return format_fastq(reads_to_fastq(simulate_reads(genome, config)));
}

/// A request with a fixed X-Request-Id, so two sends answer the same bytes.
std::string post(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: localhost\r\nX-Request-Id: fixed\r\n" +
         "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST_F(WebServiceTest, SegmentedUploadsAnswerWhatOneSendAnswers) {
  // A /map and a /reference body sent in seeded segments of 1..997 bytes,
  // with a pipelined request in the last segment: the same status and bytes
  // as one unsegmented send, and the follow-up is served on the connection.
  const std::string follow_up = "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";
  const auto exchange = [&](std::uint16_t port, const std::string& request, Xoshiro256* rng) {
    const int fd = connect_to(port);
    // The last segment carries the request's last bytes and the follow-up.
    send_wire(fd, request.substr(0, request.size() - 3), rng);
    send_wire(fd, request.substr(request.size() - 3) + follow_up);
    const auto responses = split_responses(finish_and_read_all(fd));
    EXPECT_EQ(responses.size(), 2u);
    if (responses.size() == 2) {
      EXPECT_EQ(responses[1].rfind("HTTP/1.1 200", 0), 0u) << responses[1];
      EXPECT_NE(responses[1].find("ok"), std::string::npos) << responses[1];
    }
    return responses.empty() ? std::string() : responses[0];
  };

  http_request(service_.port(), "POST", "/reference", fasta_text_);
  const std::string map = post("/map", simulated_fastq(genome_codes_, 400));
  const std::string whole_map = exchange(service_.port(), map, nullptr);
  ASSERT_EQ(whole_map.rfind("HTTP/1.1 200", 0), 0u) << whole_map;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Xoshiro256 rng(seed);
    EXPECT_EQ(exchange(service_.port(), map, &rng), whole_map) << "seed " << seed;
  }

  // Each /reference send goes to a fresh server, so each answers the same.
  const std::string upload = post("/reference?name=seg_ref", fasta_text_);
  const auto upload_once = [&](Xoshiro256* rng) {
    WebService service;
    service.start(0);
    const std::string response = exchange(service.port(), upload, rng);
    EXPECT_TRUE(service.registry().contains("seg_ref"));
    service.stop();
    return response;
  };
  const std::string whole_upload = upload_once(nullptr);
  ASSERT_EQ(whole_upload.rfind("HTTP/1.1 200", 0), 0u) << whole_upload;
  Xoshiro256 rng(7);
  EXPECT_EQ(upload_once(&rng), whole_upload);
}

TEST_F(WebServiceTest, EarlyAnswersToABigBodyArriveAndTheConnectionServesTheNext) {
  // Each of these is answered before the 20,000-read body is read through;
  // the rest of the body is drained, and the pipelined request behind it is
  // served on the same connection.
  http_request(service_.port(), "POST", "/reference", fasta_text_);
  const std::string fastq = simulated_fastq(genome_codes_, 20'000);
  std::string malformed = fastq;  // record 3 has no '+' separator
  std::size_t at = 0;
  for (int line = 0; line < 3 * 4 + 2; ++line) at = malformed.find('\n', at) + 1;
  ASSERT_EQ(malformed[at], '+');
  malformed[at] = 'x';
  const struct {
    std::string target;
    const std::string& body;
    std::string status;
    std::string message;
  } cases[] = {
      {"/map", malformed, "400", "FASTQ record 3: missing '+' separator"},
      {"/map?ref=nope", fastq, "404", "unknown reference 'nope'"},
      {"/map?engine=vector", fastq, "400", "unknown engine 'vector'"},
  };
  for (const auto& c : cases) {
    const int fd = connect_to(service_.port());
    send_wire(fd,
              post(c.target, c.body) + "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n");
    const auto responses = split_responses(finish_and_read_all(fd));
    ASSERT_EQ(responses.size(), 2u) << c.target;
    EXPECT_EQ(responses[0].rfind("HTTP/1.1 " + c.status, 0), 0u) << responses[0];
    EXPECT_NE(responses[0].find(c.message), std::string::npos) << responses[0];
    EXPECT_EQ(responses[1].rfind("HTTP/1.1 200", 0), 0u) << responses[1];
  }
}

TEST_F(WebServiceTest, BodyEndingShortSubmitsNoJob) {
  http_request(service_.port(), "POST", "/reference", fasta_text_);
  const auto submitted = [&] {
    const std::string stats = http_request(service_.port(), "GET", "/stats");
    const std::size_t at = stats.find("\"submitted\":");
    return at == std::string::npos ? std::string("?") : stats.substr(at, stats.find(',', at) - at);
  };
  const std::string before = submitted();
  // Every record arrives whole, but the body ends 1000 bytes short of its
  // declared length: it is no request, and nothing answers it.
  const int fd = connect_to(service_.port());
  send_wire(fd, "POST /map HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                    std::to_string(fastq_text_.size() + 1000) + "\r\n\r\n" + fastq_text_);
  EXPECT_EQ(finish_and_read_all(fd), "");
  EXPECT_EQ(submitted(), before);
  EXPECT_NE(http_request(service_.port(), "POST", "/map", fastq_text_).find("200 OK"),
            std::string::npos);
  EXPECT_NE(submitted(), before);
}

}  // namespace
}  // namespace bwaver
