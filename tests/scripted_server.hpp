// A raw listening socket on 127.0.0.1 driven by a per-connection script,
// for what a well-behaved HttpServer cannot do: malformed status lines,
// mid-body hangups, never-ending header waits, or recording the exact
// request bytes a client sent. Connections are served one at a time and
// closed after the script returns.
#pragma once

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <functional>
#include <thread>
#include <utility>

namespace bwaver::test {

class ScriptedServer {
 public:
  using Script = std::function<void(int client_fd)>;

  explicit ScriptedServer(Script script) : script_(std::move(script)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    thread_ = std::thread([this] {
      while (true) {
        const int client = ::accept(listen_fd_, nullptr, nullptr);
        if (client < 0) return;  // listen socket closed -> shut down
        script_(client);
        ::close(client);
      }
    });
  }

  ScriptedServer(const ScriptedServer&) = delete;
  ScriptedServer& operator=(const ScriptedServer&) = delete;

  ~ScriptedServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (thread_.joinable()) thread_.join();
  }

  std::uint16_t port() const { return port_; }

 private:
  Script script_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

}  // namespace bwaver::test
