// Non-blocking socket plumbing: a Transport over a connected fd, a TCP
// listener, and a socketpair helper for in-process client/server tests that
// still exercise real fds and epoll.
#pragma once

#include <string>
#include <utility>

#include "common/status.h"
#include "tls/transport.h"

namespace qtls::net {

class SocketTransport final : public tls::Transport {
 public:
  // Takes ownership of a connected fd; sets O_NONBLOCK.
  explicit SocketTransport(int fd);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  tls::IoResult read(uint8_t* buf, size_t len) override;
  tls::IoResult write(const uint8_t* buf, size_t len) override;
  // Native scatter-gather via sendmsg (writev cannot carry MSG_NOSIGNAL).
  tls::IoResult writev(const struct iovec* iov, int iovcnt) override;

  int fd() const { return fd_; }

 private:
  int fd_;
};

class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  // Binds 127.0.0.1:port (port 0 = ephemeral; query with port()).
  // `reuseport` lets several listeners share one port, the kernel load-
  // balancing accepts across them (nginx's multi-worker accept model).
  Status listen(uint16_t port, int backlog = 512, bool reuseport = false);
  // Non-blocking accept; -1 when none pending.
  int accept_fd();
  int fd() const { return fd_; }
  uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

// Non-blocking connect to ipv4:port (an IPv4 literal, else
// kInvalidArgument); returns the connected (or in-progress) fd.
Result<int> tcp_connect(uint16_t port, const std::string& ipv4 = "127.0.0.1");

// AF_UNIX socketpair with both ends non-blocking.
Result<std::pair<int, int>> make_socketpair();

// Sets O_NONBLOCK on fd. fcntl can fail (bad fd, exhausted table) — a
// silently-blocking fd would stall the whole event loop on its first read,
// so accept paths must check this instead of serving the fd anyway.
[[nodiscard]] Status set_nonblocking(int fd);

}  // namespace qtls::net
