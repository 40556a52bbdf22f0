#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace qtls::net {

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return err(Code::kIoError, std::strerror(errno));
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0)
    return err(Code::kIoError, std::strerror(errno));
  return Status::ok();
}

SocketTransport::SocketTransport(int fd) : fd_(fd) {
  // Best effort here: adopted fds from make_socketpair/accept4 are already
  // non-blocking; callers handing over foreign fds go through Worker::adopt,
  // which checks the Status itself before constructing a transport.
  (void)set_nonblocking(fd_);
}

SocketTransport::~SocketTransport() {
  if (fd_ >= 0) ::close(fd_);
}

// EINTR is not an error: a reload SIGHUP or supervision signal landing
// mid-syscall must never kill a healthy connection. Retry, the same way
// event_loop.cc treats an interrupted epoll_wait as zero events.
tls::IoResult SocketTransport::read(uint8_t* buf, size_t len) {
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, len, 0);
    if (n > 0) return {tls::IoStatus::kOk, static_cast<size_t>(n)};
    if (n == 0) return {tls::IoStatus::kClosed, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return {tls::IoStatus::kWouldBlock, 0};
    return {tls::IoStatus::kError, 0};
  }
}

tls::IoResult SocketTransport::write(const uint8_t* buf, size_t len) {
  for (;;) {
    const ssize_t n = ::send(fd_, buf, len, MSG_NOSIGNAL);
    if (n > 0) return {tls::IoStatus::kOk, static_cast<size_t>(n)};
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return {tls::IoStatus::kWouldBlock, 0};
    return {tls::IoStatus::kError, 0};
  }
}

tls::IoResult SocketTransport::writev(const struct iovec* iov, int iovcnt) {
  msghdr msg{};
  msg.msg_iov = const_cast<struct iovec*>(iov);
  msg.msg_iovlen = static_cast<size_t>(iovcnt);
  for (;;) {
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n > 0) return {tls::IoStatus::kOk, static_cast<size_t>(n)};
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return {tls::IoStatus::kWouldBlock, 0};
    return {tls::IoStatus::kError, 0};
  }
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

Status TcpListener::listen(uint16_t port, int backlog, bool reuseport) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return err(Code::kIoError, std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport) ::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    return err(Code::kIoError, std::strerror(errno));
  if (::listen(fd_, backlog) != 0)
    return err(Code::kIoError, std::strerror(errno));

  socklen_t len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  return Status::ok();
}

int TcpListener::accept_fd() {
  const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

Result<int> tcp_connect(uint16_t port, const std::string& ipv4) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, ipv4.c_str(), &addr.sin_addr) != 1)
    return err(Code::kInvalidArgument, "not an IPv4 literal: " + ipv4);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return err(Code::kIoError, std::strerror(errno));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return err(Code::kIoError, std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<std::pair<int, int>> make_socketpair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                   fds) != 0)
    return err(Code::kIoError, std::strerror(errno));
  return std::make_pair(fds[0], fds[1]);
}

}  // namespace qtls::net
