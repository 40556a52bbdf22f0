// Per-thread counts of the socket, epoll and file system calls the worker
// path makes, taken with link-time wrappers (-Wl,--wrap=<name>, see
// perfbench/CMakeLists.txt). The kernel's per-thread syscr/syscw count only
// read/write-family calls, so they miss recv, send, sendmsg and epoll_wait,
// which are most of the worker's calls. Futex wakes go through syscall(2)
// and are not counted.
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdarg>
#include <cstdint>

#include "syscount.h"

namespace qbench {
namespace {
thread_local uint64_t t_syscalls = 0;
}  // namespace

uint64_t thread_syscalls() { return t_syscalls; }

}  // namespace qbench

using qbench::t_syscalls;

extern "C" {

ssize_t __real_recv(int fd, void* buf, size_t len, int flags);
ssize_t __real_send(int fd, const void* buf, size_t len, int flags);
ssize_t __real_sendmsg(int fd, const struct msghdr* msg, int flags);
int __real_accept4(int fd, struct sockaddr* addr, socklen_t* len, int flags);
int __real_close(int fd);
int __real_epoll_wait(int epfd, struct epoll_event* ev, int n, int timeout);
int __real_epoll_ctl(int epfd, int op, int fd, struct epoll_event* ev);
ssize_t __real_pread(int fd, void* buf, size_t len, off_t off);
ssize_t __real_read(int fd, void* buf, size_t len);
ssize_t __real_write(int fd, const void* buf, size_t len);
int __real_open(const char* path, int flags, ...);

ssize_t __wrap_recv(int fd, void* buf, size_t len, int flags) {
  ++t_syscalls;
  return __real_recv(fd, buf, len, flags);
}
ssize_t __wrap_send(int fd, const void* buf, size_t len, int flags) {
  ++t_syscalls;
  return __real_send(fd, buf, len, flags);
}
ssize_t __wrap_sendmsg(int fd, const struct msghdr* msg, int flags) {
  ++t_syscalls;
  return __real_sendmsg(fd, msg, flags);
}
int __wrap_accept4(int fd, struct sockaddr* addr, socklen_t* len, int flags) {
  ++t_syscalls;
  return __real_accept4(fd, addr, len, flags);
}
int __wrap_close(int fd) {
  ++t_syscalls;
  return __real_close(fd);
}
int __wrap_epoll_wait(int epfd, struct epoll_event* ev, int n, int timeout) {
  ++t_syscalls;
  return __real_epoll_wait(epfd, ev, n, timeout);
}
int __wrap_epoll_ctl(int epfd, int op, int fd, struct epoll_event* ev) {
  ++t_syscalls;
  return __real_epoll_ctl(epfd, op, fd, ev);
}
ssize_t __wrap_pread(int fd, void* buf, size_t len, off_t off) {
  ++t_syscalls;
  return __real_pread(fd, buf, len, off);
}
ssize_t __wrap_read(int fd, void* buf, size_t len) {
  ++t_syscalls;
  return __real_read(fd, buf, len);
}
ssize_t __wrap_write(int fd, const void* buf, size_t len) {
  ++t_syscalls;
  return __real_write(fd, buf, len);
}
// open(2) takes a mode argument only with O_CREAT or O_TMPFILE.
int __wrap_open(const char* path, int flags, ...) {
  ++t_syscalls;
  if ((flags & O_CREAT) == 0 && (flags & O_TMPFILE) != O_TMPFILE)
    return __real_open(path, flags);
  va_list ap;
  va_start(ap, flags);
  const mode_t mode = va_arg(ap, mode_t);
  va_end(ap);
  return __real_open(path, flags, mode);
}

}  // extern "C"
