#include "server/worker.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/log.h"
#include "obs/metrics.h"
#include "server/control.h"

namespace qtls::server {

// Slab-allocated (server.conn pool): transport and TLS state are embedded
// by value — one slot per connection instead of a constellation of mallocs.
// Declaration order matters: `tls` holds a pointer into `transport`, so it
// must be destroyed first (reverse declaration order).
struct Worker::Conn {
  int fd = -1;
  std::optional<net::SocketTransport> transport;
  std::optional<tls::TlsConnection> tls;
  HttpRequestParser parser;
  Bytes inbound;           // decrypted bytes pending HTTP parsing
  Endpoint endpoint = Endpoint::kFile;  // what the current request resolves to
  std::string request_path;         // path of the request being answered
  bool response_inflight = false;   // response built but write not started
  bool write_in_progress = false;   // write started, not yet completed
  bool response_keepalive = true;

  // Static-file streaming state (DESIGN.md §11). The fd stays open across
  // kWantAsync/kWantWrite parks; `file_staging` is the bounded chunk buffer
  // (at most one chunk of the file is ever in memory).
  int file_fd = -1;
  size_t file_off = 0;   // next pread offset
  size_t file_left = 0;  // bytes not yet handed to the TLS layer
  Bytes file_staging;

  ~Conn() {
    if (file_fd >= 0) ::close(file_fd);
  }

  // Async bookkeeping (§4.2).
  Handler async_handler = nullptr;   // handler to reschedule on async event
  bool expecting_async = false;
  bool deferred_read = false;        // saved read event (event disorder)
  bool fd_registered = false;        // wait-ctx eventfd added to epoll
  bool socket_parked = false;        // socket out of epoll (close_handler)

  bool in_async_resume = false;      // handler running off an async event
  bool idle = false;
  uint64_t id = 0;
  Worker* worker = nullptr;

  // Overload plane (DESIGN.md §10).
  net::TimerWheel::TimerId deadline_timer = 0;  // 0 = none armed
  DeadlineKind deadline_kind = DeadlineKind::kNone;
  bool counted_handshaking = false;  // contributes to handshaking_
};

// One accepted-but-not-admitted fd in the overload backlog (server.parked
// pool). Doubly linked so a park deadline firing mid-queue unlinks in O(1);
// the deadline timer is cancelled by unlink_parked on every exit path, so a
// node is never destroyed with its timer still armed.
struct Worker::ParkedAccept {
  int fd = -1;
  ParkedAccept* prev = nullptr;
  ParkedAccept* next = nullptr;
  net::TimerWheel::TimerId deadline_timer = 0;  // 0 = none armed
};

Worker::Conn* Worker::find_by_id(uint64_t conn_id) {
  auto it = conns_by_id_.find(conn_id);
  return it == conns_by_id_.end() ? nullptr : it->second;
}

Worker::Worker(tls::TlsContext* tls_ctx, engine::QatEngineProvider* qat,
               WorkerConfig config)
    : tls_ctx_(tls_ctx),
      qat_(qat),
      config_(config),
      conn_pool_(std::make_unique<common::SlabPool<Conn>>("server.conn")),
      park_pool_(
          std::make_unique<common::SlabPool<ParkedAccept>>("server.parked")),
      scratch_pool_("server.hs_scratch") {
  if (qat_ && config_.poll == PollScheme::kHeuristic) {
    poller_ = std::make_unique<HeuristicPoller>(qat_, config_.heuristic);
    if (qat_->wakeup_fd() >= 0) {
      const Status st = loop_.add(qat_->wakeup_fd(), true, false,
                                  [this](net::FdEvents) { on_device_wakeup(); });
      if (!st.is_ok()) {
        QTLS_WARN << "wakeup fd: " << st.to_string();
      }
    }
  }
  if (qat_ && config_.poll == PollScheme::kTimer) {
    // The timer scheme (§3.3): a tick every interval polls the engine,
    // whether or not ops are in flight, like the stock polling thread, but
    // on this thread and through the same poll() as every other scheme.
    const int64_t ns =
        std::chrono::nanoseconds(config_.timer_interval).count();
    itimerspec period{};
    period.it_interval.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
    period.it_interval.tv_nsec = static_cast<long>(ns % 1'000'000'000);
    period.it_value = period.it_interval;
    timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (timer_fd_ < 0 ||
        ::timerfd_settime(timer_fd_, 0, &period, nullptr) != 0) {
      QTLS_ERROR << "timerfd: " << std::strerror(errno)
                 << "; nothing polls the engine";
    } else {
      const Status st = loop_.add(timer_fd_, true, false,
                                  [this](net::FdEvents) { on_timer_tick(); });
      if (!st.is_ok()) {
        QTLS_ERROR << "timer tick: " << st.to_string();
      }
    }
  }
  if (config_.clock) loop_.set_clock(config_.clock);
  response_body_.resize(config_.response_body_size);
  for (size_t i = 0; i < response_body_.size(); ++i)
    response_body_[i] = static_cast<uint8_t>('a' + i % 26);
}

Worker::~Worker() {
  // No fiber may outlive its connection: run every paused offload job to
  // completion before the connections are destroyed.
  for (auto& [fd, conn] : conns_) {
    conn->expecting_async = false;
    conn->async_handler = nullptr;
    if (conn->tls->has_paused_job())
      conn->tls->drain_paused_job([this] {
        if (qat_) qat_->poll();
      });
  }
  // Return every slab object before its pool dies — a pool destroyed with
  // live slots is the leak signature the churn soak hunts.
  for (auto& [fd, conn] : conns_) conn_pool_->destroy(conn);
  conns_.clear();
  while (parked_head_ != nullptr) {
    ParkedAccept* node = parked_head_;
    unlink_parked(node);
    ::close(node->fd);
    park_pool_->destroy(node);
  }
  if (timer_fd_ >= 0) ::close(timer_fd_);
}

uint64_t Worker::now_ms() const { return loop_.now_ms(); }

Status Worker::add_listener(uint16_t port, bool reuseport) {
  QTLS_RETURN_IF_ERROR(listener_.listen(port, 512, reuseport));
  listener_armed_ = true;
  return loop_.add(listener_.fd(), true, false,
                   [this](net::FdEvents) { on_listener_readable(); });
}

uint16_t Worker::listen_port() const { return listener_.port(); }

void Worker::on_listener_readable() {
  for (;;) {
    const int fd = listener_.accept_fd();
    if (fd < 0) return;
    note_progress();
    admit_or_reject(fd);
  }
}

Status Worker::adopt(int fd) {
  const Status st = net::set_nonblocking(fd);
  if (!st.is_ok()) {
    // A silently-blocking fd would wedge the whole event loop on its first
    // read — refuse the connection instead of serving it anyway.
    ::close(fd);
    return st;
  }
  admit_or_reject(fd);
  return Status::ok();
}

// ---------------------------------------------------------- admission ----

bool Worker::admission_ok() const {
  if (draining_) return false;
  const OverloadConfig& oc = config_.overload;
  if (oc.max_handshaking != 0 && handshaking_ >= oc.max_handshaking)
    return false;
  if (oc.max_async_inflight != 0 && qat_ &&
      qat_->inflight_total() >= oc.max_async_inflight)
    return false;
  return true;
}

void Worker::admit_or_reject(int fd) {
  if (admission_ok()) {
    setup_connection(fd);
    return;
  }
  if (draining_) {
    // Drain refuses everything: the listener is disarmed, but a connect may
    // have raced the disarm (or arrived via adopt).
    ++overload_stats_.drain_refused;
    ::close(fd);
    return;
  }
  const OverloadConfig& oc = config_.overload;
  if (oc.past_cap == OverloadConfig::PastCap::kPark &&
      parked_count_ < oc.park_backlog) {
    // Parked: the fd stays accepted (the peer sees an established TCP
    // connection) but no TLS state exists yet; admitted as capacity frees.
    park_accept(fd);
    return;
  }
  if (oc.past_cap == OverloadConfig::PastCap::kPark)
    ++overload_stats_.park_overflow;
  // Shed pre-handshake: a plain close is a clean FIN — cheaper for both
  // sides than a TLS alert the handshake never earned.
  ++overload_stats_.shed;
  ::close(fd);
}

void Worker::park_accept(int fd) {
  ParkedAccept* node = park_pool_->create();
  node->fd = fd;
  node->prev = parked_tail_;
  if (parked_tail_ != nullptr)
    parked_tail_->next = node;
  else
    parked_head_ = node;
  parked_tail_ = node;
  ++parked_count_;
  // A parked peer has been waiting on its handshake since accept — it ages
  // against the handshake budget like an admitted connection would. The
  // pre-fix worker parked raw fds with no deadline at all: a peer that hit
  // its handshake deadline simply never left the backlog.
  const uint64_t delay = config_.overload.handshake_timeout_ms;
  if (delay != 0)
    node->deadline_timer = loop_.timers().arm(
        now_ms(), delay, [this, node] { on_park_deadline(node); });
  ++overload_stats_.parked;
}

void Worker::unlink_parked(ParkedAccept* node) {
  if (node->prev != nullptr)
    node->prev->next = node->next;
  else
    parked_head_ = node->next;
  if (node->next != nullptr)
    node->next->prev = node->prev;
  else
    parked_tail_ = node->prev;
  node->prev = node->next = nullptr;
  --parked_count_;
  if (node->deadline_timer != 0) {
    (void)loop_.timers().cancel(node->deadline_timer);
    node->deadline_timer = 0;
  }
}

void Worker::on_park_deadline(ParkedAccept* node) {
  note_progress();
  node->deadline_timer = 0;  // fired, nothing to cancel
  // Unlink BEFORE destroy — destroying a node still linked into the backlog
  // leaves its neighbours pointing at a recycled slab slot (the
  // use-after-free the ParkDeadline regression test reproduces under ASan).
  unlink_parked(node);
  ++overload_stats_.park_timeouts;
  ::close(node->fd);
  park_pool_->destroy(node);
}

void Worker::admit_parked() {
  while (parked_head_ != nullptr && admission_ok()) {
    ParkedAccept* node = parked_head_;
    const int fd = node->fd;
    unlink_parked(node);
    park_pool_->destroy(node);
    ++overload_stats_.admitted_from_park;
    setup_connection(fd);
  }
}

void Worker::setup_connection(int fd) {
  Conn* c = conn_pool_->create();
  c->fd = fd;
  c->id = next_conn_id_++;
  c->worker = this;
  c->transport.emplace(fd);
  c->tls.emplace(tls_ctx_, &*c->transport, &scratch_pool_);
  c->parser = HttpRequestParser(config_.http_limits);
  conns_.emplace(fd, c);
  conns_by_id_.emplace(c->id, c);
  ++stats_.accepted;
  c->counted_handshaking = true;
  ++handshaking_;
  arm_deadline(c, DeadlineKind::kHandshake,
               config_.overload.handshake_timeout_ms);

  if (config_.notify == NotifyScheme::kKernelBypass) {
    // §4.4: application-level callback inserted into the ASYNC_WAIT_CTX;
    // the response callback notifies by queueing the async handler. The
    // queue entry resolves the connection by id at drain time — the
    // connection may have died in between.
    c->tls->wait_ctx()->set_callback(
        [](void* arg) {
          Conn* conn = static_cast<Conn*>(arg);
          Worker* worker = conn->worker;
          const uint64_t id = conn->id;
          worker->async_queue_.push([worker, id] {
            if (Conn* live = worker->find_by_id(id))
              worker->on_async_event(live);
          });
        },
        c);
  } else {
    // FD scheme: create and register the shared notification FD up front so
    // a response can never race ahead of its registration (§4.4's
    // one-FD-per-connection optimization).
    asyncx::WaitCtx* wctx = c->tls->wait_ctx();
    const int efd = wctx->ensure_fd();
    if (efd >= 0) {
      (void)loop_.add(efd, true, false, [this, c](net::FdEvents) {
        c->tls->wait_ctx()->clear_fd();
        on_async_event(c);
      });
      c->fd_registered = true;
    }
  }

  auto status = loop_.add(fd, true, false, [this, c](net::FdEvents events) {
    on_socket_event(c, events);
  });
  if (!status.is_ok()) {
    QTLS_WARN << "epoll add failed: " << status.to_string();
    close_connection(c, true);
    return;
  }
  handshake_handler(c);
  maybe_heuristic_poll();
}

void Worker::close_connection(Conn* conn, bool error) {
  if (error) {
    ++stats_.errors;
    // A connection dying while resuming from an async event means the
    // offload op it was parked on failed terminally (device error past the
    // retry budget, or deadline expiry with sw-fallback disabled). Counted
    // separately so run_until callers can observe permanent offload
    // failures instead of waiting on a completion that will never come.
    if (conn->in_async_resume) ++stats_.async_failures;
  } else {
    ++stats_.closed;
  }
  set_idle(conn, false);
  cancel_deadline(conn);
  note_handshake_over(conn);
  // Retire the id first so async-queue entries referencing this connection
  // become no-ops, then run any paused offload job to completion — its
  // response callback references this connection's wait context.
  conns_by_id_.erase(conn->id);
  if (conn->expecting_async) --pending_async_;
  conn->expecting_async = false;
  conn->async_handler = nullptr;
  if (conn->tls->has_paused_job())
    conn->tls->drain_paused_job([this] {
      if (qat_) qat_->poll();
    });
  if (conn->fd_registered && conn->tls->wait_ctx()->has_fd())
    (void)loop_.remove(conn->tls->wait_ctx()->fd());
  if (!conn->socket_parked) (void)loop_.remove(conn->fd);
  conns_.erase(conn->fd);
  conn_pool_->destroy(conn);  // slot recycled; conn is dead past this line
  // Capacity freed: pull a parked accept in, and let a drain in progress
  // observe the shrinking population.
  admit_parked();
  finish_drain_check();
}

void Worker::note_handshake_over(Conn* conn) {
  if (!conn->counted_handshaking) return;
  conn->counted_handshaking = false;
  --handshaking_;
}

// ---------------------------------------------------------- deadlines ----

void Worker::arm_deadline(Conn* conn, DeadlineKind kind, uint64_t delay_ms) {
  cancel_deadline(conn);
  if (delay_ms == 0) return;  // disabled
  conn->deadline_kind = kind;
  conn->deadline_timer =
      loop_.timers().arm(now_ms(), delay_ms, [this, id = conn->id] {
        if (Conn* live = find_by_id(id)) on_deadline(live);
      });
}

void Worker::cancel_deadline(Conn* conn) {
  if (conn->deadline_timer != 0) {
    (void)loop_.timers().cancel(conn->deadline_timer);
    conn->deadline_timer = 0;
  }
  conn->deadline_kind = DeadlineKind::kNone;
}

void Worker::on_deadline(Conn* conn) {
  note_progress();
  const DeadlineKind kind = conn->deadline_kind;
  conn->deadline_timer = 0;  // fired, nothing to cancel
  conn->deadline_kind = DeadlineKind::kNone;
  // Pick the alert the teardown deserves (DESIGN.md §10). A paused fiber
  // owns the record stream — calling any entry point would resume the wrong
  // operation — so alerts are skipped there; close_connection drains the
  // job and the pending offload slot via the PR 2 sweep.
  const bool can_alert = !conn->tls->has_paused_job();
  switch (kind) {
    case DeadlineKind::kHandshake:
      ++overload_stats_.handshake_timeouts;
      if (can_alert)
        (void)conn->tls->send_alert(tls::AlertLevel::kFatal,
                                    tls::AlertDescription::kUserCanceled);
      break;
    case DeadlineKind::kIdle:
      ++overload_stats_.idle_timeouts;
      if (can_alert)
        (void)conn->tls->send_alert(tls::AlertLevel::kWarning,
                                    tls::AlertDescription::kCloseNotify);
      break;
    case DeadlineKind::kWriteStall:
      // The peer is not draining our bytes — an alert would only join the
      // queue it refuses to read. Close without ceremony.
      ++overload_stats_.write_stall_timeouts;
      break;
    case DeadlineKind::kNone:
      return;  // cancelled in the same advance; nothing to do
  }
  close_connection(conn, /*error=*/false);
}

void Worker::set_idle(Conn* conn, bool idle) {
  if (conn->idle == idle) return;
  conn->idle = idle;
  idle_count_ += idle ? 1 : static_cast<size_t>(-1);
}

// ----------------------------------------------------------- dispatch ----

bool Worker::dispatch_result(Conn* conn, tls::TlsResult r, Handler self) {
  switch (r) {
    case tls::TlsResult::kOk:
      return true;
    case tls::TlsResult::kWantAsync:
      park_async(conn, self);
      return false;
    case tls::TlsResult::kWantRead:
      (void)loop_.modify(conn->fd, true, false);
      return false;
    case tls::TlsResult::kWantWrite:
      (void)loop_.modify(conn->fd, true, true);
      return false;
    case tls::TlsResult::kClosed:
      close_connection(conn, false);
      return false;
    case tls::TlsResult::kError:
      close_connection(conn, true);
      return false;
  }
  return false;
}

void Worker::park_async(Conn* conn, Handler handler) {
  ++stats_.async_parks;
  conn->async_handler = handler;
  if (!conn->expecting_async) ++pending_async_;
  conn->expecting_async = true;
  maybe_heuristic_poll();
}

void Worker::on_async_event(Conn* conn) {
  if (!conn->expecting_async) return;  // stale event (connection moved on)
  note_progress();
  const int fd = conn->fd;  // captured before the handler may destroy conn
  conn->expecting_async = false;
  --pending_async_;
  conn->in_async_resume = true;
  Handler handler = conn->async_handler;
  conn->async_handler = nullptr;
  if (handler) (this->*handler)(conn);

  // §4.2: restore the saved read event, if one arrived out of order.
  // The map lookup also tells us whether the handler destroyed the
  // connection (terminal offload failure path) — only touch conn if alive.
  auto it = conns_.find(fd);
  if (it == conns_.end() || it->second != conn) return;
  conn->in_async_resume = false;
  if (conn->deferred_read && !conn->expecting_async) {
    conn->deferred_read = false;
    net::FdEvents ev;
    ev.readable = true;
    on_socket_event(conn, ev);
  }
}

void Worker::on_socket_event(Conn* conn, net::FdEvents events) {
  note_progress();
  if (events.error) {
    close_connection(conn, true);
    return;
  }
  if (conn->expecting_async) {
    // Event disorder (§4.2): the only event we expect now is the async
    // event. Save the read event; it is replayed after the async resume.
    if (events.readable) {
      conn->deferred_read = true;
      ++stats_.disorder_events;
    }
    return;
  }
  if (!conn->tls->handshake_complete()) {
    handshake_handler(conn);
  } else if (events.writable && conn->write_in_progress) {
    write_handler(conn);
  } else if (events.readable) {
    read_handler(conn);
  }
  maybe_heuristic_poll();
}

// ----------------------------------------------------------- handlers ----

void Worker::handshake_handler(Conn* conn) {
  const tls::TlsResult r = conn->tls->handshake();
  if (!dispatch_result(conn, r, &Worker::handshake_handler)) return;
  ++stats_.handshakes_completed;
  if (conn->tls->resumed_session()) ++stats_.resumed_handshakes;
  // Handshake capacity freed: admit parked accepts, swap the handshake
  // deadline for the idle/request one.
  note_handshake_over(conn);
  arm_deadline(conn, DeadlineKind::kIdle, config_.overload.idle_timeout_ms);
  admit_parked();
  (void)loop_.modify(conn->fd, true, false);
  // The client's first request may already sit decoded in the TLS buffers
  // (sent back-to-back with its Finished); epoll would never fire for it.
  read_handler(conn);
}

void Worker::read_handler(Conn* conn) {
  set_idle(conn, false);
  for (;;) {
    // conn->inbound (not a stack local) is the read target: a paused async
    // read job holds a pointer to it across resumes.
    const tls::TlsResult r = conn->tls->read(&conn->inbound);
    if (r == tls::TlsResult::kWantRead) {
      // No complete record yet. If no request is pending either, the
      // connection returns to idle (keepalive wait).
      if (conn->parser.buffered() == 0 && !conn->response_inflight)
        set_idle(conn, true);
      (void)loop_.modify(conn->fd, true, false);
      return;
    }
    if (!dispatch_result(conn, r, &Worker::read_handler)) return;
    conn->parser.feed(conn->inbound);
    conn->inbound.clear();
    auto request = conn->parser.next();
    if (conn->parser.error()) {
      if (conn->parser.too_large() && !conn->tls->has_paused_job()) {
        // Parser bound exceeded: answer 431 before closing so a
        // misconfigured (rather than hostile) client learns why. Best
        // effort — a kWantAsync seal is drained by close_connection.
        (void)conn->tls->write(build_http_response(431, {}, false));
      }
      close_connection(conn, true);
      return;
    }
    if (request.has_value()) {
      conn->response_keepalive = request->keepalive;
      if (request->path == "/stats")
        conn->endpoint = Endpoint::kStats;
      else if (request->path == "/healthz")
        conn->endpoint = Endpoint::kHealthz;
      else if (request->path == "/readyz")
        conn->endpoint = Endpoint::kReadyz;
      else if (request->path == "/reload")
        conn->endpoint = Endpoint::kReload;
      else
        conn->endpoint = Endpoint::kFile;
      conn->request_path = request->path;
      conn->response_inflight = true;
      write_handler(conn);
      return;
    }
    // Partial request: keep reading.
  }
}

// Static-file path (DESIGN.md §11) -----------------------------------------

namespace {
// pread chunk size: 64 KB = four 16 KB records per TLS write, so every chunk
// drives one batched seal submission.
constexpr size_t kFileReadChunk = 64 * 1024;
}  // namespace

bool Worker::open_static_file(Conn* conn) {
  const std::string& path = conn->request_path;
  // Reject anything that could escape the root: relative paths and any
  // dot-dot segment (conservative: any ".." substring).
  if (path.empty() || path[0] != '/' ||
      path.find("..") != std::string::npos)
    return false;
  const std::string full = config_.file_root + path;
  const int fd = ::open(full.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return false;
  }
  conn->file_fd = fd;
  conn->file_off = 0;
  conn->file_left = static_cast<size_t>(st.st_size);
  return true;
}

void Worker::finish_file(Conn* conn) {
  if (conn->file_fd >= 0) ::close(conn->file_fd);
  conn->file_fd = -1;
  conn->file_off = 0;
  conn->file_left = 0;
  conn->file_staging.clear();
  conn->file_staging.shrink_to_fit();
}

tls::TlsResult Worker::stream_file(Conn* conn) {
  // Bounded staging: pread one chunk after whatever the staging block
  // already holds (the response head, on the first pass, so head and chunk
  // seal as one record batch), hand it to the TLS layer, repeat. A
  // kWantAsync/kWantWrite return parks the connection mid-file; the resume
  // path finishes the in-flight write and re-enters this loop at file_off.
  while (conn->file_left > 0 || !conn->file_staging.empty()) {
    const size_t lead = conn->file_staging.size();
    const size_t chunk = std::min(conn->file_left, kFileReadChunk);
    if (chunk > 0) {
      conn->file_staging.resize(lead + chunk);
      const ssize_t n =
          ::pread(conn->file_fd, conn->file_staging.data() + lead, chunk,
                  static_cast<off_t>(conn->file_off));
      if (n <= 0) {
        // Truncated under us or I/O error: the head promised
        // Content-Length bytes, so the only honest move is to kill the
        // connection.
        finish_file(conn);
        return tls::TlsResult::kError;
      }
      conn->file_staging.resize(lead + static_cast<size_t>(n));
      conn->file_off += static_cast<size_t>(n);
      conn->file_left -= static_cast<size_t>(n);
    }
    const tls::TlsResult r = conn->tls->write(conn->file_staging);
    conn->file_staging.clear();
    if (r != tls::TlsResult::kOk) return r;
  }
  finish_file(conn);
  return tls::TlsResult::kOk;
}

void Worker::write_handler(Conn* conn) {
  tls::TlsResult r;
  if (conn->response_inflight && !conn->tls->handshake_complete()) {
    close_connection(conn, true);
    return;
  }
  if (conn->response_inflight) {
    // First call builds and queues the response; resumed calls pass empty
    // (the connection's write buffer already holds the data).
    conn->response_inflight = false;
    conn->write_in_progress = true;
    if (!config_.file_root.empty() && conn->endpoint == Endpoint::kFile) {
      // Static-file path: the head (Content-Length from fstat) leads the
      // streamed body's first chunk. Resolution failure is a 404 through
      // the buffered builder — error bodies are tiny.
      if (open_static_file(conn)) {
        conn->file_staging = build_http_response_head(
            200, conn->file_left, conn->response_keepalive);
        r = stream_file(conn);
      } else {
        r = conn->tls->write(
            build_http_response(404, {}, conn->response_keepalive));
      }
    } else if (conn->endpoint != Endpoint::kFile) {
      // Control/observability endpoints: /stats, /healthz, /readyz, /reload.
      Bytes body;
      int http_status = 200;
      if (conn->endpoint == Endpoint::kStats) {
        const std::string json = stats_json();
        body.assign(json.begin(), json.end());
      } else {
        const std::string json = control_response(conn->endpoint, &http_status);
        body.assign(json.begin(), json.end());
      }
      r = conn->tls->write(build_http_response(http_status, BytesView(body),
                                               conn->response_keepalive));
    } else {
      r = conn->tls->write(build_http_response(200, BytesView(response_body_),
                                               conn->response_keepalive));
    }
  } else {
    // Resume: finish the write that parked us, then keep streaming if a
    // static file is still open.
    r = conn->tls->write({});
    if (r == tls::TlsResult::kOk && conn->file_fd >= 0)
      r = stream_file(conn);
  }
  if (r == tls::TlsResult::kWantAsync || r == tls::TlsResult::kWantWrite) {
    if (r == tls::TlsResult::kWantAsync) {
      park_async(conn, &Worker::write_handler);
    } else {
      // Transport backpressure: the slowloris window. The stall deadline is
      // armed once and NOT reset by partial progress — a peer draining one
      // byte per second never pushes it out.
      if (conn->deadline_kind != DeadlineKind::kWriteStall)
        arm_deadline(conn, DeadlineKind::kWriteStall,
                     config_.overload.write_stall_timeout_ms);
      (void)loop_.modify(conn->fd, true, true);
    }
    return;
  }
  conn->write_in_progress = false;
  if (r != tls::TlsResult::kOk) {
    close_connection(conn, r == tls::TlsResult::kClosed ? false : true);
    return;
  }
  ++stats_.requests_served;
  // Response fully flushed: back to the keepalive wait.
  arm_deadline(conn, DeadlineKind::kIdle, config_.overload.idle_timeout_ms);
  if (!conn->response_keepalive) {
    close_handler(conn);
    return;
  }
  (void)loop_.modify(conn->fd, true, false);
  // A pipelined next request may already be buffered in the TLS layer;
  // read_handler settles the connection back to idle if there is none.
  read_handler(conn);
}

void Worker::close_handler(Conn* conn) {
  if (conn->tls->shutdown() == tls::TlsResult::kWantAsync) {
    // Nothing more is read or written on the socket, and a peer's hang-up
    // would raise EPOLLHUP on every pass whatever the interest mask.
    if (!conn->socket_parked) {
      (void)loop_.remove(conn->fd);
      conn->socket_parked = true;
    }
    park_async(conn, &Worker::close_handler);
    return;
  }
  close_connection(conn, false);
}

// ---------------------------------------------------------- memory plane ----

size_t Worker::conn_footprint(const Conn& conn) const {
  // sizeof(Conn) covers the embedded transport + TlsConnection (by-value
  // members); heap_footprint() adds what they own on the heap.
  size_t n = sizeof(Conn);
  if (conn.tls.has_value()) n += conn.tls->heap_footprint();
  n += conn.inbound.capacity();
  n += conn.file_staging.capacity();
  n += conn.request_path.capacity();
  n += conn.parser.buffered();
  return n;
}

size_t Worker::bytes_per_conn() const {
  if (conns_.empty()) return 0;
  size_t total = 0;
  for (const auto& [fd, conn] : conns_) total += conn_footprint(*conn);
  return total / conns_.size();
}

size_t Worker::released_scratch_connections() const {
  size_t n = 0;
  for (const auto& [fd, conn] : conns_)
    if (conn->tls.has_value() && conn->tls->handshake_state_released()) ++n;
  return n;
}

std::string Worker::stats_json() const {
  std::ostringstream os;
  os << "{\"worker\":{"
     << "\"accepted\":" << stats_.accepted
     << ",\"handshakes_completed\":" << stats_.handshakes_completed
     << ",\"requests_served\":" << stats_.requests_served
     << ",\"closed\":" << stats_.closed << ",\"errors\":" << stats_.errors
     << ",\"disorder_events\":" << stats_.disorder_events
     << ",\"async_parks\":" << stats_.async_parks
     << ",\"async_failures\":" << stats_.async_failures
     << ",\"sleeps\":" << stats_.sleeps
     << ",\"alive\":" << alive_connections()
     << ",\"active\":" << active_connections() << "}";
  os << ",\"overload\":{"
     << "\"shed\":" << overload_stats_.shed
     << ",\"parked\":" << overload_stats_.parked
     << ",\"park_overflow\":" << overload_stats_.park_overflow
     << ",\"admitted_from_park\":" << overload_stats_.admitted_from_park
     << ",\"handshake_timeouts\":" << overload_stats_.handshake_timeouts
     << ",\"park_timeouts\":" << overload_stats_.park_timeouts
     << ",\"idle_timeouts\":" << overload_stats_.idle_timeouts
     << ",\"write_stall_timeouts\":" << overload_stats_.write_stall_timeouts
     << ",\"drain_refused\":" << overload_stats_.drain_refused
     << ",\"drain_force_closed\":" << overload_stats_.drain_force_closed
     << ",\"handshaking\":" << handshaking_
     << ",\"parked_now\":" << parked_count_
     << ",\"draining\":" << (draining_ ? "true" : "false") << "}";
  // Memory plane (DESIGN.md §14): what an alive connection costs, how much
  // of the fleet released its handshake scratch, and the slab directory.
  {
    const size_t bpc = bytes_per_conn();
    const common::SlabStats slab_totals =
        common::SlabRegistry::global().totals();
    os << ",\"memory\":{"
       << "\"bytes_per_conn\":" << bpc
       << ",\"released_scratch\":" << released_scratch_connections()
       << ",\"slab_live\":" << slab_totals.live
       << ",\"slab_bytes_reserved\":" << slab_totals.bytes_reserved
       << ",\"slabs\":" << common::SlabRegistry::global().to_json() << "}";
  }
  if (qat_) {
    const engine::QatEngineStats& e = qat_->stats();
    os << ",\"engine\":{"
       << "\"submitted\":" << e.submitted << ",\"completed\":" << e.completed
       << ",\"submit_retries\":" << e.submit_retries
       << ",\"seal_batches\":" << e.seal_batches
       << ",\"seal_batch_ops\":" << e.seal_batch_ops
       << ",\"device_errors\":" << e.device_errors
       << ",\"op_retries\":" << e.op_retries
       << ",\"deadline_expiries\":" << e.deadline_expiries
       << ",\"sw_fallbacks\":" << e.sw_fallbacks
       << ",\"breaker_opens\":" << e.breaker_opens
       << ",\"breaker_closes\":" << e.breaker_closes
       << ",\"device_migrations\":" << e.device_migrations
       << ",\"lane_spillovers\":" << e.lane_spillovers
       << ",\"lane_breaker_opens\":" << e.lane_breaker_opens
       << ",\"lane_breaker_closes\":" << e.lane_breaker_closes
       << ",\"breaker\":{";
    for (int c = 0; c < qat::kNumOpClasses; ++c) {
      os << (c ? "," : "") << '"'
         << qat::op_class_name(static_cast<qat::OpClass>(c)) << "\":\""
         << engine::breaker_name(
                qat_->breaker_state(static_cast<qat::OpClass>(c)))
         << '"';
    }
    os << "}}";
    // Remote offload tier (DESIGN.md §13): ladder position between the QAT
    // lanes and inline software, plus the channel's own counters.
    os << ",\"remote\":" << qat_->remote_json();
    // Multi-device topology (DESIGN.md §12): the fleet view plus this
    // worker's per-device lanes.
    if (qat::DeviceTopology* topo = qat_->topology()) {
      os << ",\"topology\":{\"fleet\":" << topo->stats_json()
         << ",\"preferred_device\":" << qat_->preferred_device()
         << ",\"lanes\":" << qat_->lanes_json() << "}";
    }
  }
  if (const HeuristicPollerStats* p = poller_stats()) {
    os << ",\"poller\":{"
       << "\"polls\":" << p->polls << ",\"retrieved\":" << p->retrieved
       << ",\"max_batch\":" << p->max_batch
       << ",\"efficiency_triggers\":" << p->efficiency_triggers
       << ",\"timeliness_triggers\":" << p->timeliness_triggers
       << ",\"failover_triggers\":" << p->failover_triggers
       << ",\"wake_triggers\":" << p->wake_triggers
       << ",\"ready_triggers\":" << p->ready_triggers << "}";
  }
  // Control plane (DESIGN.md §15): what generation this worker runs, the
  // attached plane's published generation and episode counters, and the
  // heartbeat the supervisor scores.
  os << ",\"control\":{"
     << "\"applied_generation\":"
     << applied_generation_.load(std::memory_order_relaxed);
  if (const ControlPlane* control = config_.control) {
    const ControlPlane::Stats c = control->stats();
    os << ",\"generation\":" << control->generation()
       << ",\"reloads\":" << c.reloads
       << ",\"reload_failures\":" << c.reload_failures
       << ",\"plane_changes_ignored\":" << c.plane_changes_ignored
       << ",\"wedge_events\":" << c.wedge_events
       << ",\"busy_holds\":" << c.busy_holds
       << ",\"worker_restarts\":" << c.worker_restarts
       << ",\"workers_abandoned\":" << c.workers_abandoned
       << ",\"last_time_to_detect_ms\":" << c.last_time_to_detect_ms
       << ",\"last_time_to_recover_ms\":" << c.last_time_to_recover_ms;
  }
  os << ",\"heartbeat\":{\"iterations\":"
     << heartbeat_.iterations.load(std::memory_order_relaxed)
     << ",\"progress\":" << heartbeat_.progress.load(std::memory_order_relaxed)
     << ",\"phase\":"
     << static_cast<int>(heartbeat_.phase.load(std::memory_order_relaxed))
     << "}}";
  os << ",\"session\":"
     << tls_ctx_->session_plane().stats_json(tls_ctx_->now_ms());
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  // TX data-plane copy meter (DESIGN.md §11): payload bytes memcpy'd per
  // byte handed to the transport. 1.0 ≈ the single unavoidable staging pass
  // (the connection's write scratch).
  const uint64_t copied = snap.counter_value("record.bytes_copied");
  const uint64_t sent = snap.counter_value("record.bytes_sent");
  os << ",\"record\":{"
     << "\"bytes_copied\":" << copied << ",\"bytes_sent\":" << sent
     << ",\"copied_per_byte\":"
     << (sent != 0 ? static_cast<double>(copied) / static_cast<double>(sent)
                   : 0.0)
     << "}";
  os << ",\"metrics\":" << snap.to_json() << "}";
  return os.str();
}

// --------------------------------------------------------------- drain ----

void Worker::request_drain(uint64_t deadline_ms) {
  drain_delay_ms_.store(deadline_ms, std::memory_order_release);
  drain_requested_.store(true, std::memory_order_release);
}

void Worker::begin_drain() {
  draining_ = true;
  // The absolute deadline is computed HERE, on the worker's own (possibly
  // virtual) clock — request_drain may have been called from another thread
  // against a different clock entirely.
  const uint64_t delay = drain_delay_ms_.load(std::memory_order_acquire);
  drain_deadline_ms_ = now_ms() + delay;

  // No new accepts: disarm the listener and refuse the parked backlog.
  if (listener_armed_) {
    (void)loop_.remove(listener_.fd());
    listener_armed_ = false;
  }
  while (parked_head_ != nullptr) {
    ParkedAccept* node = parked_head_;
    unlink_parked(node);
    ++overload_stats_.drain_refused;
    ::close(node->fd);
    park_pool_->destroy(node);
  }

  // Idle keepalive connections have nothing in flight: close them now with
  // an orderly close_notify. In-flight handshakes and requests keep going
  // until they finish or the deadline force-closes them.
  std::vector<uint64_t> idle_ids;
  for (auto& [fd, conn] : conns_)
    if (conn->idle) idle_ids.push_back(conn->id);
  for (uint64_t id : idle_ids) {
    Conn* conn = find_by_id(id);
    if (!conn) continue;
    if (!conn->tls->has_paused_job())
      (void)conn->tls->send_alert(tls::AlertLevel::kWarning,
                                  tls::AlertDescription::kCloseNotify);
    close_connection(conn, /*error=*/false);
  }

  // Force-close whatever survives the deadline.
  loop_.timers().arm(now_ms(), delay, [this] {
    std::vector<uint64_t> ids;
    for (auto& [fd, conn] : conns_) ids.push_back(conn->id);
    for (uint64_t id : ids) {
      Conn* conn = find_by_id(id);
      if (!conn) continue;
      ++overload_stats_.drain_force_closed;
      close_connection(conn, /*error=*/false);
    }
    finish_drain_check();
  });
  finish_drain_check();
}

void Worker::finish_drain_check() {
  if (draining_ && conns_.empty() && parked_count_ == 0)
    drained_.store(true, std::memory_order_release);
}

// ------------------------------------------------------- control plane ----

void Worker::maybe_apply_runtime_config() {
  ControlPlane* control = config_.control;
  // Hot path: one relaxed load per pass; everything below runs only when a
  // new generation was published since we last looked.
  const uint64_t gen = control->generation();
  if (gen == applied_generation_.load(std::memory_order_relaxed)) return;
  heartbeat_.phase.store(static_cast<uint8_t>(WorkerPhase::kApplyConfig),
                         std::memory_order_relaxed);
  const std::shared_ptr<const RuntimeConfig> rc = control->current();
  if (!rc) return;
  // Worker-thread application point (DESIGN.md §15): overload caps govern
  // admissions and newly armed deadlines from this pass on; http limits
  // bind new parsers; in-flight connections keep what they started with.
  config_.overload = rc->settings.overload;
  config_.http_limits = rc->settings.http_limits;
  config_.file_root = rc->settings.file_root;
  // Credential swap is RCU-by-refcount: the context's snapshot changes for
  // connections accepted from now on, while live handshakes hold the
  // shared_ptr they captured at accept.
  if (rc->credentials) tls_ctx_->set_credentials(*rc->credentials);
  if (config_.remote_rebind) config_.remote_rebind(rc->settings.remote);
  applied_generation_.store(rc->generation, std::memory_order_relaxed);
  QTLS_INFO << "worker applied config generation " << rc->generation;
}

std::string Worker::control_response(Endpoint endpoint, int* http_status) {
  *http_status = 200;
  ControlPlane* control = config_.control;
  std::ostringstream os;
  switch (endpoint) {
    case Endpoint::kHealthz:
      if (control) return control->healthz_json(now_ms(), http_status);
      // No control plane attached: liveness degenerates to "this worker is
      // serving the request", which it demonstrably is.
      os << "{\"status\":\"ok\",\"supervised\":false}";
      return os.str();
    case Endpoint::kReadyz:
      if (control) return control->readyz_json(http_status);
      *http_status = draining_ ? 503 : 200;
      os << "{\"ready\":" << (draining_ ? "false" : "true")
         << ",\"supervised\":false}";
      return os.str();
    case Endpoint::kReload: {
      if (!control) {
        *http_status = 404;
        return "{\"error\":\"no control plane attached\"}";
      }
      // Synchronous: parse + publish here, then apply our own view before
      // answering so the response reflects the generation it created.
      const Status st = control->reload_now();
      if (!st.is_ok()) {
        *http_status = 500;
        os << "{\"ok\":false,\"error\":\"" << st.to_string() << "\"}";
        return os.str();
      }
      maybe_apply_runtime_config();
      os << "{\"ok\":true,\"generation\":" << control->generation() << "}";
      return os.str();
    }
    case Endpoint::kFile:
    case Endpoint::kStats:
      break;  // not ours
  }
  *http_status = 500;
  return "{}";
}

// ---------------------------------------------------------------- loop ----

void Worker::maybe_heuristic_poll() {
  if (poller_) (void)poller_->maybe_poll(active_connections(), now_ms());
}

int Worker::sleep_budget(int timeout_ms) {
  // Queued handlers never wait; a caller's 0 stays a poll.
  if (timeout_ms == 0 || !async_queue_.empty()) return 0;
  if (!qat_ || qat_->inflight_total() == 0) return timeout_ms;
  // Ops in flight and nothing else to do: sleep until the device answers
  // (DESIGN.md §5). With the timer scheme the next tick polls, so the loop
  // sleeps without arming; heuristic polling arms the engine's wakeup, and
  // a sleep never outlasts the failover interval, so the deadline sweep
  // keeps its cadence.
  if (poller_) {
    if (!poller_->arm_or_poll(now_ms())) return 0;
    wakeup_armed_ = true;
    const int failover = static_cast<int>(std::min<uint64_t>(
        poller_->config().failover_interval_ms, INT32_MAX));
    timeout_ms = timeout_ms < 0 ? failover : std::min(timeout_ms, failover);
  }
  ++stats_.sleeps;
  return timeout_ms;
}

void Worker::on_device_wakeup() {
  uint64_t count = 0;
  [[maybe_unused]] ssize_t r = ::read(qat_->wakeup_fd(), &count, sizeof(count));
  // A write that raced a refused arm lands outside a sleep; the next arm's
  // re-check finds its response.
  if (!wakeup_armed_) return;
  note_progress();
  (void)poller_->wake_poll(now_ms());
}

void Worker::on_timer_tick() {
  uint64_t expirations = 0;
  [[maybe_unused]] ssize_t r = ::read(timer_fd_, &expirations,
                                      sizeof(expirations));
  (void)qat_->poll();
}

int Worker::run_once(int timeout_ms) {
  if (config_.loop_hook) config_.loop_hook(*this);
  if (config_.control != nullptr) maybe_apply_runtime_config();
  if (drain_requested_.load(std::memory_order_acquire) && !draining_)
    begin_drain();
  heartbeat_.phase.store(static_cast<uint8_t>(WorkerPhase::kPoll),
                         std::memory_order_relaxed);
  const int n = loop_.run_once(sleep_budget(timeout_ms));
  if (wakeup_armed_) {
    wakeup_armed_ = false;
    qat_->disarm_wakeup();
  }

  maybe_heuristic_poll();
  if (poller_) (void)poller_->failover_poll(now_ms());

  // End of the main event loop: drain the kernel-bypass async queue.
  heartbeat_.phase.store(static_cast<uint8_t>(WorkerPhase::kAsyncDrain),
                         std::memory_order_relaxed);
  async_queue_.drain();
  maybe_heuristic_poll();
  // Heartbeat: one completed pass (the supervisor scores freshness on this).
  heartbeat_.phase.store(static_cast<uint8_t>(WorkerPhase::kIdle),
                         std::memory_order_relaxed);
  heartbeat_.stamp_ms.store(now_ms(), std::memory_order_relaxed);
  heartbeat_.iterations.fetch_add(1, std::memory_order_relaxed);
  return n;
}

// Failure observation contract: a connection whose offload op fails
// terminally is torn down inside some run_once iteration (the deadline
// sweep rides the failover poll or the timer tick, so even a dropped
// response resolves within op_deadline_us plus one failover or tick
// interval). `stop` predicates waiting on progress counters should also
// watch stats().errors / async_failures — a failed connection advances
// those, never the progress counters.
// A pending eject (crash-only recovery, DESIGN.md §15) exits the loop ahead
// of the caller's own predicate.
void Worker::run_until(const std::function<bool()>& stop, int timeout_ms) {
  while (!eject_requested() && !stop()) run_once(timeout_ms);
}

}  // namespace qtls::server
