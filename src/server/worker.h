// The event-driven HTTPS worker — the reproduction of the paper's modified
// Nginx worker (§4.2–§4.4):
//  * one epoll loop handling many connections;
//  * TLS entry points returning WANT_ASYNC park the connection with an
//    async handler (the same handler is rescheduled on the async event);
//  * event disorder (§4.2): a read event arriving while an async event is
//    expected is saved and replayed after the async resume;
//  * notification: kernel-bypass async queue drained at the end of each
//    loop iteration, or eventfd through epoll;
//  * heuristic polling hooks wherever ops are submitted or TC_active moves,
//    plus the failover timer — or, with the timer scheme, a periodic
//    timerfd in the loop's epoll set whose tick polls the engine;
//  * with nothing left to do but ops in flight, a sleep in epoll until the
//    engine's wakeup eventfd fires (DESIGN.md §5) instead of a spin;
//  * stub_status-style accounting: TC_active = TC_alive - TC_idle.
#pragma once

#include <atomic>
#include <memory>
#include <unordered_map>

#include "common/slab.h"
#include "net/event_loop.h"
#include "net/socket_transport.h"
#include "server/async_queue.h"
#include "server/heuristic_poller.h"
#include "server/http.h"
#include "server/overload.h"
#include "server/ssl_engine_conf.h"
#include "tls/connection.h"

namespace qtls::server {

class ControlPlane;
class Worker;

// Which part of the loop pass a worker is in when its heartbeat is read —
// purely diagnostic (shown in /healthz), never used for wedge decisions.
enum class WorkerPhase : uint8_t {
  kIdle = 0,        // between passes
  kApplyConfig = 1, // applying a new RuntimeConfig generation
  kPoll = 2,        // epoll dispatch + handlers
  kAsyncDrain = 3,  // kernel-bypass queue drain
};

// Relaxed-atomic heartbeat the supervisor reads cross-thread (DESIGN.md
// §15). `iterations` moves once per completed run_once pass; `progress`
// moves once per handled event/deadline/accept, so a worker stuck inside
// one very long pass still reads as busy (not wedged) while its handlers
// advance. Both frozen for N windows = wedged.
struct WorkerHeartbeat {
  std::atomic<uint64_t> iterations{0};
  std::atomic<uint64_t> progress{0};
  std::atomic<uint64_t> stamp_ms{0};  // worker-clock time of the last pass
  std::atomic<uint8_t> phase{0};      // WorkerPhase
};

struct WorkerConfig {
  NotifyScheme notify = NotifyScheme::kKernelBypass;
  PollScheme poll = PollScheme::kHeuristic;
  // kTimer: the period of the tick that polls the engine from the loop.
  std::chrono::microseconds timer_interval{10};
  HeuristicPollerConfig heuristic;
  size_t response_body_size = 1024;  // the served "file"
  // Static-file root (DESIGN.md §11). When non-empty, GETs other than
  // /stats are resolved under this directory and streamed through a
  // bounded pread-into-sealed-record loop (never whole-file buffered);
  // misses answer 404. Empty = the synthetic response_body_size object.
  std::string file_root;
  OverloadConfig overload;           // timeouts + admission (DESIGN.md §10)
  HttpLimits http_limits;            // parser bounds (431 past them)
  // Millisecond clock for deadlines (null = CLOCK_MONOTONIC). Tests inject
  // virtual time so timeout behaviour is deterministic.
  std::function<uint64_t()> clock;
  // Self-healing control plane (DESIGN.md §15). When set, the worker applies
  // the newest RuntimeConfig generation at the top of each loop pass (one
  // relaxed load when nothing changed) and serves /healthz, /readyz and
  // POST /reload alongside /stats.
  ControlPlane* control = nullptr;
  // Bound by WorkerPool: re-dials the remote offload tier on THIS worker's
  // thread when a reload changed remote_offload{} (the engine's backend
  // pointer is only ever touched from its own worker).
  std::function<void(const RemoteOffloadSettings&)> remote_rebind;
  // Test hook invoked at the top of every run_once pass — deterministic
  // wedge/busy injection for the watchdog tests. Production leaves it empty.
  std::function<void(Worker&)> loop_hook;
};

struct WorkerStats {
  uint64_t accepted = 0;
  uint64_t handshakes_completed = 0;
  uint64_t resumed_handshakes = 0;
  uint64_t requests_served = 0;
  uint64_t closed = 0;
  uint64_t errors = 0;
  uint64_t disorder_events = 0;   // §4.2 read-before-async occurrences
  uint64_t async_parks = 0;       // WANT_ASYNC occurrences
  uint64_t async_failures = 0;    // connections torn down because the async
                                  // op they were parked on erred/expired
  uint64_t sleeps = 0;            // passes that let epoll sleep with ops in
                                  // flight
};

class Worker {
 public:
  // `qat` may be null (pure-software worker). The TLS context decides
  // whether entry points use fibers (async_mode).
  Worker(tls::TlsContext* tls_ctx, engine::QatEngineProvider* qat,
         WorkerConfig config);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  // Listen on 127.0.0.1:port (0 = ephemeral). With `reuseport`, several
  // workers can share the same port (the multi-worker deployment of §5.1).
  Status add_listener(uint16_t port, bool reuseport = false);
  uint16_t listen_port() const;

  // Adopt an already-connected fd as a TLS server connection (socketpair
  // tests and in-process benches).
  Status adopt(int fd);

  // One event-loop iteration: epoll dispatch, heuristic polls, async-queue
  // drain. Returns number of epoll events dispatched.
  int run_once(int timeout_ms = 10);
  // Loop until `stop()` returns true.
  void run_until(const std::function<bool()>& stop, int timeout_ms = 10);

  // stub_status counters (§4.3).
  size_t alive_connections() const { return conns_.size(); }
  size_t idle_connections() const { return idle_count_; }
  size_t active_connections() const { return conns_.size() - idle_count_; }
  size_t handshaking_connections() const { return handshaking_; }
  size_t parked_accepts() const { return parked_count_; }

  // Memory accounting (DESIGN.md §14): average heap bytes pinned per alive
  // connection — connection object + TLS buffers + handshake scratch when
  // still held. Served as "bytes_per_conn" in the GET /stats "memory"
  // object; the footprint regression test gates on it.
  size_t bytes_per_conn() const;
  // Alive connections whose handshake scratch has been wiped and released.
  size_t released_scratch_connections() const;
  // Connections parked on an in-flight offload (expecting_async). A worker
  // is quiescent only when this is zero — a caller observing "no active
  // connections" while this is non-zero is mid-op, not done (the
  // ActiveIdleAccounting race: a final close_notify decrypt parks the
  // connection non-idle until its async op completes).
  size_t pending_async_connections() const { return pending_async_; }

  // Graceful drain (DESIGN.md §10). Cross-thread-safe: the worker thread
  // observes the request at its next run_once, stops accepting (listener
  // disarmed, parked accepts closed), lets in-flight handshakes and
  // keepalive requests finish, and force-closes whatever is still alive
  // `deadline_ms` later (measured on the worker's own clock). Once every
  // connection is gone, drained() flips — the pool's run loop exits on it.
  void request_drain(uint64_t deadline_ms);
  bool draining() const { return drain_requested_.load(std::memory_order_acquire); }
  bool drained() const { return drained_.load(std::memory_order_acquire); }

  // --- self-healing control plane (DESIGN.md §15) -----------------------
  // The heartbeat the supervisor scores; stamped by the worker thread with
  // relaxed atomics, readable from any thread.
  const WorkerHeartbeat& heartbeat() const { return heartbeat_; }
  // Handlers bump this per event so the supervisor can tell "busy" from
  // "wedged"; public so wedge-injection hooks can simulate a busy stall.
  void note_progress() {
    heartbeat_.progress.fetch_add(1, std::memory_order_relaxed);
  }
  // Crash-only eject: run_until exits at its next predicate check with no
  // drain ceremony (the destructor is the reap). Cross-thread-safe; also
  // observed by cooperative wedge hooks so an ejected loop unblocks.
  void request_eject() { eject_requested_.store(true, std::memory_order_release); }
  bool eject_requested() const {
    return eject_requested_.load(std::memory_order_acquire);
  }
  // RuntimeConfig generation this worker most recently applied.
  uint64_t applied_generation() const {
    return applied_generation_.load(std::memory_order_relaxed);
  }
  // The listener fd (or -1): the pool quarantines a zombie's reuseport
  // share by dup2-ing /dev/null over it.
  int listener_fd() const { return listener_armed_ ? listener_.fd() : -1; }

  const WorkerStats& stats() const { return stats_; }
  const OverloadStats& overload_stats() const { return overload_stats_; }
  const HeuristicPollerStats* poller_stats() const {
    return poller_ ? &poller_->stats() : nullptr;
  }
  const AsyncEventQueue& async_queue() const { return async_queue_; }

  // The GET /stats payload: each count under the object that owns it
  // (worker, overload, memory, engine with its breakers, remote, topology,
  // poller, control, session, record), then the global metrics registry
  // snapshot (per-stage latency histograms and the copy meter). Runs on
  // the worker thread (it serves the request), so worker state needs no
  // locking.
  std::string stats_json() const;

 private:
  struct Conn;
  struct ParkedAccept;
  using Handler = void (Worker::*)(Conn*);

  enum class DeadlineKind : uint8_t { kNone, kHandshake, kIdle, kWriteStall };
  // What a parsed GET resolves to: the static/synthetic file path or one of
  // the built-in control/observability endpoints.
  enum class Endpoint : uint8_t { kFile, kStats, kHealthz, kReadyz, kReload };

  void on_listener_readable();
  void setup_connection(int fd);
  void close_connection(Conn* conn, bool error);

  // Overload plane.
  bool admission_ok() const;
  void admit_or_reject(int fd);   // shed/park/setup per the overload config
  void admit_parked();            // pull parked accepts as capacity frees
  // Park an accepted fd in the slab-backed backlog, aging against the
  // handshake deadline (a parked peer is mid-"handshake" as far as it can
  // tell). The deadline fire unlinks the node BEFORE destroying it — the
  // lifetime bug this PR's regression test pins down.
  void park_accept(int fd);
  void unlink_parked(ParkedAccept* node);  // dequeue + cancel its deadline
  void on_park_deadline(ParkedAccept* node);
  size_t conn_footprint(const Conn& conn) const;
  void arm_deadline(Conn* conn, DeadlineKind kind, uint64_t delay_ms);
  void cancel_deadline(Conn* conn);
  void on_deadline(Conn* conn);
  void note_handshake_over(Conn* conn);  // handshaking_ bookkeeping
  void begin_drain();
  void finish_drain_check();

  // The TLS handlers — counterparts of ngx_ssl_handshake_handler etc.
  void handshake_handler(Conn* conn);
  void read_handler(Conn* conn);
  void write_handler(Conn* conn);
  // Sends close_notify and closes. An offloaded seal parks the connection
  // like any other op, with its socket out of the epoll set, and the async
  // event closes it.
  void close_handler(Conn* conn);

  // Static-file path (DESIGN.md §11): resolve + open under file_root
  // (false = miss → 404), stream the next chunks through the TLS layer,
  // and release the fd.
  bool open_static_file(Conn* conn);
  tls::TlsResult stream_file(Conn* conn);
  void finish_file(Conn* conn);

  // Dispatch one TlsResult: park on WANT_ASYNC, adjust epoll interest on
  // WANT_READ/WANT_WRITE, close on error. Returns true when r == kOk.
  bool dispatch_result(Conn* conn, tls::TlsResult r, Handler self);
  void park_async(Conn* conn, Handler handler);
  void on_async_event(Conn* conn);
  void on_socket_event(Conn* conn, net::FdEvents events);
  void set_idle(Conn* conn, bool idle);

  void maybe_heuristic_poll();
  // How long this pass may block in epoll; arms the engine's wakeup when
  // the loop sleeps with ops in flight.
  int sleep_budget(int timeout_ms);
  // The engine's wakeup eventfd turned readable.
  void on_device_wakeup();
  // kTimer: the periodic timerfd expired.
  void on_timer_tick();
  // Apply a newly published RuntimeConfig generation on the worker thread
  // (credentials, overload caps, http limits, file root, remote rebind).
  void maybe_apply_runtime_config();
  // Body + status for /healthz, /readyz and /reload (POST /reload runs the
  // reload synchronously so the response reflects the new generation).
  std::string control_response(Endpoint endpoint, int* http_status);
  uint64_t now_ms() const;
  // Resolve a queued async event to a still-alive connection (the kernel-
  // bypass queue may outlive a connection that erred out meanwhile).
  Conn* find_by_id(uint64_t conn_id);

  tls::TlsContext* tls_ctx_;
  engine::QatEngineProvider* qat_;
  WorkerConfig config_;
  net::EventLoop loop_;
  net::TcpListener listener_;
  bool listener_armed_ = false;

  // Slab pools (DESIGN.md §14): connection objects, handshake scratch, and
  // parked-accept nodes all come from per-worker pools — one allocation
  // class each, exact occupancy counters, no per-connection heap churn.
  // unique_ptr because Conn/ParkedAccept are defined in the .cc; the pools
  // are built in the constructor and must outlive every object they own.
  std::unique_ptr<common::SlabPool<Conn>> conn_pool_;
  std::unique_ptr<common::SlabPool<ParkedAccept>> park_pool_;
  common::SlabPool<tls::HandshakeScratch> scratch_pool_;

  std::unordered_map<int, Conn*> conns_;  // owned by conn_pool_
  std::unordered_map<uint64_t, Conn*> conns_by_id_;
  uint64_t next_conn_id_ = 1;
  size_t idle_count_ = 0;
  size_t pending_async_ = 0;  // conns with expecting_async set

  AsyncEventQueue async_queue_;
  std::unique_ptr<HeuristicPoller> poller_;
  int timer_fd_ = -1;  // kTimer: the periodic timerfd, armed for life
  bool wakeup_armed_ = false;  // this pass sleeps on the engine's wakeup
  Bytes response_body_;
  WorkerStats stats_;

  // Overload plane state (worker-thread-owned except the two atomics).
  OverloadStats overload_stats_;
  size_t handshaking_ = 0;          // connections with incomplete handshakes
  // Accept backlog: intrusive FIFO of slab-allocated ParkedAccept nodes
  // (doubly linked for O(1) mid-queue removal when a park deadline fires).
  ParkedAccept* parked_head_ = nullptr;
  ParkedAccept* parked_tail_ = nullptr;
  size_t parked_count_ = 0;
  std::atomic<bool> drain_requested_{false};
  std::atomic<uint64_t> drain_delay_ms_{0};
  std::atomic<bool> drained_{false};
  // Control plane (DESIGN.md §15).
  WorkerHeartbeat heartbeat_;
  std::atomic<bool> eject_requested_{false};
  std::atomic<uint64_t> applied_generation_{0};
  bool draining_ = false;           // worker-thread view of the drain
  uint64_t drain_deadline_ms_ = 0;
};

}  // namespace qtls::server
