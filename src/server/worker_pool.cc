#include "server/worker_pool.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "common/log.h"
#include "crypto/keystore.h"
#include "net/socket_transport.h"
#include "obs/metrics.h"

namespace qtls::server {

namespace {

// Dials the offload server (DESIGN.md §13) and waits briefly for the
// non-blocking connect to land. Returns null on failure: the worker then
// runs the classic two-tier ladder.
std::unique_ptr<remote::RemoteChannel> dial_remote(
    const RemoteOffloadSettings& ro) {
  Result<int> fd = net::tcp_connect(ro.port, ro.host);
  if (!fd.is_ok()) {
    QTLS_WARN << "remote offload dial failed: " << fd.status().message();
    return nullptr;
  }
  struct pollfd pfd{fd.value(), POLLOUT, 0};
  if (::poll(&pfd, 1, /*timeout_ms=*/100) <= 0 ||
      (pfd.revents & (POLLERR | POLLHUP))) {
    QTLS_WARN << "remote offload connect to " << ro.host << ':' << ro.port
              << " did not complete";
    ::close(fd.value());
    return nullptr;
  }
  remote::RemoteChannelConfig cfg;
  cfg.max_batch = ro.max_batch;
  cfg.coalesce_window_us = ro.coalesce_window_us;
  return std::make_unique<remote::RemoteChannel>(
      std::make_unique<net::SocketTransport>(fd.value()), cfg);
}

// Darkens a zombie worker's SO_REUSEPORT share: dup2(/dev/null) over the
// listener fd atomically removes it from the kernel's reuseport group while
// keeping the fd NUMBER pinned — closing it outright would let the next
// accept() recycle the number under a thread that still believes it owns it.
void quarantine_listener_fd(int lfd) {
  if (lfd < 0) return;
  const int devnull = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (devnull < 0) return;
  (void)::dup2(devnull, lfd);
  ::close(devnull);
}

bool remote_settings_equal(const RemoteOffloadSettings& a,
                           const RemoteOffloadSettings& b) {
  return a.enabled == b.enabled && a.port == b.port && a.host == b.host &&
         a.max_batch == b.max_batch &&
         a.coalesce_window_us == b.coalesce_window_us;
}

}  // namespace

WorkerPoolOptions pool_options_from(const SslEngineSettings& settings) {
  WorkerPoolOptions options;
  options.workers = settings.worker_processes;
  options.engine_config = settings.engine;
  options.remote = settings.remote;
  options.session = settings.session;
  options.tls_config.async_mode =
      settings.engine.offload_mode == engine::OffloadMode::kAsync;
  WorkerConfig& w = options.worker_config;
  w.notify = settings.notify;
  w.poll = settings.poll;
  w.timer_interval = settings.timer_interval;
  w.heuristic = settings.heuristic;
  w.overload = settings.overload;
  w.http_limits = settings.http_limits;
  w.file_root = settings.file_root;
  return options;
}

WorkerPool::WorkerPool(qat::DeviceTopology* topology,
                       const RsaPrivateKey* rsa_key, WorkerPoolOptions options)
    : topology_(topology), rsa_key_(rsa_key), options_(options) {}

WorkerPool::~WorkerPool() { stop(); }

// Engine + remote channel + TLS context for one worker slot. Also the
// rebuild path when a zombie quarantine walks off with the originals.
Status WorkerPool::build_cell_engine_ctx(int i, Cell* cell) {
  engine::QatEngineConfig ecfg = options_.engine_config;
  ecfg.drbg_seed ^= static_cast<uint64_t>(i + 1) * 0x9e3779b97f4a7c15ULL;
  // One placement decision per instance (the preferred device unless it is
  // offline or queue-deep), grouped by device into per-lane sets.
  auto placements = topology_->allocate_for_worker(
      i, options_.workers, options_.instances_per_worker);
  if (placements.empty())
    return err(Code::kResourceExhausted, "no QAT instances left");
  std::vector<engine::DeviceInstanceSet> sets;
  for (const auto& p : placements) {
    auto it = std::find_if(sets.begin(), sets.end(),
                           [&](const engine::DeviceInstanceSet& s) {
                             return s.device_id == p.device;
                           });
    if (it == sets.end()) {
      sets.push_back(engine::DeviceInstanceSet{p.device, {}});
      it = sets.end() - 1;
    }
    it->instances.push_back(p.instance);
  }
  cell->engine = std::make_unique<engine::QatEngineProvider>(
      topology_, topology_->preferred_device(i, options_.workers),
      std::move(sets), ecfg);

  // Remote tier (DESIGN.md §13): each worker gets its own channel so a
  // single slow worker cannot head-of-line block the others' batches.
  if (cell->remote_settings.enabled && cell->remote_settings.port != 0) {
    cell->remote = dial_remote(cell->remote_settings);
    if (cell->remote) cell->engine->set_remote_backend(cell->remote.get());
  }

  tls::TlsContextConfig tcfg = options_.tls_config;
  tcfg.is_server = true;
  tcfg.drbg_seed ^= static_cast<uint64_t>(i + 1) * 0xc2b2ae3d27d4eb4fULL;
  cell->ctx = std::make_unique<tls::TlsContext>(tcfg, cell->engine.get());
  cell->ctx->set_session_plane(session_plane_.get());
  cell->ctx->credentials().rsa_key = rsa_key_;
  cell->ctx->credentials().ecdsa_p256 = &test_ec_key_p256();
  cell->ctx->credentials().ecdsa_p384 = &test_ec_key_p384();
  return Status::ok();
}

// Worker + reuseport listener for one slot. Shared by start() and the
// watchdog respawn: a replacement worker binds the SAME port (reuseport)
// against the SAME session plane, so the fleet's resumption state and
// accept share survive a recovery.
Status WorkerPool::build_cell_worker(int i, Cell* cell, uint16_t port) {
  WorkerConfig wcfg = options_.worker_config;
  // Reload rebinds of the remote tier run ON the worker's own thread (the
  // engine's backend pointer is not atomic); the pool arbitrates via
  // cells_mu_ and a thread-identity check.
  wcfg.remote_rebind = [this, cell](const RemoteOffloadSettings& ro) {
    rebind_remote(cell, ro);
  };
  cell->worker =
      std::make_unique<Worker>(cell->ctx.get(), cell->engine.get(), wcfg);
  QTLS_RETURN_IF_ERROR(cell->worker->add_listener(port, /*reuseport=*/true));
  if (port_ == 0) port_ = cell->worker->listen_port();
  (void)i;
  return Status::ok();
}

// Requires cells_mu_ held (cell->thread is read under the same lock by
// rebind_remote's thread-identity check).
void WorkerPool::spawn_cell_thread(Cell* cell) {
  cell->stop_flag = std::make_shared<std::atomic<bool>>(false);
  cell->exited = std::make_shared<std::atomic<bool>>(false);
  // The lambda captures the raw Worker* and the shared flags — never `this`
  // or the Cell — so a thread quarantined as a zombie can never chase the
  // pool or a recycled slot.
  Worker* worker = cell->worker.get();
  auto stop_flag = cell->stop_flag;
  auto exited = cell->exited;
  cell->thread = std::thread([worker, stop_flag, exited] {
    // The loop also exits when a requested drain completes — the worker
    // drives its own deadline; the pool just waits for the thread. An eject
    // (crash-only recovery) short-circuits inside run_until itself.
    worker->run_until(
        [worker, &stop = *stop_flag] {
          return stop.load(std::memory_order_acquire) || worker->drained();
        },
        /*timeout_ms=*/5);
    exited->store(true, std::memory_order_release);
  });
}

Status WorkerPool::start(uint16_t port) {
  if (started_) return err(Code::kFailedPrecondition, "already started");

  // One resumption plane for the whole pool, seeded once (per-worker
  // contexts get perturbed seeds below, which is exactly why per-context
  // ticket keys could never unseal across workers).
  session_plane_ = std::make_unique<tls::SessionPlane>(options_.session);

  for (int i = 0; i < options_.workers; ++i) {
    auto cell = std::make_unique<Cell>();
    cell->remote_settings = options_.remote;
    QTLS_RETURN_IF_ERROR(build_cell_engine_ctx(i, cell.get()));
    // All workers bind the same port with SO_REUSEPORT; the first (with
    // port 0) picks the ephemeral port the rest join.
    QTLS_RETURN_IF_ERROR(
        build_cell_worker(i, cell.get(), i == 0 ? port : port_));
    cells_.push_back(std::move(cell));
  }

  {
    std::lock_guard<std::mutex> lock(cells_mu_);
    for (auto& cell : cells_) spawn_cell_thread(cell.get());
  }
  started_ = true;
  return Status::ok();
}

void WorkerPool::stop() {
  if (!started_) return;
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(cells_mu_);
    for (auto& cell : cells_)
      if (cell->stop_flag)
        cell->stop_flag->store(true, std::memory_order_release);
  }
  for (auto& cell : cells_) {
    if (cell->thread.joinable()) cell->thread.join();
  }
  reap_zombies();
  started_ = false;
}

void WorkerPool::shutdown(uint64_t deadline_ms) {
  if (!started_) return;
  for (auto& cell : cells_) cell->worker->request_drain(deadline_ms);
  // Worker threads exit on their own once drained (force-close at the
  // deadline bounds this); the join is the wait.
  for (auto& cell : cells_) {
    if (cell->thread.joinable()) cell->thread.join();
  }
  reap_zombies();
  stopping_.store(true);  // recovery and readiness see the pool as stopping
  started_ = false;
}

// ------------------------------------------------ watchdog recovery ----

RecoverOutcome WorkerPool::recover_worker(int worker_index, uint64_t grace_ms) {
  RecoverOutcome out;
  Worker* victim = nullptr;
  std::shared_ptr<std::atomic<bool>> exited;
  {
    std::lock_guard<std::mutex> lock(cells_mu_);
    if (!started_ || stopping_.load() || worker_index < 0 ||
        static_cast<size_t>(worker_index) >= cells_.size())
      return out;
    Cell* cell = cells_[static_cast<size_t>(worker_index)].get();
    if (cell->recovering || !cell->worker) return out;
    cell->recovering = true;
    victim = cell->worker.get();
    exited = cell->exited;
  }

  // Crash-only: eject the loop (no close_notify ceremony for a thread that
  // may never run again) and give it a bounded WALL-CLOCK grace — a wedged
  // worker may be frozen against a virtual clock, but its thread either
  // comes back or it doesn't. The mutex is NOT held here: healthz-serving
  // workers must never stall behind a recovery into looking wedged
  // themselves.
  victim->request_eject();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  while (!exited->load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::lock_guard<std::mutex> lock(cells_mu_);
  Cell* cell = cells_[static_cast<size_t>(worker_index)].get();
  if (stopping_.load()) {
    // A pool shutdown raced the grace wait: leave the slot alone (stop()
    // owns the joins now) rather than spawn a thread nobody will reap.
    cell->recovering = false;
    return out;
  }
  if (exited->load(std::memory_order_acquire)) {
    // The thread is out of the loop: join it (near-instant past the exited
    // flag), then destroy the worker. The destructor IS the reap — paused
    // offload jobs drain, every slab-backed connection and parked accept
    // returns to its pool (the conservation the control tests assert), and
    // the listener share closes with it.
    if (cell->thread.joinable()) cell->thread.join();
    out.joined = true;
    out.reaped = victim->alive_connections() + victim->parked_accepts();
    cell->worker.reset();
  } else {
    // Genuinely wedged thread: it cannot be joined and cannot be killed
    // safely. Dark its listener share and quarantine the WHOLE cell —
    // worker, engine, context, channels stay alive for as long as the
    // zombie might touch them; nothing is freed under a running thread.
    quarantine_listener_fd(victim->listener_fd());
    auto z = std::make_unique<Zombie>();
    z->worker = std::move(cell->worker);
    z->engine = std::move(cell->engine);
    z->ctx = std::move(cell->ctx);
    z->remote = std::move(cell->remote);
    z->retired_remotes = std::move(cell->retired_remotes);
    z->thread = std::move(cell->thread);
    z->stop_flag = cell->stop_flag;
    z->exited = exited;
    zombies_.push_back(std::move(z));
    // Fresh engine + context for the replacement (the zombie keeps its
    // instances; the replacement draws fresh ones from the topology).
    const Status st = build_cell_engine_ctx(worker_index, cell);
    if (!st.is_ok()) {
      QTLS_ERROR << "worker " << worker_index
                 << " quarantined but replacement engine failed: "
                 << st.to_string();
      cell->recovering = false;
      return out;
    }
  }

  const Status st = build_cell_worker(worker_index, cell, port_);
  if (!st.is_ok()) {
    QTLS_ERROR << "worker " << worker_index
               << " replacement failed to bind: " << st.to_string();
    cell->recovering = false;
    return out;
  }
  spawn_cell_thread(cell);
  ++cell->restarts;
  total_restarts_.fetch_add(1, std::memory_order_relaxed);
  cell->recovering = false;
  out.restarted = true;
  return out;
}

void WorkerPool::reap_zombies() {
  std::vector<std::unique_ptr<Zombie>> zombies;
  {
    std::lock_guard<std::mutex> lock(cells_mu_);
    zombies.swap(zombies_);
  }
  for (auto& z : zombies) {
    z->stop_flag->store(true, std::memory_order_release);
    // A quarantined thread that has since unwedged exits at its next
    // predicate check; give it a short bounded chance, then leak the
    // zombie's state deliberately — blocking shutdown forever or freeing
    // memory under a running thread are both worse than a bounded leak.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (!z->exited->load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (z->exited->load(std::memory_order_acquire)) {
      if (z->thread.joinable()) z->thread.join();
      continue;  // unique_ptrs clean up normally
    }
    QTLS_ERROR << "zombie worker still wedged at shutdown; leaking its state";
    if (z->thread.joinable()) z->thread.detach();
    (void)z->worker.release();
    (void)z->engine.release();
    (void)z->ctx.release();
    (void)z->remote.release();
    for (auto& r : z->retired_remotes) (void)r.release();
  }
}

// ------------------------------------------------ control-plane views ----

// Runs ON the worker's own thread (the reload apply step), so swapping the
// engine's backend pointer is race-free with the submit path. The old
// channel is retired, not destroyed: a late response for an op submitted
// pre-reload resolves through the engine's deadline sweep instead of
// touching freed state.
void WorkerPool::rebind_remote(Cell* cell, const RemoteOffloadSettings& ro) {
  std::lock_guard<std::mutex> lock(cells_mu_);
  // A quarantined zombie that unwedges mid-apply must not touch the
  // replacement worker's channel: only the thread currently bound to the
  // cell may rebind.
  if (std::this_thread::get_id() != cell->thread.get_id()) return;
  if (remote_settings_equal(cell->remote_settings, ro)) return;
  if (cell->remote) {
    cell->engine->set_remote_backend(nullptr);
    cell->retired_remotes.push_back(std::move(cell->remote));
  }
  if (ro.enabled && ro.port != 0) {
    cell->remote = dial_remote(ro);
    if (cell->remote) cell->engine->set_remote_backend(cell->remote.get());
  }
  cell->remote_settings = ro;
  QTLS_INFO << "reload: remote offload tier re-bound (enabled="
            << (ro.enabled ? "yes" : "no") << " port=" << ro.port << ")";
}

std::vector<WorkerHeartbeatView> WorkerPool::heartbeats() const {
  std::vector<WorkerHeartbeatView> out;
  std::lock_guard<std::mutex> lock(cells_mu_);
  out.reserve(cells_.size());
  for (const auto& cell : cells_) {
    WorkerHeartbeatView v;
    v.recovering = cell->recovering || !cell->worker;
    if (cell->worker) {
      const WorkerHeartbeat& hb = cell->worker->heartbeat();
      v.iterations = hb.iterations.load(std::memory_order_relaxed);
      v.progress = hb.progress.load(std::memory_order_relaxed);
      v.stamp_ms = hb.stamp_ms.load(std::memory_order_relaxed);
      v.phase = hb.phase.load(std::memory_order_relaxed);
      v.draining = cell->worker->draining();
      v.applied_generation = cell->worker->applied_generation();
    }
    out.push_back(v);
  }
  return out;
}

bool WorkerPool::any_draining() const {
  if (stopping_.load(std::memory_order_acquire)) return true;
  std::lock_guard<std::mutex> lock(cells_mu_);
  for (const auto& cell : cells_)
    if (cell->worker && cell->worker->draining()) return true;
  return false;
}

// "Fully degraded to software": every accelerated worker has all of its
// op-class breakers open AND no usable remote tier (no channel, or the
// remote breaker is open too) — the ladder has nothing left but inline
// software. Uses only atomic breaker reads; never touches the engine's
// worker-owned submit state.
bool WorkerPool::fully_degraded() const {
  std::lock_guard<std::mutex> lock(cells_mu_);
  bool any_engine = false;
  for (const auto& cell : cells_) {
    if (cell->recovering || !cell->worker || !cell->engine) continue;
    any_engine = true;
    const auto* engine = cell->engine.get();
    for (int c = 0; c < qat::kNumOpClasses; ++c) {
      if (engine->breaker_state(static_cast<qat::OpClass>(c)) !=
          engine::BreakerState::kOpen)
        return false;
    }
    if (cell->remote &&
        engine->remote_breaker_state() != engine::BreakerState::kOpen)
      return false;
  }
  return any_engine;
}

// -------------------------------------------------------------- stats ----

WorkerPoolStats WorkerPool::stats() const {
  WorkerPoolStats out;
  std::lock_guard<std::mutex> lock(cells_mu_);
  for (const auto& cell : cells_) {
    if (!cell->worker) continue;  // slot mid-recovery
    const WorkerStats& s = cell->worker->stats();
    out.totals.accepted += s.accepted;
    out.totals.handshakes_completed += s.handshakes_completed;
    out.totals.resumed_handshakes += s.resumed_handshakes;
    out.totals.requests_served += s.requests_served;
    out.totals.closed += s.closed;
    out.totals.errors += s.errors;
    out.totals.disorder_events += s.disorder_events;
    out.totals.async_parks += s.async_parks;
    out.per_worker_handshakes.push_back(s.handshakes_completed);
  }
  if (session_plane_) {
    out.session_hits = session_plane_->cache().hits();
    out.session_misses = session_plane_->cache().misses();
    out.tickets_unsealed = session_plane_->tickets().unseal_ok();
  }
  out.worker_restarts = total_restarts_.load(std::memory_order_relaxed);
  return out;
}

std::string WorkerPool::stats_text() const {
  const WorkerPoolStats s = stats();
  std::ostringstream os;
  os << "pool: workers=" << cells_.size()
     << " handshakes=" << s.totals.handshakes_completed
     << " requests=" << s.totals.requests_served
     << " errors=" << s.totals.errors
     << " async_parks=" << s.totals.async_parks
     << " worker_restarts=" << s.worker_restarts << '\n';
  os << "session: hits=" << s.session_hits << " misses=" << s.session_misses
     << " tickets_unsealed=" << s.tickets_unsealed << '\n';
  os << "topology: " << topology_->stats_json() << '\n';
  os << obs::MetricsRegistry::global().snapshot().to_text();
  return os.str();
}

}  // namespace qtls::server
