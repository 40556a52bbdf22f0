// Multi-worker deployment — the paper's §5.1 setup in one process: N
// workers, each on its own thread with its own event loop, TLS context and
// QAT instances drawn from a device topology (one card is a topology of
// one), all accepting from the same port via SO_REUSEPORT, the way
// multi-process Nginx shares a listener.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "remote/channel.h"
#include "server/ssl_engine_conf.h"
#include "server/worker.h"

namespace qtls::server {

struct WorkerPoolOptions {
  int workers = 2;
  WorkerConfig worker_config;
  // Template for each worker's TLS context (each worker gets its own copy:
  // contexts are single-threaded like per-process Nginx state).
  tls::TlsContextConfig tls_config;
  engine::QatEngineConfig engine_config;
  // Instances assigned per worker (paper: one each; §2.3 allows more).
  int instances_per_worker = 1;
  // Remote offload tier (DESIGN.md §13): when enabled each worker dials
  // the offload server and slots the channel between its QAT lanes and
  // inline software. A failed dial logs and degrades to the two-tier
  // ladder rather than failing pool start.
  RemoteOffloadSettings remote;
  // The shape and seed of the pool's one resumption plane (DESIGN.md §9).
  tls::SessionPlaneConfig session;
};

// The conf-to-pool mapping, the one place each conf setting lands on a
// pool: worker count, engine, remote tier, session plane, the async switch
// and the worker fields the conf names. The caller adds what the conf does
// not say (cipher suites, the response body size, the control pointer) and
// builds its qat::DeviceTopology from `settings.topology`.
WorkerPoolOptions pool_options_from(const SslEngineSettings& settings);

struct WorkerPoolStats {
  WorkerStats totals;
  std::vector<uint64_t> per_worker_handshakes;
  // Shared resumption plane (one cache/ring for the whole pool).
  uint64_t session_hits = 0;
  uint64_t session_misses = 0;
  uint64_t tickets_unsealed = 0;
  // Watchdog recoveries executed over the pool's lifetime (DESIGN.md §15).
  uint64_t worker_restarts = 0;
};

// Snapshot of one worker's heartbeat as the supervisor scores it.
struct WorkerHeartbeatView {
  uint64_t iterations = 0;
  uint64_t progress = 0;
  uint64_t stamp_ms = 0;
  uint8_t phase = 0;
  bool draining = false;
  bool recovering = false;  // mid-replacement; exempt from wedge scoring
  uint64_t applied_generation = 0;
};

// What recover_worker accomplished.
struct RecoverOutcome {
  bool restarted = false;  // a replacement worker is accepting again
  bool joined = false;     // the old thread exited and was joined (vs zombie)
  size_t reaped = 0;       // connections + parked accepts reclaimed
};

class WorkerPool {
 public:
  // Workers draw their instances from the topology (DESIGN.md §12) on
  // their preferred device — the topology's worker_affinity map, else NUMA
  // striping — and each worker's engine runs one lane per device it
  // touches: a hot-removed device shifts that worker's load to its other
  // lanes. `topology` outlives the pool; credentials are shared const state.
  WorkerPool(qat::DeviceTopology* topology, const RsaPrivateKey* rsa_key,
             WorkerPoolOptions options);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Binds all workers to the same port (0 = ephemeral: the first worker
  // picks, the rest join it) and starts the worker threads.
  Status start(uint16_t port);
  void stop();

  // Graceful drain (DESIGN.md §10): every worker stops accepting, finishes
  // in-flight handshakes and keepalive requests, and force-closes whatever
  // is still alive `deadline_ms` after the drain begins. Blocks until all
  // worker threads have exited (bounded by the deadline plus one loop
  // iteration). Safe to call once; stop() afterwards is a no-op.
  void shutdown(uint64_t deadline_ms);

  uint16_t port() const { return port_; }
  int workers() const { return static_cast<int>(cells_.size()); }
  WorkerPoolStats stats() const;
  qat::DeviceTopology* topology() const { return topology_; }
  // Per-worker engine/worker handles (bench + test instrumentation).
  Worker* worker(int i) { return cells_[static_cast<size_t>(i)]->worker.get(); }
  engine::QatEngineProvider* engine(int i) {
    return cells_[static_cast<size_t>(i)]->engine.get();
  }

  // The pool-wide resumption plane every worker's context points at; a
  // session established on any worker resumes on any other.
  tls::SessionPlane& session_plane() { return *session_plane_; }
  const tls::SessionPlane& session_plane() const { return *session_plane_; }

  // Human-readable dump: pool totals, the topology, then the global
  // metrics registry (per-stage histograms and the copy meter).
  std::string stats_text() const;

  // --- control-plane views (DESIGN.md §15) ------------------------------
  // One heartbeat snapshot per worker slot, in slot order.
  std::vector<WorkerHeartbeatView> heartbeats() const;
  // Readiness inputs: any worker draining (or the pool stopping), and
  // whether the offload ladder has fully degraded to inline software on
  // every accelerated worker (all op-class breakers open AND no usable
  // remote tier). Software-only pools are never "degraded".
  bool any_draining() const;
  bool fully_degraded() const;

  // Crash-only recovery of worker slot `i` (the supervisor's arm): request
  // eject, wait up to `grace_ms` (wall clock) for the thread to come back,
  // then either join + destroy the worker — the destructor IS the reap:
  // paused offload jobs drain and every slab-backed connection returns to
  // its pool — or quarantine the wedged thread's whole cell as a zombie
  // (listener share darkened via dup2(/dev/null) so the kernel stops
  // handing it connections) and respawn a fresh worker on the same session
  // plane, port and topology lanes either way.
  RecoverOutcome recover_worker(int worker_index, uint64_t grace_ms);
  uint64_t total_worker_restarts() const {
    return total_restarts_.load(std::memory_order_relaxed);
  }

 private:
  struct Cell {
    std::unique_ptr<engine::QatEngineProvider> engine;
    // Remote tier channel (DESIGN.md §13); null when disabled or the dial
    // failed. Owned here so it outlives the engine that points at it.
    std::unique_ptr<remote::RemoteChannel> remote;
    // Channels retired by a reload rebind: kept alive (not destroyed) so a
    // late response for an op submitted pre-reload never touches freed
    // state; the engine's deadline sweep resolves those ops.
    std::vector<std::unique_ptr<remote::RemoteChannel>> retired_remotes;
    RemoteOffloadSettings remote_settings;  // what `remote` was dialed with
    std::unique_ptr<tls::TlsContext> ctx;
    std::unique_ptr<Worker> worker;
    std::thread thread;
    // Shared with the worker thread's lambda (never `this`, never the
    // Cell): a quarantined zombie thread can outlive both.
    std::shared_ptr<std::atomic<bool>> stop_flag;
    std::shared_ptr<std::atomic<bool>> exited;
    bool recovering = false;  // guarded by cells_mu_
    uint64_t restarts = 0;
  };

  // A wedged worker thread that missed its eject grace: its state is
  // quarantined (kept alive, listener darkened), never freed under it.
  struct Zombie {
    std::unique_ptr<Worker> worker;
    std::unique_ptr<engine::QatEngineProvider> engine;
    std::unique_ptr<tls::TlsContext> ctx;
    std::unique_ptr<remote::RemoteChannel> remote;
    std::vector<std::unique_ptr<remote::RemoteChannel>> retired_remotes;
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> stop_flag;
    std::shared_ptr<std::atomic<bool>> exited;
  };

  Status build_cell_engine_ctx(int index, Cell* cell);
  Status build_cell_worker(int index, Cell* cell, uint16_t port);
  void spawn_cell_thread(Cell* cell);
  void rebind_remote(Cell* cell, const RemoteOffloadSettings& ro);
  void reap_zombies();

  qat::DeviceTopology* topology_;
  const RsaPrivateKey* rsa_key_;
  WorkerPoolOptions options_;
  std::unique_ptr<tls::SessionPlane> session_plane_;
  // Guards cells_ slot contents (worker/engine/remote swaps during
  // recovery and rebinds) and zombies_. Never held across a join or the
  // eject grace wait, so healthz-serving workers are never stalled into
  // looking wedged themselves.
  mutable std::mutex cells_mu_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::vector<std::unique_ptr<Zombie>> zombies_;  // guarded by cells_mu_
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> total_restarts_{0};
  bool started_ = false;
  uint16_t port_ = 0;
};

}  // namespace qtls::server
