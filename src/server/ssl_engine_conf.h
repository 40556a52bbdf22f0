// The SSL Engine Framework of the paper's Appendix A.7: accelerator
// behaviour configured directly from an nginx-style conf file. Each key
// has one type from parse to use; server::pool_options_from() maps the
// parsed settings onto a WorkerPool, and the comment beside each key names
// where it lands (W = WorkerConfig, E = engine::QatEngineConfig, P =
// WorkerPoolOptions, T = qat::TopologyConfig).
//
//   worker_processes 8;                    # P.workers
//   ssl_engine {
//       use qat_engine;                    # checked: the only engine
//       default_algorithm RSA,EC,DH,PKEY_CRYPTO;
//                                          # E.offload_{rsa,ec,prf,cipher}
//       qat_engine {
//           qat_offload_mode async;        # E.offload_mode and
//                                          # TlsContextConfig::async_mode
//           qat_notify_mode poll;          # W.notify: poll | fd
//           qat_poll_mode heuristic;       # W.poll: heuristic | timer |
//                                          # inline (inline needs sync)
//           qat_timer_poll_interval 10;    # W.timer_interval, microseconds:
//                                          # the period of the worker's tick
//           qat_heuristic_poll_asym_threshold 48;  # W.heuristic
//           qat_heuristic_poll_sym_threshold 24;   # W.heuristic
//       }
//       qat_topology {                     # T, the DeviceTopology (DESIGN §12)
//           devices 4;                     # T.num_devices
//           numa_nodes 2;                  # T.numa_nodes: device i sits on
//                                          # node i % nodes
//           spill_threshold 32;            # T.spill_threshold
//           worker_affinity 0,1,0,1;       # T.worker_affinity: explicit
//       }                                  # worker->device map (overrides
//                                          # NUMA striping)
//       remote_offload {                   # P.remote: each worker's channel
//           enable on;                     # QAT -> remote -> software ladder
//           host 127.0.0.1;                # the dial: an IPv4 literal
//           port 7433;                     # the dial
//           max_batch 32;                  # RemoteChannelConfig: ops per frame
//           coalesce_window_us 50;         # RemoteChannelConfig: flush bound
//           op_deadline_us 20000;          # E.remote_op_deadline_us
//           breaker_threshold 4;           # E.remote_breaker_threshold
//           breaker_cooldown_ms 200;       # E.remote_breaker_cooldown_ms
//       }
//   }
//   session_cache {                        # P.session: the pool's one
//       shards 16;                         # SessionPlane, kept as is across
//       capacity 10000;                    # reloads (a reshape needs a
//       lifetime_ms 3600000;               # restart)
//       ticket_rotate_interval_ms 900000;  # ticket-key epoch length
//       ticket_accept_epochs 1;            # current + N previous keys
//   }
//   overload {                             # W.overload (reloadable)
//       handshake_timeout_ms 5000;         # accept -> handshake complete
//       idle_timeout_ms 30000;             # keepalive / request trickle
//       write_stall_timeout_ms 10000;      # slowloris response readers
//       max_handshaking 256;               # admission cap per worker
//       max_async_inflight 1024;           # in-flight engine ops per worker
//       past_cap shed;                     # shed | park
//       park_backlog 64;                   # bounded accept backlog (park)
//       max_header_bytes 8192;             # W.http_limits (431 past them)
//       max_header_count 100;              # W.http_limits
//   }
//   http {
//       file_root /srv/www;                # W.file_root (DESIGN.md §11);
//   }                                      # empty = the synthetic object
//   control {                              # ControlPlane (DESIGN §15)
//       heartbeat_interval_ms 100;         # supervision window
//       missed_windows 5;                  # frozen windows before "wedged"
//       eject_grace_ms 500;                # wait for an ejected thread
//       supervise on;                      # run the supervisor thread
//   }
//   credentials {                          # ControlPlane's resolver ->
//       rsa 2048;                          # TlsContext::set_credentials
//   }                                      # (2048 | 1024; reload swaps key)
#pragma once

#include <chrono>
#include <string>

#include "common/conf.h"
#include "engine/qat_engine.h"
#include "qat/topology.h"
#include "server/heuristic_poller.h"
#include "server/http.h"
#include "server/overload.h"
#include "tls/session_plane.h"

namespace qtls::server {

enum class NotifyScheme : uint8_t {
  kKernelBypass,  // application-defined async queue (§3.4) — "poll"
  kFd,            // eventfd through the I/O multiplexer
};

enum class PollScheme : uint8_t {
  kHeuristic,  // §4.3
  kTimer,      // a periodic tick in the worker's loop (§3.3)
  kInline,     // blocking self-poll (straight offload / QAT+S)
};

// The remote_offload{} block: the disaggregated offload tier (DESIGN.md
// §13). When enabled, each worker dials the offload server and slots the
// channel between the QAT lanes and inline software in the fallback
// ladder. Deadline/breaker knobs land in QatEngineConfig.remote_* since
// the engine owns that policy.
struct RemoteOffloadSettings {
  bool enabled = false;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t max_batch = 32;
  uint64_t coalesce_window_us = 50;
};

// The control{} block: the self-healing control plane (DESIGN.md §15).
// heartbeat_interval_ms is the supervision window; a worker whose loop
// iteration AND progress counters are both frozen for missed_windows
// consecutive windows is wedged and crash-only recovered. eject_grace_ms
// bounds how long the supervisor waits for an ejected worker thread to exit
// before abandoning it to quarantine.
struct ControlSettings {
  uint64_t heartbeat_interval_ms = 100;
  int missed_windows = 5;
  uint64_t eject_grace_ms = 500;
  bool supervise = true;
};

struct SslEngineSettings {
  int worker_processes = 1;
  engine::QatEngineConfig engine;
  // Multi-device topology (qat_topology{} block; DESIGN.md §12): the
  // caller builds its qat::DeviceTopology from this.
  qat::TopologyConfig topology;
  // Remote offload tier (remote_offload{} block; DESIGN.md §13).
  RemoteOffloadSettings remote;
  NotifyScheme notify = NotifyScheme::kKernelBypass;
  PollScheme poll = PollScheme::kHeuristic;
  std::chrono::microseconds timer_interval{10};  // kTimer's tick period
  HeuristicPollerConfig heuristic;
  // The shared resumption plane (session_cache{} block).
  tls::SessionPlaneConfig session;
  // Overload-control plane (overload{} block; DESIGN.md §10).
  OverloadConfig overload;
  HttpLimits http_limits;
  // Static-file root (http{} block; DESIGN.md §11). Empty = disabled.
  std::string file_root;
  // Self-healing control plane (control{} block; DESIGN.md §15).
  ControlSettings control;
};

// Parses the root config block (worker_processes + ssl_engine{} +
// session_cache{}).
Result<SslEngineSettings> parse_ssl_engine_settings(const ConfBlock& root);
Result<SslEngineSettings> parse_ssl_engine_settings(const std::string& text);

}  // namespace qtls::server
