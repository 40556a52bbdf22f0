// The evaluated system in virtual time: N event-driven workers (one core
// each), a QAT card, and closed-loop clients — parameterized over the five
// paper configurations (SW / QAT+S / QAT+A / QAT+AH / QTLS), the TLS
// workload (suite, version, resumption mix, transfer size) and the polling/
// notification schemes. Every figure bench is a sweep over RunParams.
#pragma once

#include <memory>
#include <optional>

#include "common/stats.h"
#include "server/heuristic_poller.h"
#include "sim/qat_sim.h"
#include "tls/types.h"

namespace qtls::sim {

enum class Config { kSW, kQatS, kQatA, kQatAH, kQtls };
const char* config_name(Config c);

enum class PollMode { kBusy, kTimer, kHeuristic };
enum class NotifyMode { kFd, kKernelBypass };

struct RunParams {
  Config config = Config::kSW;
  int workers = 8;
  int clients = 2000;

  tls::CipherSuite suite = tls::CipherSuite::kTlsRsaWithAes128CbcSha;
  qtls::CurveId curve = qtls::CurveId::kP256;
  // Fraction of connections doing a full handshake (rest abbreviated).
  double full_handshake_ratio = 1.0;

  // Transfer mode (Fig. 10/12b): persistent connections, repeated GETs of a
  // fixed object; CPS mode otherwise (one handshake per connection).
  bool transfer_mode = false;
  size_t file_bytes = 64 * 1024;
  // CPS mode: also serve one small page per connection (Fig. 11's
  // full-handshake-per-request latency workload).
  bool include_request = false;

  // Overrides for the §5.6 polling-scheme comparison; by default derived
  // from `config`.
  std::optional<PollMode> poll_override;
  std::optional<NotifyMode> notify_override;
  SimTime timer_interval = 10 * kUs;
  // QAT+S: busy-loop self-poll (Fig. 11) instead of the timer-quantum wait.
  bool sync_busy_poll = false;

  server::HeuristicPollerConfig heuristic;  // thresholds 48/24
  int endpoints = 3;
  int engines_per_endpoint = 12;
  size_t ring_capacity = 64;

  CostModel costs;
  SimTime warmup = 200 * kMs;
  SimTime duration = 2 * kSec;
  uint64_t seed = 42;
};

struct RunResult {
  double cps = 0;               // completed handshakes per second
  double requests_per_sec = 0;
  double throughput_gbps = 0;   // payload goodput
  LatencyHistogram latency;     // CPS mode: connect->response; transfer:
                                // request->response
  uint64_t handshakes = 0;
  uint64_t abbreviated = 0;
  uint64_t submit_retries = 0;  // ring-full retry events
  // TX data-plane copy meter (DESIGN.md §11): payload bytes memcpy'd vs
  // handed to the NIC inside the measurement window.
  uint64_t bytes_copied = 0;
  uint64_t bytes_sent = 0;
  double bytes_copied_per_byte = 0;
  double cpu_utilization = 0;   // mean worker-core busy fraction
  uint64_t heuristic_polls = 0;
  uint64_t timeliness_triggers = 0;
  uint64_t efficiency_triggers = 0;
};

RunResult run_simulation(const RunParams& params);

// Resolved scheme knobs for a configuration (exposed for tests).
struct ConfigKnobs {
  bool offload = false;
  bool async = false;          // QTLS framework vs straight blocking
  PollMode poll = PollMode::kBusy;
  NotifyMode notify = NotifyMode::kFd;
};
ConfigKnobs resolve_config(const RunParams& params);

}  // namespace qtls::sim
