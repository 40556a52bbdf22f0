// The heuristic polling scheme (paper §3.3/§4.3), verbatim logic:
//
//  Efficiency: coalesce responses — poll when the number of inflight
//  requests R_total reaches a threshold; a larger threshold (default 48)
//  applies while any asymmetric op is in flight (they take much longer),
//  else the smaller one (default 24).
//
//  Timeliness: each active TLS connection has at most one async crypto op
//  in flight, so when R_total == TC_active every active connection is
//  stalled on the accelerator — poll immediately or the event loop would
//  have nothing left to do.
//
//  Failover: if no heuristic poll triggered within an interval while
//  requests are in flight, force one (paper §4.3's 5 ms timer). The
//  interval starts when ops go in flight, not at the last poll before.
//
//  Wake: the loop has nothing left to do but ops are in flight, so it arms
//  the engine's wakeup and sleeps in epoll (DESIGN.md §5). The engine's
//  eventfd firing during that sleep polls (wake trigger); a response that
//  is already waiting when the loop arms is polled at once (ready trigger).
#pragma once

#include <cstdint>

#include "engine/qat_engine.h"

namespace qtls::server {

struct HeuristicPollerConfig {
  size_t asym_threshold = 48;   // qat_heuristic_poll_asym_threshold
  size_t sym_threshold = 24;    // qat_heuristic_poll_sym_threshold
  uint64_t failover_interval_ms = 5;
};

struct HeuristicPollerStats {
  uint64_t polls = 0;
  uint64_t retrieved = 0;
  uint64_t max_batch = 0;  // largest single-trigger retrieval (coalescing)
  uint64_t efficiency_triggers = 0;
  uint64_t timeliness_triggers = 0;
  uint64_t failover_triggers = 0;
  uint64_t wake_triggers = 0;   // the engine's eventfd fired during a sleep
  uint64_t ready_triggers = 0;  // a response waited when the loop armed
};

class HeuristicPoller {
 public:
  HeuristicPoller(engine::QatEngineProvider* engine,
                  HeuristicPollerConfig config = {})
      : engine_(engine), config_(config) {}

  // Called wherever a crypto op may have been submitted or TC_active may
  // have changed (§4.3). `active_tls_connections` is TC_active =
  // TC_alive - TC_idle. Returns the number of responses retrieved.
  size_t maybe_poll(size_t active_tls_connections, uint64_t now_ms) {
    const size_t total = engine_->inflight_total();
    if (total == 0) return 0;

    const bool asym_inflight = engine_->inflight(qat::OpClass::kAsym) > 0;
    const size_t threshold =
        asym_inflight ? config_.asym_threshold : config_.sym_threshold;

    if (total >= threshold) {
      ++stats_.efficiency_triggers;
      return do_poll(now_ms);
    }
    if (active_tls_connections > 0 && total >= active_tls_connections) {
      ++stats_.timeliness_triggers;
      return do_poll(now_ms);
    }
    return 0;
  }

  // Failover check, called from a coarse timer (§4.3). The first check
  // that finds ops in flight after none were starts the interval.
  size_t failover_poll(uint64_t now_ms) {
    if (engine_->inflight_total() == 0) {
      in_flight_ = false;
      return 0;
    }
    if (!in_flight_) {
      in_flight_ = true;
      last_poll_ms_ = now_ms;
    }
    if (now_ms - last_poll_ms_ < config_.failover_interval_ms) return 0;
    ++stats_.failover_triggers;
    return do_poll(now_ms);
  }

  // The loop is about to block with ops in flight and nothing queued: arm
  // the engine's wakeup. True = sleep until its eventfd (or a socket, a
  // timer, the failover bound) fires. False = do not sleep: a response
  // already waits (polled here) or a remote hop needs the poll cadence.
  bool arm_or_poll(uint64_t now_ms) {
    if (engine_->arm_wakeup()) return true;
    if (engine_->remote_hops() == 0) {
      ++stats_.ready_triggers;
      (void)do_poll(now_ms);
    }
    return false;
  }

  // The engine's eventfd fired while the loop slept.
  size_t wake_poll(uint64_t now_ms) {
    ++stats_.wake_triggers;
    return do_poll(now_ms);
  }

  const HeuristicPollerStats& stats() const { return stats_; }
  const HeuristicPollerConfig& config() const { return config_; }

 private:
  size_t do_poll(uint64_t now_ms) {
    // One trigger = one batched pass over all of the engine's instances;
    // every ready response comes back in this single call (the coalescing
    // §3.3 argues for), wait-free on the response-ring consumer side.
    ++stats_.polls;
    const size_t got = engine_->poll();
    stats_.retrieved += got;
    if (got > stats_.max_batch) stats_.max_batch = got;
    last_poll_ms_ = now_ms;
    return got;
  }

  engine::QatEngineProvider* engine_;
  HeuristicPollerConfig config_;
  HeuristicPollerStats stats_;
  uint64_t last_poll_ms_ = 0;  // last poll, or when ops went in flight
  bool in_flight_ = false;     // the last failover check found ops
};

}  // namespace qtls::server
