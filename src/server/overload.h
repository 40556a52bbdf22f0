// Overload-control plane configuration and accounting (DESIGN.md §10).
//
// The paper's async offload keeps cores busy exactly when the front-end is
// most fragile (thousands of in-flight handshakes, hostile peers); this
// block gives the server-side the missing counterpart of PR 2's QAT-side
// fault plan: per-connection deadlines, admission control and load
// shedding, and graceful drain. Lives in its own header so both the conf
// parser and the worker can see it without a circular include.
#pragma once

#include <cstddef>
#include <cstdint>

namespace qtls::server {

struct OverloadConfig {
  // Per-connection deadlines, armed on the event loop's timer wheel
  // (0 = disabled).
  uint64_t handshake_timeout_ms = 0;   // accept -> handshake complete
  uint64_t idle_timeout_ms = 0;        // keepalive wait / request trickle
  uint64_t write_stall_timeout_ms = 0; // peer draining our response at 1 B/s

  // Admission control (0 = unlimited).
  size_t max_handshaking = 0;     // concurrent incomplete handshakes
  size_t max_async_inflight = 0;  // in-flight engine ops per worker

  // Past the cap: shed (clean pre-handshake close) or park (bounded accept
  // backlog, admitted as capacity frees).
  enum class PastCap : uint8_t { kShed, kPark };
  PastCap past_cap = PastCap::kShed;
  size_t park_backlog = 64;
};

// Per-worker overload accounting, served in the GET /stats "overload"
// object.
struct OverloadStats {
  uint64_t shed = 0;                 // closed pre-handshake at the cap
  uint64_t parked = 0;               // queued in the accept backlog
  uint64_t park_overflow = 0;        // backlog full -> shed instead
  uint64_t admitted_from_park = 0;
  uint64_t handshake_timeouts = 0;
  uint64_t park_timeouts = 0;        // parked accepts aged out of the backlog
  uint64_t idle_timeouts = 0;
  uint64_t write_stall_timeouts = 0;
  uint64_t drain_refused = 0;        // accepts refused while draining
  uint64_t drain_force_closed = 0;   // still alive at the drain deadline
};

}  // namespace qtls::server
