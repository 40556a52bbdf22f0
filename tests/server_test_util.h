// Harness that co-schedules one Worker and a set of cooperative HTTPS
// clients in a single thread, connected over AF_UNIX socketpairs (real fds,
// real epoll — no network dependency).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "client/https_client.h"
#include "server/worker.h"

namespace qtls::server::testutil {

// One of the paper's async configurations: how the worker learns of a
// response and what retrieves it.
struct AsyncConfig {
  const char* name;
  NotifyScheme notify;
  PollScheme poll;
};

inline void PrintTo(const AsyncConfig& config, std::ostream* os) {
  *os << config.name;
}

inline constexpr AsyncConfig kQatA{"QatA", NotifyScheme::kFd,
                                   PollScheme::kTimer};
inline constexpr AsyncConfig kQatAh{"QatAh", NotifyScheme::kFd,
                                    PollScheme::kHeuristic};
inline constexpr AsyncConfig kQtls{"Qtls", NotifyScheme::kKernelBypass,
                                   PollScheme::kHeuristic};

inline client::ConnectFn socketpair_connector(Worker* worker) {
  return [worker]() -> int {
    auto pair = net::make_socketpair();
    if (!pair.is_ok()) return -1;
    if (!worker->adopt(pair.value().second).is_ok()) {
      ::close(pair.value().first);
      return -1;
    }
    return pair.value().first;
  };
}

// Runs until every client finished and the worker is quiescent, or the wall
// deadline passes. Returns true when both hold. Quiescent means no
// connection is parked on an offload: a client is done once it has sent its
// close_notify, but the server's decrypt of that record is itself an async
// offload that can still be on the device. `timeout_ms` is each pass's
// epoll budget: 0 polls, anything else lets the worker sleep while its ops
// are on the device.
inline bool run_to_completion(Worker* worker, client::Pool* pool,
                              int deadline_seconds = 60, int timeout_ms = 0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(deadline_seconds);
  for (;;) {
    bool any_active = false;
    for (auto& c : pool->clients()) {
      if (c->step()) any_active = true;
    }
    worker->run_once(timeout_ms);
    if (!any_active && worker->pending_async_connections() == 0) return true;
    if (std::chrono::steady_clock::now() > deadline) return false;
  }
}

// The unsigned number after `"key":` in the `"object":{...}` member of a
// GET /stats body: the first such key after the object opens. -1 when the
// object or the key is absent.
inline int64_t stats_field(const std::string& json, const std::string& object,
                           const std::string& key) {
  const size_t obj = json.find("\"" + object + "\":{");
  if (obj == std::string::npos) return -1;
  const size_t at = json.find("\"" + key + "\":", obj);
  if (at == std::string::npos) return -1;
  return std::stoll(json.substr(at + key.size() + 3));
}

}  // namespace qtls::server::testutil
