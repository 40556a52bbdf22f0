#include "server/ssl_engine_conf.h"

#include <arpa/inet.h>

#include <algorithm>
#include <cstdlib>

namespace qtls::server {

namespace {
bool has_algorithm(const std::vector<std::string>& algs,
                   const std::string& name) {
  return std::find(algs.begin(), algs.end(), name) != algs.end();
}
}  // namespace

Result<SslEngineSettings> parse_ssl_engine_settings(const ConfBlock& root) {
  SslEngineSettings out;
  out.worker_processes =
      static_cast<int>(root.get_int("worker_processes", 1));
  if (out.worker_processes < 1)
    return err(Code::kInvalidArgument, "worker_processes must be >= 1");

  // session_cache{} shapes the shared resumption plane; parsed before the
  // ssl_engine block so a software-only configuration still gets it.
  if (const ConfBlock* sc = root.find_block("session_cache")) {
    const int64_t shards = sc->get_int(
        "shards", static_cast<int64_t>(out.session.cache_shards));
    if (shards < 1 || shards > 4096)
      return err(Code::kInvalidArgument, "session_cache shards out of range");
    out.session.cache_shards = static_cast<size_t>(shards);
    const int64_t capacity = sc->get_int(
        "capacity", static_cast<int64_t>(out.session.cache_capacity));
    if (capacity < 0)
      return err(Code::kInvalidArgument, "session_cache capacity < 0");
    out.session.cache_capacity = static_cast<size_t>(capacity);
    const int64_t lifetime = sc->get_int(
        "lifetime_ms", static_cast<int64_t>(out.session.lifetime_ms));
    if (lifetime < 1)
      return err(Code::kInvalidArgument, "session_cache lifetime_ms < 1");
    out.session.lifetime_ms = static_cast<uint64_t>(lifetime);
    const int64_t rotate = sc->get_int(
        "ticket_rotate_interval_ms",
        static_cast<int64_t>(out.session.ticket_rotate_interval_ms));
    if (rotate < 0)
      return err(Code::kInvalidArgument,
                 "session_cache ticket_rotate_interval_ms < 0");
    out.session.ticket_rotate_interval_ms = static_cast<uint64_t>(rotate);
    const int64_t accept = sc->get_int(
        "ticket_accept_epochs",
        static_cast<int64_t>(out.session.ticket_accept_epochs));
    if (accept < 0 || accept > 64)
      return err(Code::kInvalidArgument,
                 "session_cache ticket_accept_epochs out of range");
    out.session.ticket_accept_epochs = static_cast<uint32_t>(accept);
  }

  // overload{} shapes the server-side overload-control plane (DESIGN.md
  // §10); like session_cache{} it applies to software-only configs too.
  if (const ConfBlock* ov = root.find_block("overload")) {
    auto get_ms = [&](const char* key, uint64_t dflt,
                      uint64_t* out) -> Status {
      const int64_t v = ov->get_int(key, static_cast<int64_t>(dflt));
      if (v < 0)
        return err(Code::kInvalidArgument, std::string("overload ") + key +
                                               " must be >= 0");
      *out = static_cast<uint64_t>(v);
      return Status::ok();
    };
    QTLS_RETURN_IF_ERROR(get_ms("handshake_timeout_ms",
                                out.overload.handshake_timeout_ms,
                                &out.overload.handshake_timeout_ms));
    QTLS_RETURN_IF_ERROR(get_ms("idle_timeout_ms",
                                out.overload.idle_timeout_ms,
                                &out.overload.idle_timeout_ms));
    QTLS_RETURN_IF_ERROR(get_ms("write_stall_timeout_ms",
                                out.overload.write_stall_timeout_ms,
                                &out.overload.write_stall_timeout_ms));

    const int64_t max_hs = ov->get_int(
        "max_handshaking", static_cast<int64_t>(out.overload.max_handshaking));
    if (max_hs < 0)
      return err(Code::kInvalidArgument, "overload max_handshaking < 0");
    out.overload.max_handshaking = static_cast<size_t>(max_hs);

    const int64_t max_async = ov->get_int(
        "max_async_inflight",
        static_cast<int64_t>(out.overload.max_async_inflight));
    if (max_async < 0)
      return err(Code::kInvalidArgument, "overload max_async_inflight < 0");
    out.overload.max_async_inflight = static_cast<size_t>(max_async);

    const std::string past_cap = ov->get_string("past_cap", "shed");
    if (past_cap == "shed") {
      out.overload.past_cap = OverloadConfig::PastCap::kShed;
    } else if (past_cap == "park") {
      out.overload.past_cap = OverloadConfig::PastCap::kPark;
    } else {
      return err(Code::kInvalidArgument, "bad overload past_cap: " + past_cap);
    }

    const int64_t backlog = ov->get_int(
        "park_backlog", static_cast<int64_t>(out.overload.park_backlog));
    if (backlog < 0)
      return err(Code::kInvalidArgument, "overload park_backlog < 0");
    out.overload.park_backlog = static_cast<size_t>(backlog);

    const int64_t hdr_bytes = ov->get_int(
        "max_header_bytes",
        static_cast<int64_t>(out.http_limits.max_header_bytes));
    if (hdr_bytes < 64)
      return err(Code::kInvalidArgument, "overload max_header_bytes < 64");
    out.http_limits.max_header_bytes = static_cast<size_t>(hdr_bytes);

    const int64_t hdr_count = ov->get_int(
        "max_header_count",
        static_cast<int64_t>(out.http_limits.max_header_count));
    if (hdr_count < 1)
      return err(Code::kInvalidArgument, "overload max_header_count < 1");
    out.http_limits.max_header_count = static_cast<size_t>(hdr_count);
  }

  // http{}: static-file streaming root (DESIGN.md §11).
  if (const ConfBlock* http = root.find_block("http"))
    out.file_root = http->get_string("file_root", "");

  // control{}: the self-healing control plane (DESIGN.md §15).
  if (const ConfBlock* ctl = root.find_block("control")) {
    const int64_t window = ctl->get_int(
        "heartbeat_interval_ms",
        static_cast<int64_t>(out.control.heartbeat_interval_ms));
    if (window < 1)
      return err(Code::kInvalidArgument, "control heartbeat_interval_ms < 1");
    out.control.heartbeat_interval_ms = static_cast<uint64_t>(window);

    const int64_t missed = ctl->get_int(
        "missed_windows", static_cast<int64_t>(out.control.missed_windows));
    if (missed < 1 || missed > 1000)
      return err(Code::kInvalidArgument,
                 "control missed_windows out of range");
    out.control.missed_windows = static_cast<int>(missed);

    const int64_t grace = ctl->get_int(
        "eject_grace_ms", static_cast<int64_t>(out.control.eject_grace_ms));
    if (grace < 0)
      return err(Code::kInvalidArgument, "control eject_grace_ms < 0");
    out.control.eject_grace_ms = static_cast<uint64_t>(grace);

    const std::string supervise = ctl->get_string("supervise", "on");
    if (supervise == "on") {
      out.control.supervise = true;
    } else if (supervise == "off") {
      out.control.supervise = false;
    } else {
      return err(Code::kInvalidArgument,
                 "bad control supervise: " + supervise);
    }
  }

  const ConfBlock* engine_block = root.find_block("ssl_engine");
  if (!engine_block) return out;  // software-only configuration

  const std::string use = engine_block->get_string("use");
  if (use != "qat_engine" && !use.empty())
    return err(Code::kInvalidArgument, "unknown engine: " + use);

  const auto algs = engine_block->get_list("default_algorithm");
  if (!algs.empty()) {
    out.engine.offload_rsa = has_algorithm(algs, "RSA");
    out.engine.offload_ec =
        has_algorithm(algs, "EC") || has_algorithm(algs, "DH");
    out.engine.offload_prf =
        has_algorithm(algs, "PRF") || has_algorithm(algs, "PKEY_CRYPTO");
    out.engine.offload_cipher = has_algorithm(algs, "CIPHER") ||
                                has_algorithm(algs, "PKEY_CRYPTO");
  }

  // qat_topology{}: the multi-device fleet shape (DESIGN.md §12).
  if (const ConfBlock* topo = engine_block->find_block("qat_topology")) {
    const int64_t devices = topo->get_int("devices", 1);
    if (devices < 1 || devices > 64)
      return err(Code::kInvalidArgument, "qat_topology devices out of range");
    out.topology.num_devices = static_cast<int>(devices);

    const int64_t nodes = topo->get_int("numa_nodes", 1);
    if (nodes < 1 || nodes > 16)
      return err(Code::kInvalidArgument,
                 "qat_topology numa_nodes out of range");
    out.topology.numa_nodes = static_cast<int>(nodes);

    const int64_t spill = topo->get_int(
        "spill_threshold", static_cast<int64_t>(out.topology.spill_threshold));
    if (spill < 0)
      return err(Code::kInvalidArgument, "qat_topology spill_threshold < 0");
    out.topology.spill_threshold = static_cast<size_t>(spill);

    for (const std::string& tok : topo->get_list("worker_affinity")) {
      char* end = nullptr;
      const long dev = std::strtol(tok.c_str(), &end, 10);
      if (!end || *end != '\0' || dev < 0 || dev >= out.topology.num_devices)
        return err(Code::kInvalidArgument,
                   "qat_topology worker_affinity entry out of range: " + tok);
      out.topology.worker_affinity.push_back(static_cast<int>(dev));
    }
  }

  // remote_offload{}: the disaggregated tier (DESIGN.md §13). Parsed before
  // the qat_engine{} early return so a remote-augmented software config is
  // still expressible.
  if (const ConfBlock* ro = engine_block->find_block("remote_offload")) {
    const std::string enable = ro->get_string("enable", "off");
    if (enable == "on") {
      out.remote.enabled = true;
    } else if (enable != "off") {
      return err(Code::kInvalidArgument,
                 "bad remote_offload enable: " + enable);
    }

    // The dial takes an IPv4 literal; a name would need a resolver.
    out.remote.host = ro->get_string("host", out.remote.host);
    in_addr addr{};
    if (::inet_pton(AF_INET, out.remote.host.c_str(), &addr) != 1)
      return err(Code::kInvalidArgument,
                 "remote_offload host is not an IPv4 literal: " +
                     out.remote.host);

    const int64_t port = ro->get_int("port", 0);
    if (port < 0 || port > 65535)
      return err(Code::kInvalidArgument, "remote_offload port out of range");
    out.remote.port = static_cast<uint16_t>(port);
    if (out.remote.enabled && out.remote.port == 0)
      return err(Code::kInvalidArgument,
                 "remote_offload enabled without a port");

    const int64_t batch = ro->get_int(
        "max_batch", static_cast<int64_t>(out.remote.max_batch));
    if (batch < 1 || batch > 1024)
      return err(Code::kInvalidArgument,
                 "remote_offload max_batch out of range");
    out.remote.max_batch = static_cast<size_t>(batch);

    const int64_t window = ro->get_int(
        "coalesce_window_us",
        static_cast<int64_t>(out.remote.coalesce_window_us));
    if (window < 0)
      return err(Code::kInvalidArgument,
                 "remote_offload coalesce_window_us < 0");
    out.remote.coalesce_window_us = static_cast<uint64_t>(window);

    const int64_t deadline = ro->get_int(
        "op_deadline_us",
        static_cast<int64_t>(out.engine.remote_op_deadline_us));
    if (deadline < 0)
      return err(Code::kInvalidArgument,
                 "remote_offload op_deadline_us < 0");
    out.engine.remote_op_deadline_us = static_cast<uint64_t>(deadline);

    const int64_t threshold = ro->get_int(
        "breaker_threshold",
        static_cast<int64_t>(out.engine.remote_breaker_threshold));
    if (threshold < 1)
      return err(Code::kInvalidArgument,
                 "remote_offload breaker_threshold < 1");
    out.engine.remote_breaker_threshold = static_cast<int>(threshold);

    const int64_t cooldown = ro->get_int(
        "breaker_cooldown_ms",
        static_cast<int64_t>(out.engine.remote_breaker_cooldown_ms));
    if (cooldown < 0)
      return err(Code::kInvalidArgument,
                 "remote_offload breaker_cooldown_ms < 0");
    out.engine.remote_breaker_cooldown_ms = static_cast<uint64_t>(cooldown);
  }

  const ConfBlock* qat = engine_block->find_block("qat_engine");
  if (!qat) return out;

  const std::string mode = qat->get_string("qat_offload_mode", "async");
  if (mode == "async") {
    out.engine.offload_mode = engine::OffloadMode::kAsync;
  } else if (mode == "sync") {
    out.engine.offload_mode = engine::OffloadMode::kSync;
  } else {
    return err(Code::kInvalidArgument, "bad qat_offload_mode: " + mode);
  }

  const std::string notify = qat->get_string("qat_notify_mode", "poll");
  if (notify == "poll" || notify == "kernel_bypass") {
    out.notify = NotifyScheme::kKernelBypass;
  } else if (notify == "fd" || notify == "event") {
    out.notify = NotifyScheme::kFd;
  } else {
    return err(Code::kInvalidArgument, "bad qat_notify_mode: " + notify);
  }

  const std::string poll = qat->get_string("qat_poll_mode", "heuristic");
  if (poll == "heuristic") {
    out.poll = PollScheme::kHeuristic;
  } else if (poll == "timer") {
    out.poll = PollScheme::kTimer;
  } else if (poll == "inline") {
    out.poll = PollScheme::kInline;
  } else {
    return err(Code::kInvalidArgument, "bad qat_poll_mode: " + poll);
  }

  const int64_t interval =
      qat->get_int("qat_timer_poll_interval", out.timer_interval.count());
  if (interval < 1)
    return err(Code::kInvalidArgument, "qat_timer_poll_interval < 1");
  out.timer_interval = std::chrono::microseconds(interval);
  out.heuristic.asym_threshold = static_cast<size_t>(
      qat->get_int("qat_heuristic_poll_asym_threshold", 48));
  out.heuristic.sym_threshold = static_cast<size_t>(
      qat->get_int("qat_heuristic_poll_sym_threshold", 24));

  // The paper evaluates the timer scheme with FD notification only (QAT+A);
  // keeping kernel-bypass with heuristic polling keeps the accepted confs
  // to its five configurations.
  if (out.notify == NotifyScheme::kKernelBypass &&
      out.poll == PollScheme::kTimer) {
    return err(Code::kInvalidArgument,
               "kernel-bypass notification requires heuristic/inline polling");
  }
  // Inline polling is the blocking self-poll of straight offload: a parked
  // async op would wait for a poll that never comes.
  if (out.engine.offload_mode == engine::OffloadMode::kAsync &&
      out.poll == PollScheme::kInline) {
    return err(Code::kInvalidArgument,
               "async offload requires heuristic/timer polling");
  }
  return out;
}

Result<SslEngineSettings> parse_ssl_engine_settings(const std::string& text) {
  QTLS_ASSIGN_OR_RETURN(auto root, parse_conf(text));
  return parse_ssl_engine_settings(*root);
}

}  // namespace qtls::server
