// Cross-worker resumption on the REAL stack: a WorkerPool of N SO_REUSEPORT
// workers sharing one resumption plane, driven by TCP loopback clients that
// establish a session once and then keep offering it. The kernel spreads
// reconnects across workers, so a high hit rate is only possible because the
// session cache / ticket-key ring is pool-wide — per-worker state would cap
// the hit rate near 1/N. Emits one BENCH_JSON line per run for harvesting.
#pragma once

#include <chrono>
#include <cstdio>
#include <memory>

#include "client/https_client.h"
#include "crypto/keystore.h"
#include "server/worker_pool.h"

namespace qtls::bench {

struct CrossWorkerResult {
  uint64_t connections = 0;
  uint64_t offered = 0;  // connections that offered an existing session
  uint64_t resumed = 0;  // offers the server accepted (abbreviated hs)
  uint64_t errors = 0;
  int workers_hit = 0;   // workers that completed at least one handshake
  double hit_rate = 0;   // resumed / offered
};

inline CrossWorkerResult run_cross_worker_resumption(
    const char* tag, int workers, bool session_tickets,
    double full_handshake_ratio, int clients, uint64_t requests_per_client) {
  qat::DeviceTopology topo{qat::TopologyConfig{}};

  server::WorkerPoolOptions options;
  options.workers = workers;
  options.tls_config.async_mode = true;
  options.tls_config.use_session_tickets = session_tickets;
  options.tls_config.cipher_suites = {
      tls::CipherSuite::kEcdheRsaWithAes128CbcSha};
  options.worker_config.response_body_size = 512;

  server::WorkerPool pool(&topo, &test_rsa2048(), options);
  CrossWorkerResult out;
  if (!pool.start(0).is_ok()) {
    std::fprintf(stderr, "cross-worker bench: pool failed to start\n");
    out.errors = 1;
    return out;
  }

  engine::SoftwareProvider client_provider;
  tls::TlsContextConfig ccfg;
  ccfg.cipher_suites = options.tls_config.cipher_suites;
  tls::TlsContext cctx(ccfg, &client_provider);

  client::Pool cpool;
  const uint16_t port = pool.port();
  for (int i = 0; i < clients; ++i) {
    client::ClientOptions copts;
    copts.full_handshake_ratio = full_handshake_ratio;
    copts.max_requests = requests_per_client;
    cpool.add(std::make_unique<client::HttpsClient>(
        &cctx,
        [port]() -> int {
          auto fd = net::tcp_connect(port);
          return fd.is_ok() ? fd.value() : -1;
        },
        copts, 7000 + static_cast<uint64_t>(i)));
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  bool all_done = false;
  while (!all_done && std::chrono::steady_clock::now() < deadline) {
    all_done = true;
    for (auto& c : cpool.clients()) {
      if (c->step()) all_done = false;
    }
  }
  pool.stop();

  const client::ClientStats cstats = cpool.aggregate();
  const server::WorkerPoolStats wstats = pool.stats();
  out.connections = cstats.connections;
  out.offered = cstats.offered;
  out.resumed = cstats.resumed;
  out.errors = cstats.errors + (all_done ? 0 : 1);
  for (uint64_t h : wstats.per_worker_handshakes) {
    if (h > 0) ++out.workers_hit;
  }
  out.hit_rate = out.offered > 0
                     ? static_cast<double>(out.resumed) /
                           static_cast<double>(out.offered)
                     : 0.0;

  std::printf(
      "BENCH_JSON {\"metric\":\"fig9.cross_worker\",\"tag\":\"%s\","
      "\"workers\":%d,\"tickets\":%s,\"connections\":%llu,\"offered\":%llu,"
      "\"resumed\":%llu,\"hit_rate\":%.4f,\"workers_hit\":%d,"
      "\"errors\":%llu}\n",
      tag, workers, session_tickets ? "true" : "false",
      static_cast<unsigned long long>(out.connections),
      static_cast<unsigned long long>(out.offered),
      static_cast<unsigned long long>(out.resumed), out.hit_rate,
      out.workers_hit, static_cast<unsigned long long>(out.errors));
  return out;
}

}  // namespace qtls::bench
