// Chaos/soak harness: sustained load against a QAT device model that is
// actively misbehaving under a seeded FaultPlan. Two scenarios:
//
//  1. A 4-worker WorkerPool over real TCP loopback with transient errors
//     and dropped responses on the asymmetric op kinds. Every connection
//     must complete (via retry or software fallback) with zero client
//     errors, zero hangs and no leaked inflight slots; firmware counters
//     must conserve: requests - responses == injected drops.
//
//  2. A multi-threaded memory-transport soak — one engine provider per
//     thread on a shared device — with error/drop/stall rates on every op
//     kind plus a device reset fired mid-run. Engine accounting must
//     conserve: submitted == completed + deadline expiries, per engine.
//
// Iteration count scales with QTLS_FAULT_SOAK_ITERS (CMake cache knob):
// short in tier-1, long under -DQTLS_SANITIZE=thread soaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <csignal>

#include "client/https_client.h"
#include "crypto/keystore.h"
#include "qat/fault.h"
#include "server/control.h"
#include "server/worker_pool.h"
#include "tls_test_util.h"

#ifndef QTLS_FAULT_SOAK_ITERS
#define QTLS_FAULT_SOAK_ITERS 40
#endif

namespace qtls::server {
namespace {

constexpr int kSoakIters = QTLS_FAULT_SOAK_ITERS;

// Conf for the control plane riding the faulty-device soak: overload knobs
// mirror the test's own (the first applied generation must not tighten the
// deadlines the soak depends on), and the wedge threshold is generous so a
// starved-but-alive worker under sanitizers is never a false positive.
constexpr char kChaosControlConf[] = R"(
worker_processes 4;
overload {
    handshake_timeout_ms 60000;
    idle_timeout_ms 60000;
    write_stall_timeout_ms 60000;
}
control {
    heartbeat_interval_ms 100;
    missed_windows 50;
    eject_grace_ms 2000;
    supervise on;
}
credentials {
    rsa 2048;
}
)";

constexpr qat::OpKind kAsymKinds[] = {
    qat::OpKind::kRsa2048Priv,
    qat::OpKind::kRsa2048Pub,
    qat::OpKind::kEcP256,
    qat::OpKind::kEcP384,
};

uint64_t total_fw_responses(qat::QatDevice& device) {
  uint64_t responses = 0;
  for (int i = 0; i < device.num_endpoints(); ++i) {
    const qat::FwCounters fw = device.endpoint(i).fw_counters();
    responses += fw.responses[0] + fw.responses[1] + fw.responses[2];
  }
  return responses;
}

uint64_t total_fw_requests(qat::QatDevice& device) {
  uint64_t requests = 0;
  for (int i = 0; i < device.num_endpoints(); ++i)
    requests += device.endpoint(i).fw_counters().total_requests();
  return requests;
}

TEST(ChaosSoak, WorkerPoolSurvivesFaultyDevice) {
  qat::TopologyConfig tc;
  tc.device.num_endpoints = 2;
  tc.device.engines_per_endpoint = 8;
  qat::DeviceTopology topo(tc);
  qat::QatDevice& device = topo.device(0);
  qat::FaultPlan& plan = topo.fault_plan(0);
  qat::FaultRates asym_rates;
  asym_rates.error_rate = 0.05;  // 5% transient CPA failures
  asym_rates.drop_rate = 0.001;  // 1 in 1000 responses vanish
  for (qat::OpKind kind : kAsymKinds) plan.set_rates(kind, asym_rates);
  // Deterministic minimum chaos regardless of how the rate draws land: the
  // first RSA sign errors, the third's response is dropped.
  plan.schedule(qat::OpKind::kRsa2048Priv, 1, qat::FaultKind::kError);
  plan.schedule(qat::OpKind::kRsa2048Priv, 3, qat::FaultKind::kDrop);

  WorkerPoolOptions options;
  options.workers = 4;
  options.tls_config.async_mode = true;
  options.tls_config.cipher_suites = {
      tls::CipherSuite::kEcdheRsaWithAes128CbcSha};
  options.engine_config.op_deadline_us = 20'000;
  options.engine_config.max_retries = 3;
  options.engine_config.breaker_cooldown_ms = 50;
  options.engine_config.sw_fallback_on_device_error = true;
  // Connection deadlines armed throughout the soak (generous enough never
  // to fire under sanitizers): every accept arms and every completion
  // cancels a timer-wheel entry while the fault plan misbehaves — the
  // overload plane must stay TSan-clean and must not cost a single request.
  options.worker_config.overload.handshake_timeout_ms = 60'000;
  options.worker_config.overload.idle_timeout_ms = 60'000;
  options.worker_config.overload.write_stall_timeout_ms = 60'000;

  // The self-healing control plane rides the soak: the real supervisor
  // thread scores heartbeats while the device misbehaves, and periodic
  // SIGHUPs hot-reload the conf mid-chaos. Everything must still complete
  // with zero errors and zero (false-positive) worker restarts.
  ControlPlane control;
  ASSERT_TRUE(control.load(kChaosControlConf).is_ok());
  options.worker_config.control = &control;

  WorkerPool pool(&topo, &test_rsa2048(), options);
  ASSERT_TRUE(pool.start(0).is_ok());
  control.attach(&pool);
  control.install_sighup();
  control.start_supervisor();
  const uint16_t port = pool.port();

  engine::SoftwareProvider client_provider;
  tls::TlsContextConfig ccfg;
  ccfg.cipher_suites = options.tls_config.cipher_suites;
  tls::TlsContext cctx(ccfg, &client_provider);

  client::Pool clients;
  const uint64_t per_client =
      static_cast<uint64_t>(std::max(1, kSoakIters / 10));
  for (int i = 0; i < 8; ++i) {
    client::ClientOptions copts;
    copts.max_requests = per_client;
    copts.keepalive = i % 2 == 0;
    clients.add(std::make_unique<client::HttpsClient>(
        &cctx,
        [port]() -> int {
          auto fd = net::tcp_connect(port);
          return fd.is_ok() ? fd.value() : -1;
        },
        copts, 5000 + static_cast<uint64_t>(i)));
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  auto next_sighup =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  bool all_done = false;
  while (!all_done && std::chrono::steady_clock::now() < deadline) {
    all_done = true;
    for (auto& c : clients.clients()) {
      if (c->step()) all_done = false;
    }
    if (std::chrono::steady_clock::now() >= next_sighup) {
      std::raise(SIGHUP);  // hot reload mid-chaos, served by the supervisor
      next_sighup += std::chrono::milliseconds(100);
    }
  }
  // One final deferred reload, then wait for the supervisor to serve it so
  // the SIGHUP path is exercised at least once even on a fast machine.
  control.request_reload();
  const auto reload_settle =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (control.stats().reloads < 2 &&
         std::chrono::steady_clock::now() < reload_settle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  control.stop_supervisor();
  pool.stop();
  ASSERT_TRUE(all_done) << "soak hung: clients never finished under faults";

  // The reloads landed cleanly and the watchdog never misfired: a soak this
  // busy is the false-positive stress for the wedge detector.
  EXPECT_GE(control.stats().reloads, 2u);
  EXPECT_EQ(control.stats().reload_failures, 0u);
  EXPECT_EQ(control.stats().wedge_events, 0u);
  EXPECT_EQ(pool.total_worker_restarts(), 0u);

  // Every request completed despite the chaos — retries and software
  // fallback absorbed all of it.
  const client::ClientStats cstats = clients.aggregate();
  EXPECT_EQ(cstats.errors, 0u);
  EXPECT_EQ(cstats.requests, per_client * 8);
  const WorkerPoolStats wstats = pool.stats();
  EXPECT_EQ(wstats.totals.requests_served, per_client * 8);
  EXPECT_EQ(wstats.totals.errors, 0u);
  EXPECT_EQ(wstats.totals.async_failures, 0u);
  // The armed deadlines never fired: retries and fallback kept every
  // connection inside the (generous) handshake budget. No worker restarted,
  // so the pool's workers are every worker that served, and their threads
  // are joined.
  uint64_t handshake_timeouts = 0;
  for (int i = 0; i < pool.workers(); ++i)
    handshake_timeouts += pool.worker(i)->overload_stats().handshake_timeouts;
  EXPECT_EQ(handshake_timeouts, 0u);

  // The plan actually did something.
  const qat::FaultCounters& fcnt = plan.counters();
  EXPECT_GE(fcnt.injected_total(), 2u);
  EXPECT_GE(fcnt.injected_drops.load(), 1u);

  // Counter conservation: engines may still be finishing abandoned ops
  // right after stop(), so give the gap a moment to settle at exactly the
  // injected drop count (drops are the only requests that never produce a
  // response stripe).
  const auto settle = std::chrono::steady_clock::now() +
                      std::chrono::seconds(10);
  while (total_fw_requests(device) - total_fw_responses(device) !=
             fcnt.injected_drops.load() &&
         std::chrono::steady_clock::now() < settle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(total_fw_requests(device) - total_fw_responses(device),
            fcnt.injected_drops.load());
}

TEST(ChaosSoak, ThreadedHandshakeSoakConservesCounters) {
  qat::FaultPlan plan(/*seed=*/4096);
  qat::FaultRates rates;
  rates.error_rate = 0.02;
  rates.drop_rate = 0.002;
  rates.stall_rate = 0.01;
  rates.stall_ns = 500'000;  // 0.5 ms engine stall, inside the deadline
  plan.set_rates_all(rates);
  // One guaranteed reset-style failure even if the timed reset window below
  // lands after the soak finished on a fast machine.
  plan.schedule(qat::OpKind::kRsa2048Priv, 5, qat::FaultKind::kReset);

  qat::DeviceConfig dcfg;
  dcfg.num_endpoints = 2;
  dcfg.engines_per_endpoint = 8;
  dcfg.fault_plan = &plan;
  qat::QatDevice device(dcfg);

  constexpr int kThreads = 4;
  std::atomic<uint64_t> failed_handshakes{0};
  std::atomic<uint64_t> failed_echoes{0};
  std::vector<std::unique_ptr<engine::QatEngineProvider>> engines;
  for (int t = 0; t < kThreads; ++t) {
    engine::QatEngineConfig ecfg;
    ecfg.offload_mode = engine::OffloadMode::kAsync;
    ecfg.op_deadline_us = 20'000;
    ecfg.max_retries = 2;
    ecfg.breaker_cooldown_ms = 50;
    engines.push_back(std::make_unique<engine::QatEngineProvider>(
        device.allocate_instance(), ecfg));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      engine::QatEngineProvider* qat_engine = engines[static_cast<size_t>(t)]
                                                  .get();
      tls::TlsContextConfig scfg;
      scfg.is_server = true;
      scfg.async_mode = true;
      scfg.cipher_suites = {tls::CipherSuite::kTlsRsaWithAes128CbcSha};
      scfg.drbg_seed = 100 + static_cast<uint64_t>(t);
      tls::TlsContext server_ctx(scfg, qat_engine);
      server_ctx.credentials().rsa_key = &test_rsa2048();

      engine::SoftwareProvider client_provider(
          static_cast<uint64_t>(200 + t));
      tls::TlsContextConfig ccfg;
      ccfg.cipher_suites = scfg.cipher_suites;
      ccfg.drbg_seed = 300 + static_cast<uint64_t>(t);
      tls::TlsContext client_ctx(ccfg, &client_provider);

      for (int i = 0; i < kSoakIters; ++i) {
        net::MemoryPipe pipe;
        tls::TlsConnection server(&server_ctx, &pipe.b());
        tls::TlsConnection client(&client_ctx, &pipe.a());
        const auto result = tls::testutil::pump_handshake(
            &client, &server, qat_engine, /*max_iters=*/5'000'000);
        if (!result.ok) {
          ++failed_handshakes;
          continue;
        }
        // One echo through the (possibly degraded) cipher path.
        if (tls::testutil::pump_write(&server, to_bytes("chaos"),
                                      qat_engine) != tls::TlsResult::kOk) {
          ++failed_echoes;
          continue;
        }
        Bytes got;
        if (tls::testutil::pump_read(&client, &got) != tls::TlsResult::kOk ||
            to_string(got) != "chaos") {
          ++failed_echoes;
        }
      }
    });
  }

  // Mid-soak device reset: every op in flight (and every new one) fails
  // with kDeviceReset until the window closes; breakers open, fallback
  // carries the load, re-probes recover afterwards.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  plan.trigger_reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  plan.clear_reset();

  for (auto& th : threads) th.join();

  // Zero hangs, zero failed connections: everything completed via device,
  // retry or fallback.
  EXPECT_EQ(failed_handshakes.load(), 0u);
  EXPECT_EQ(failed_echoes.load(), 0u);

  // Per-engine accounting conservation: every submission was either
  // retrieved or written off as a deadline expiry; no inflight slot leaked,
  // no deadline registration leaked.
  for (auto& eng : engines) {
    const engine::QatEngineStats& st = eng->stats();
    EXPECT_EQ(st.submitted, st.completed + st.deadline_expiries);
    EXPECT_EQ(eng->inflight_total(), 0u);
    EXPECT_EQ(eng->pending_deadline_ops(), 0u);
  }
  EXPECT_GT(plan.counters().injected_total(), 0u);
  EXPECT_GT(plan.counters().reset_failures.load(), 0u);
}

}  // namespace
}  // namespace qtls::server
