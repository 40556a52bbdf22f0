// Regression for the worker failure-observation contract: a connection whose
// async offload op fails terminally (device error past the retry budget, or
// a dropped response expiring the per-op deadline) must be torn down and its
// slot released — run_until() observes the failure through stats().errors /
// async_failures instead of waiting forever on progress that cannot come.
// Every case runs under two poll schemes: heuristic polling with the
// kernel-bypass queue (Qtls) and the timer tick with FD notification
// (QatA). Both retrieve through the engine's poll(), so the deadline sweep
// runs under both.
#include <gtest/gtest.h>

#include <chrono>

#include "crypto/keystore.h"
#include "qat/fault.h"
#include "server_test_util.h"

namespace qtls::server {
namespace {

using testutil::run_to_completion;
using testutil::socketpair_connector;

struct WorkerFaultFixture {
  qat::FaultPlan plan;
  qat::QatDevice device;
  engine::QatEngineProvider qat;
  tls::TlsContext sctx;
  Worker worker;

  static qat::DeviceConfig device_config(qat::FaultPlan* plan) {
    qat::DeviceConfig cfg;
    cfg.num_endpoints = 1;
    cfg.engines_per_endpoint = 4;
    cfg.fault_plan = plan;
    return cfg;
  }

  static tls::TlsContextConfig server_config() {
    tls::TlsContextConfig scfg;
    scfg.is_server = true;
    scfg.async_mode = true;
    scfg.cipher_suites = {tls::CipherSuite::kTlsRsaWithAes128CbcSha};
    return scfg;
  }

  WorkerFaultFixture(engine::QatEngineConfig ecfg, uint64_t seed,
                     WorkerConfig wcfg)
      : plan(seed),
        device(device_config(&plan)),
        qat(device.allocate_instance(), ecfg),
        sctx(server_config(), &qat),
        worker(&sctx, &qat, wcfg) {
    sctx.credentials().rsa_key = &test_rsa2048();
  }
};

class WorkerFault : public ::testing::TestWithParam<testutil::AsyncConfig> {
 protected:
  static WorkerConfig worker_config() {
    WorkerConfig wcfg;
    wcfg.notify = GetParam().notify;
    wcfg.poll = GetParam().poll;
    wcfg.timer_interval = std::chrono::milliseconds(1);
    return wcfg;
  }
  // How late after a deadline the sweep may run: one tick, or one failover
  // interval of the heuristic scheme.
  static std::chrono::microseconds sweep_interval() {
    const WorkerConfig wcfg = worker_config();
    if (wcfg.poll == PollScheme::kTimer) return wcfg.timer_interval;
    return std::chrono::milliseconds(wcfg.heuristic.failover_interval_ms);
  }
};

INSTANTIATE_TEST_SUITE_P(
    PollSchemes, WorkerFault,
    ::testing::Values(testutil::kQtls, testutil::kQatA),
    [](const auto& info) { return std::string(info.param.name); });

tls::TlsContextConfig client_config() {
  tls::TlsContextConfig ccfg;
  ccfg.cipher_suites = {tls::CipherSuite::kTlsRsaWithAes128CbcSha};
  return ccfg;
}

// Drives one manual client handshake against the worker until it resolves
// (any result other than WANT_READ/WANT_WRITE) or the deadline passes.
tls::TlsResult pump_until_resolved(tls::TlsConnection* client,
                                   Worker* worker) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const tls::TlsResult r = client->handshake();
    if (r != tls::TlsResult::kWantRead && r != tls::TlsResult::kWantWrite)
      return r;
    worker->run_once(0);
  }
  return tls::TlsResult::kWantRead;  // deadline: still unresolved
}

// Spins the worker until the failed connection is gone (or the deadline
// passes) — this is exactly the observation loop run_until callers use.
void drain_until_closed(WorkerFaultFixture* fx) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  fx->worker.run_until(
      [&] {
        return (fx->worker.stats().errors > 0 &&
                fx->worker.alive_connections() == 0 &&
                fx->qat.inflight_total() == 0) ||
               std::chrono::steady_clock::now() > deadline;
      },
      /*timeout_ms=*/0);
}

// Terminal device error with fallback disabled: the op surfaces
// kUnavailable, the TLS layer fails, the worker tears the connection down.
TEST_P(WorkerFault, TerminalDeviceErrorTearsDownConnection) {
  engine::QatEngineConfig ecfg;
  ecfg.max_retries = 0;
  ecfg.sw_fallback_on_device_error = false;
  WorkerFaultFixture fx(ecfg, /*seed=*/41, worker_config());
  qat::FaultRates always_fail;
  always_fail.error_rate = 1.0;
  fx.plan.set_rates_all(always_fail);

  engine::SoftwareProvider client_provider(7);
  tls::TlsContext cctx(client_config(), &client_provider);
  auto pair = net::make_socketpair();
  ASSERT_TRUE(pair.is_ok());
  ASSERT_TRUE(fx.worker.adopt(pair.value().second).is_ok());
  net::SocketTransport transport(pair.value().first);
  tls::TlsConnection client(&cctx, &transport);

  // The client sees the connection die — a clean close, not a hang.
  const tls::TlsResult client_r = pump_until_resolved(&client, &fx.worker);
  EXPECT_TRUE(client_r == tls::TlsResult::kClosed ||
              client_r == tls::TlsResult::kError)
      << tls::tls_result_name(client_r);
  drain_until_closed(&fx);

  // The worker observed the failure, closed the connection and released its
  // slot: nothing alive, nothing idle, nothing parked, nothing inflight.
  const WorkerStats& ws = fx.worker.stats();
  EXPECT_EQ(ws.errors, 1u);
  EXPECT_EQ(ws.async_failures, 1u);
  EXPECT_EQ(ws.handshakes_completed, 0u);
  EXPECT_EQ(fx.worker.alive_connections(), 0u);
  EXPECT_EQ(fx.worker.idle_connections(), 0u);
  EXPECT_EQ(fx.qat.inflight_total(), 0u);
}

// Dropped response with fallback disabled: before per-op deadlines existed
// this was the unobservable case — the fiber stayed parked forever and
// run_until spun without any way to notice. The deadline sweep (riding the
// worker's failover poll or its tick) now expires the op within the deadline
// plus one interval, and the teardown follows.
TEST_P(WorkerFault, DroppedResponseExpiresAndTearsDownConnection) {
  engine::QatEngineConfig ecfg;
  ecfg.max_retries = 0;
  // Generous against real device service times: only the dropped response
  // can ever hit this deadline.
  ecfg.op_deadline_us = 20'000;
  ecfg.sw_fallback_on_device_error = false;
  WorkerFaultFixture fx(ecfg, /*seed=*/42, worker_config());
  // First PRF op of the handshake never comes back.
  fx.plan.schedule(qat::OpKind::kPrfTls12, 1, qat::FaultKind::kDrop);

  engine::SoftwareProvider client_provider(7);
  tls::TlsContext cctx(client_config(), &client_provider);
  auto pair = net::make_socketpair();
  ASSERT_TRUE(pair.is_ok());
  ASSERT_TRUE(fx.worker.adopt(pair.value().second).is_ok());
  net::SocketTransport transport(pair.value().first);
  tls::TlsConnection client(&cctx, &transport);

  // The pass that submits the dropped op sets its deadline before the test
  // can see the device's count move, so the expiry is due within the
  // deadline plus one failover or tick interval of that sighting. The slack
  // covers a slow pass on a sanitized build; the hang this guards against
  // is unbounded. (On a loaded sanitized build an earlier op may outlast
  // the deadline instead; the teardown that follows is the same.)
  using Clock = std::chrono::steady_clock;
  const auto give_up = Clock::now() + std::chrono::seconds(30);
  auto pass = [&] {
    (void)client.handshake();
    fx.worker.run_once(0);
    return Clock::now() < give_up;
  };
  while (fx.plan.ops_seen(qat::OpKind::kPrfTls12) == 0 &&
         fx.qat.stats().deadline_expiries == 0 && pass()) {
  }
  const auto seen = Clock::now();
  while (fx.qat.stats().deadline_expiries == 0 && pass()) {
  }
  const auto expired = Clock::now();
  ASSERT_EQ(fx.qat.stats().deadline_expiries, 1u);
  const auto slow_pass = std::chrono::seconds(1);
  EXPECT_LT(expired - seen, std::chrono::microseconds(ecfg.op_deadline_us) +
                                sweep_interval() + slow_pass);

  const tls::TlsResult client_r = pump_until_resolved(&client, &fx.worker);
  EXPECT_TRUE(client_r == tls::TlsResult::kClosed ||
              client_r == tls::TlsResult::kError)
      << tls::tls_result_name(client_r);
  drain_until_closed(&fx);

  const WorkerStats& ws = fx.worker.stats();
  EXPECT_EQ(ws.errors, 1u);
  EXPECT_EQ(ws.async_failures, 1u);
  EXPECT_EQ(fx.worker.alive_connections(), 0u);
  EXPECT_EQ(fx.qat.stats().deadline_expiries, 1u);
  EXPECT_EQ(fx.qat.inflight_total(), 0u);
  EXPECT_EQ(fx.qat.pending_deadline_ops(), 0u);
}

// Same dropped response with fallback enabled: the connection survives — the
// expired op completes in software and the request is served normally.
TEST_P(WorkerFault, DroppedResponseWithFallbackServesRequest) {
  engine::QatEngineConfig ecfg;
  ecfg.max_retries = 0;
  // Generous against real device service times: only the dropped response
  // can ever hit this deadline.
  ecfg.op_deadline_us = 20'000;
  ecfg.sw_fallback_on_device_error = true;
  WorkerFaultFixture fx(ecfg, /*seed=*/43, worker_config());
  fx.plan.schedule(qat::OpKind::kPrfTls12, 1, qat::FaultKind::kDrop);

  engine::SoftwareProvider client_provider(7);
  tls::TlsContext cctx(client_config(), &client_provider);
  client::Pool clients;
  client::ClientOptions copts;
  copts.max_requests = 1;
  clients.add(std::make_unique<client::HttpsClient>(
      &cctx, socketpair_connector(&fx.worker), copts, /*seed=*/99));

  ASSERT_TRUE(run_to_completion(&fx.worker, &clients, /*deadline_seconds=*/30));

  EXPECT_EQ(clients.aggregate().errors, 0u);
  EXPECT_EQ(clients.aggregate().requests, 1u);
  const WorkerStats& ws = fx.worker.stats();
  EXPECT_EQ(ws.errors, 0u);
  EXPECT_EQ(ws.async_failures, 0u);
  EXPECT_EQ(ws.requests_served, 1u);
  // At least the dropped op expired and completed in software; under heavy
  // slowdown (sanitizers) a slow-but-healthy op may expire spuriously too —
  // the fallback absorbs those as well.
  EXPECT_GE(fx.qat.stats().deadline_expiries, 1u);
  EXPECT_GE(fx.qat.stats().sw_fallbacks, 1u);
  EXPECT_EQ(fx.qat.inflight_total(), 0u);
}

}  // namespace
}  // namespace qtls::server
