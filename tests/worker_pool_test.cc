// Multi-worker deployment over real TCP loopback: N worker threads sharing
// one port via SO_REUSEPORT (the paper's §5.1 multi-worker setup), driven
// by TCP clients from the test thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "client/https_client.h"
#include "crypto/keystore.h"
#include "server/worker_pool.h"

namespace qtls::server {
namespace {

TEST(WorkerPool, ServesTcpClientsAcrossWorkers) {
  qat::DeviceTopology topo{qat::TopologyConfig{}};  // one 3x12 device

  WorkerPoolOptions options;
  options.workers = 2;
  options.tls_config.async_mode = true;
  options.tls_config.cipher_suites = {
      tls::CipherSuite::kEcdheRsaWithAes128CbcSha};
  options.worker_config.response_body_size = 2048;

  WorkerPool pool(&topo, &test_rsa2048(), options);
  ASSERT_TRUE(pool.start(0).is_ok());
  ASSERT_GT(pool.port(), 0);

  engine::SoftwareProvider client_provider;
  tls::TlsContextConfig ccfg;
  ccfg.cipher_suites = options.tls_config.cipher_suites;
  tls::TlsContext cctx(ccfg, &client_provider);

  client::Pool clients;
  const uint16_t port = pool.port();
  for (int i = 0; i < 6; ++i) {
    client::ClientOptions copts;
    copts.max_requests = 3;
    copts.keepalive = i % 2 == 0;
    clients.add(std::make_unique<client::HttpsClient>(
        &cctx,
        [port]() -> int {
          auto fd = net::tcp_connect(port);
          return fd.is_ok() ? fd.value() : -1;
        },
        copts, 3000 + static_cast<uint64_t>(i)));
  }

  // Workers run on their own threads; the test thread only steps clients.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool all_done = false;
  while (!all_done && std::chrono::steady_clock::now() < deadline) {
    all_done = true;
    for (auto& c : clients.clients()) {
      if (c->step()) all_done = false;
    }
  }
  pool.stop();

  ASSERT_TRUE(all_done) << "clients did not finish";
  const client::ClientStats cstats = clients.aggregate();
  EXPECT_EQ(cstats.errors, 0u);
  EXPECT_EQ(cstats.requests, 18u);

  const WorkerPoolStats wstats = pool.stats();
  EXPECT_EQ(wstats.totals.requests_served, 18u);
  EXPECT_EQ(wstats.totals.errors, 0u);
  EXPECT_GT(wstats.totals.async_parks, 0u);
  // Both workers were created and reported stats (kernel hashing decides
  // the accept split; totals are the invariant).
  ASSERT_EQ(wstats.per_worker_handshakes.size(), 2u);
  EXPECT_EQ(wstats.per_worker_handshakes[0] + wstats.per_worker_handshakes[1],
            wstats.totals.handshakes_completed);
}

TEST(WorkerPool, MultipleInstancesPerWorker) {
  qat::DeviceTopology topo{qat::TopologyConfig{}};
  qat::QatDevice& device = topo.device(0);
  WorkerPoolOptions options;
  options.workers = 1;
  options.instances_per_worker = 3;  // §2.3: more engines for one process
  options.tls_config.async_mode = true;
  options.tls_config.cipher_suites = {
      tls::CipherSuite::kTlsRsaWithAes128CbcSha};

  WorkerPool pool(&topo, &test_rsa2048(), options);
  ASSERT_TRUE(pool.start(0).is_ok());

  engine::SoftwareProvider client_provider;
  tls::TlsContextConfig ccfg;
  ccfg.cipher_suites = options.tls_config.cipher_suites;
  tls::TlsContext cctx(ccfg, &client_provider);
  const uint16_t port = pool.port();
  client::ClientOptions copts;
  copts.max_requests = 4;
  client::HttpsClient client(
      &cctx,
      [port]() -> int {
        auto fd = net::tcp_connect(port);
        return fd.is_ok() ? fd.value() : -1;
      },
      copts);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (client.step() && std::chrono::steady_clock::now() < deadline) {
  }
  pool.stop();
  EXPECT_TRUE(client.finished());
  EXPECT_EQ(client.stats().errors, 0u);
  EXPECT_EQ(client.stats().requests, 4u);
  // Requests were spread across endpoints (instances came from different
  // endpoints; round-robin submit hits at least two of them).
  int endpoints_used = 0;
  for (int i = 0; i < device.num_endpoints(); ++i) {
    if (device.endpoint(i).fw_counters().total_requests() > 0)
      ++endpoints_used;
  }
  EXPECT_GE(endpoints_used, 2);
}

TEST(WorkerPool, TopologyPoolPlacesWorkersAndReportsFleet) {
  qat::TopologyConfig tc;
  tc.num_devices = 2;
  // Explicit map (conf: worker_affinity) deliberately inverted vs striping
  // so the test can tell the two policies apart.
  tc.worker_affinity = {1, 0};
  qat::DeviceTopology topo(tc);

  WorkerPoolOptions options;
  options.workers = 2;
  options.tls_config.async_mode = true;
  options.tls_config.cipher_suites = {
      tls::CipherSuite::kTlsRsaWithAes128CbcSha};

  WorkerPool pool(&topo, &test_rsa2048(), options);
  ASSERT_TRUE(pool.start(0).is_ok());
  ASSERT_EQ(pool.topology(), &topo);
  EXPECT_EQ(pool.engine(0)->preferred_device(), 1);
  EXPECT_EQ(pool.engine(1)->preferred_device(), 0);
  // The map decides where the instances come from, not just the label.
  EXPECT_EQ(pool.engine(0)->lane_device(0), 1);
  EXPECT_EQ(pool.engine(1)->lane_device(0), 0);

  engine::SoftwareProvider client_provider;
  tls::TlsContextConfig ccfg;
  ccfg.cipher_suites = options.tls_config.cipher_suites;
  tls::TlsContext cctx(ccfg, &client_provider);
  const uint16_t port = pool.port();

  // A few requests (kernel hashing decides the worker split), then the
  // operator surface: GET /stats must carry the fleet "topology" object.
  client::ClientOptions copts;
  copts.max_requests = 2;
  client::HttpsClient client(
      &cctx,
      [port]() -> int {
        auto fd = net::tcp_connect(port);
        return fd.is_ok() ? fd.value() : -1;
      },
      copts, 41);
  client::ClientOptions sopts;
  sopts.path = "/stats";
  sopts.max_requests = 1;
  client::HttpsClient stats_client(
      &cctx,
      [port]() -> int {
        auto fd = net::tcp_connect(port);
        return fd.is_ok() ? fd.value() : -1;
      },
      sopts, 42);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((client.step() | stats_client.step()) &&
         std::chrono::steady_clock::now() < deadline) {
  }
  pool.stop();
  EXPECT_EQ(client.stats().errors, 0u);
  ASSERT_EQ(stats_client.stats().errors, 0u);

  const std::string body(
      reinterpret_cast<const char*>(stats_client.last_body().data()),
      stats_client.last_body().size());
  EXPECT_NE(body.find("\"topology\":{\"fleet\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"preferred_device\":"), std::string::npos);
  EXPECT_NE(body.find("\"lanes\":["), std::string::npos);
  // Pool-level dump carries the same fleet JSON.
  EXPECT_NE(pool.stats_text().find("\"devices\":2"), std::string::npos);
  // All offloaded work landed on the fleet.
  EXPECT_GT(topo.device(0).fw_counters().total_requests() +
                topo.device(1).fw_counters().total_requests(),
            0u);
}

TEST(WorkerPool, SleepingWorkerWakesOnTheDeviceAndKeepsItsHeartbeat) {
  // One worker, one client, every op 20 ms on the device: the worker has
  // nothing to do but wait. It sleeps on the engine's wakeup, each sleep
  // bounded by the 5 ms failover interval, so the heartbeat the watchdog
  // scores keeps moving.
  qat::TopologyConfig tc;
  tc.device.num_endpoints = 1;
  tc.device.engines_per_endpoint = 2;
  tc.device.extra_service_ns = 20'000'000;
  qat::DeviceTopology topo(tc);

  WorkerPoolOptions options;
  options.workers = 1;
  options.tls_config.async_mode = true;
  options.tls_config.cipher_suites = {
      tls::CipherSuite::kTlsRsaWithAes128CbcSha};
  WorkerPool pool(&topo, &test_rsa2048(), options);
  ASSERT_TRUE(pool.start(0).is_ok());

  engine::SoftwareProvider client_provider;
  tls::TlsContextConfig ccfg;
  ccfg.cipher_suites = options.tls_config.cipher_suites;
  tls::TlsContext cctx(ccfg, &client_provider);
  const uint16_t port = pool.port();
  client::ClientOptions copts;
  copts.max_requests = 1;
  client::HttpsClient client(
      &cctx,
      [port]() -> int {
        auto fd = net::tcp_connect(port);
        return fd.is_ok() ? fd.value() : -1;
      },
      copts);

  using Clock = std::chrono::steady_clock;
  const WorkerHeartbeat& heartbeat = pool.worker(0)->heartbeat();
  uint64_t seen = heartbeat.iterations.load(std::memory_order_relaxed);
  Clock::time_point changed = Clock::now();
  Clock::duration longest_stall{};
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (client.step() && Clock::now() < deadline) {
    const uint64_t now_seen =
        heartbeat.iterations.load(std::memory_order_relaxed);
    if (now_seen == seen) continue;
    longest_stall = std::max(longest_stall, Clock::now() - changed);
    seen = now_seen;
    changed = Clock::now();
  }
  pool.stop();
  EXPECT_TRUE(client.finished());
  EXPECT_EQ(client.stats().errors, 0u);
  EXPECT_LT(longest_stall, std::chrono::milliseconds(250));

  const Worker& worker = *pool.worker(0);
  EXPECT_GT(worker.stats().sleeps, 0u);
  ASSERT_NE(worker.poller_stats(), nullptr);
  EXPECT_GE(worker.poller_stats()->wake_triggers, 1u);
}

TEST(WorkerPool, TimerSchemeConfServesThroughTheWorkersTick) {
  // The paper's QAT+A configuration, built from its conf: FD notification
  // and a 10 us tick in the worker's loop that polls its engine.
  auto settings = parse_ssl_engine_settings(R"(
worker_processes 1;
ssl_engine {
    use qat_engine;
    default_algorithm RSA,EC,DH,PKEY_CRYPTO;
    qat_engine {
        qat_offload_mode async;
        qat_notify_mode fd;
        qat_poll_mode timer;
        qat_timer_poll_interval 10;
    }
}
)");
  ASSERT_TRUE(settings.is_ok()) << settings.status().message();
  qat::DeviceTopology topo(settings.value().topology);
  WorkerPoolOptions options = pool_options_from(settings.value());
  options.tls_config.cipher_suites = {
      tls::CipherSuite::kEcdheRsaWithAes128CbcSha};
  WorkerPool pool(&topo, &test_rsa2048(), options);
  ASSERT_TRUE(pool.start(0).is_ok());

  engine::SoftwareProvider client_provider;
  tls::TlsContextConfig ccfg;
  ccfg.cipher_suites = options.tls_config.cipher_suites;
  tls::TlsContext cctx(ccfg, &client_provider);
  const uint16_t port = pool.port();
  client::Pool clients;
  for (int i = 0; i < 2; ++i) {
    client::ClientOptions copts;  // a full handshake per request
    copts.max_requests = 3;
    clients.add(std::make_unique<client::HttpsClient>(
        &cctx,
        [port]() -> int {
          auto fd = net::tcp_connect(port);
          return fd.is_ok() ? fd.value() : -1;
        },
        copts, 6000 + static_cast<uint64_t>(i)));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool all_done = false;
  while (!all_done && std::chrono::steady_clock::now() < deadline) {
    all_done = true;
    for (auto& c : clients.clients())
      if (c->step()) all_done = false;
  }
  pool.stop();

  EXPECT_TRUE(all_done) << "parked ops were never retrieved";
  EXPECT_EQ(clients.aggregate().errors, 0u);
  EXPECT_GE(pool.stats().totals.handshakes_completed, 6u);
  EXPECT_EQ(pool.worker(0)->poller_stats(), nullptr);  // no heuristic poller
  EXPECT_GT(pool.engine(0)->stats().polls, 0u);         // the ticks polled
  EXPECT_GT(pool.engine(0)->stats().completed, 0u);
  EXPECT_EQ(pool.engine(0)->inflight_total(), 0u);
}

}  // namespace
}  // namespace qtls::server
