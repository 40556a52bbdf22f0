// Self-healing control plane (ctest label "control"; DESIGN.md §15):
//
//  * conf: the control{} block parses, bounds are enforced, defaults hold;
//  * hot reload: generation numbers are monotonic, a bad conf text leaves
//    the old generation serving, credentials{} swaps resolve against the
//    keystore, and session_cache{} shape edits are PRESERVED (ignored) so
//    the resumption plane survives the reload;
//  * worker plumbing: a worker applies a published generation at the top of
//    its loop, serves /healthz + /reload + /stats, and an IN-FLIGHT
//    handshake finishes on the credentials it snapshotted at accept;
//  * reload-under-churn: a 2-worker pool takes SIGHUP, direct loads and a
//    wire POST /reload mid-churn with zero client errors and a perfect
//    resumption hit rate (offered == resumed) across credential swaps;
//  * watchdog: a seeded wedge (cooperative loop_hook) is detected after
//    missed_windows frozen windows, /readyz and /healthz flip to 503,
//    crash-only recovery joins + reaps the worker's slab connections
//    (conservation checked against the registry), the replacement accepts,
//    and a BUSY worker (progress advancing inside one long pass) is held,
//    never restarted — the false-positive regression;
//  * EINTR: the socket transport retries interrupted blocking reads and
//    writes instead of surfacing them as connection errors;
//  * set_nonblocking failures propagate out of Worker::adopt.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/https_client.h"
#include "common/slab.h"
#include "crypto/keystore.h"
#include "net/socket_transport.h"
#include "server/control.h"
#include "server/worker_pool.h"
#include "server_test_util.h"

namespace qtls::server {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;
using std::chrono::steady_clock;

uint64_t steady_ms() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<milliseconds>(
          steady_clock::now().time_since_epoch())
          .count());
}

// One conf text, parameterized on the knobs the tests reload: the resolved
// RSA key size, the session-cache shard count (a plane SHAPE change the
// reload must refuse to apply), the wedge threshold and the admission cap.
std::string conf_text(int rsa_bits, int cache_shards, int missed_windows,
                      int max_handshaking, const char* past_cap) {
  std::ostringstream os;
  os << "worker_processes 2;\n"
        "ssl_engine {\n"
        "    use qat_engine;\n"
        "    qat_engine {\n"
        "        qat_offload_mode async;\n"
        "        qat_notify_mode poll;\n"
        "        qat_poll_mode heuristic;\n"
        "    }\n"
        "}\n"
        "session_cache {\n"
     << "    shards " << cache_shards << ";\n"
     << "    capacity 512;\n"
        "}\n"
        "overload {\n"
        "    handshake_timeout_ms 60000;\n"
        "    idle_timeout_ms 60000;\n"
        "    write_stall_timeout_ms 60000;\n"
     << "    max_handshaking " << max_handshaking << ";\n"
     << "    past_cap " << past_cap << ";\n"
        "    park_backlog 256;\n"
        "}\n"
        "control {\n"
        "    heartbeat_interval_ms 50;\n"
     << "    missed_windows " << missed_windows << ";\n"
     << "    eject_grace_ms 2000;\n"
        "    supervise off;\n"
        "}\n"
        "credentials {\n"
     << "    rsa " << rsa_bits << ";\n"
        "}\n";
  return os.str();
}

// Single-threaded fetch of one path from a socketpair-coupled worker.
std::string fetch_body(Worker* worker, tls::TlsContext* cctx,
                       const std::string& path, uint64_t seed,
                       uint64_t* errors) {
  client::ClientOptions copts;
  copts.path = path;
  copts.max_requests = 1;
  client::HttpsClient c(cctx, testutil::socketpair_connector(worker), copts,
                        seed);
  const auto deadline = steady_clock::now() + seconds(30);
  while (c.step() && steady_clock::now() < deadline) worker->run_once(0);
  if (errors != nullptr) *errors = c.stats().errors;
  return std::string(c.last_body().begin(), c.last_body().end());
}

// ------------------------------------------------------------------ conf ----

TEST(ControlConf, ParsesControlBlockAndDefaults) {
  auto s = parse_ssl_engine_settings(conf_text(2048, 4, 7, 256, "shed"));
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(s.value().control.heartbeat_interval_ms, 50u);
  EXPECT_EQ(s.value().control.missed_windows, 7);
  EXPECT_EQ(s.value().control.eject_grace_ms, 2000u);
  EXPECT_FALSE(s.value().control.supervise);

  auto d = parse_ssl_engine_settings("worker_processes 1;\n");
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d.value().control.heartbeat_interval_ms, 100u);
  EXPECT_EQ(d.value().control.missed_windows, 5);
  EXPECT_EQ(d.value().control.eject_grace_ms, 500u);
  EXPECT_TRUE(d.value().control.supervise);

  EXPECT_FALSE(
      parse_ssl_engine_settings("control { heartbeat_interval_ms 0; }")
          .is_ok());
  EXPECT_FALSE(
      parse_ssl_engine_settings("control { missed_windows 0; }").is_ok());
  EXPECT_FALSE(
      parse_ssl_engine_settings("control { supervise maybe; }").is_ok());
}

// ------------------------------------------------------------ hot reload ----

TEST(ControlPlane, GenerationMonotonicCredentialSwapAndBadConf) {
  ControlPlane control;
  EXPECT_FALSE(control.reload_now().is_ok());  // nothing loaded yet

  ASSERT_TRUE(control.load(conf_text(2048, 4, 3, 256, "shed")).is_ok());
  EXPECT_EQ(control.generation(), 1u);
  auto rc = control.current();
  ASSERT_NE(rc, nullptr);
  ASSERT_NE(rc->credentials, nullptr);
  EXPECT_EQ(rc->credentials->rsa_key, &test_rsa2048());

  // reload_now re-parses the retained text.
  ASSERT_TRUE(control.reload_now().is_ok());
  EXPECT_EQ(control.generation(), 2u);

  // A credential swap resolves against the keystore.
  ASSERT_TRUE(control.load(conf_text(1024, 4, 3, 256, "shed")).is_ok());
  EXPECT_EQ(control.generation(), 3u);
  EXPECT_EQ(control.current()->credentials->rsa_key, &test_rsa1024());

  // Bad texts: nothing published, the old generation keeps serving, and
  // reload_now still re-publishes the last GOOD text afterwards.
  const auto before = control.stats();
  EXPECT_FALSE(control.load("ssl_engine {").is_ok());  // truncated
  EXPECT_FALSE(control.load("session_cache { shards 999999; }").is_ok());
  EXPECT_EQ(control.generation(), 3u);
  EXPECT_EQ(control.current()->credentials->rsa_key, &test_rsa1024());
  EXPECT_EQ(control.stats().reload_failures, before.reload_failures + 2);
  EXPECT_EQ(control.stats().reloads, 3u);
  ASSERT_TRUE(control.reload_now().is_ok());
  EXPECT_EQ(control.generation(), 4u);

  // The deferred (SIGHUP-style) path: request_reload is acted on by the
  // next supervision pass even with no pool attached.
  control.request_reload();
  const auto rep = control.check_now(/*now_ms=*/123);
  EXPECT_TRUE(rep.reloaded);
  EXPECT_EQ(control.generation(), 5u);
}

TEST(ControlPlane, SessionPlaneShapePreservedAcrossReload) {
  ControlPlane control;
  ASSERT_TRUE(control.load(conf_text(2048, 4, 3, 256, "shed")).is_ok());
  EXPECT_EQ(control.current()->settings.session.cache_shards, 4u);

  // A shard-count edit is a plane SHAPE change: the reload publishes (the
  // generation moves) but keeps the old shape — rebuilding the ticket ring
  // or cache would orphan every outstanding session.
  ASSERT_TRUE(control.load(conf_text(2048, 8, 3, 256, "shed")).is_ok());
  EXPECT_EQ(control.generation(), 2u);
  EXPECT_EQ(control.current()->settings.session.cache_shards, 4u);
  EXPECT_EQ(control.stats().plane_changes_ignored, 1u);

  // Same shape again: publishes normally, no further ignore.
  ASSERT_TRUE(control.load(conf_text(1024, 4, 3, 256, "shed")).is_ok());
  EXPECT_EQ(control.current()->settings.session.cache_shards, 4u);
  EXPECT_EQ(control.stats().plane_changes_ignored, 1u);
}

// The plane the reload rule preserves is the one the first conf shaped: a
// pool built from that conf runs its session_cache{} block, and a later
// reshape is counted and ignored rather than reaching the live plane.
TEST(ControlPool, ReloadKeepsTheConfShapedPlane) {
  ControlPlane control;
  ASSERT_TRUE(control.load(conf_text(2048, 4, 100, 256, "shed")).is_ok());
  qat::DeviceTopology topo(control.current()->settings.topology);
  WorkerPoolOptions options = pool_options_from(control.current()->settings);
  options.worker_config.control = &control;
  WorkerPool pool(&topo, &test_rsa2048(), options);
  ASSERT_TRUE(pool.start(0).is_ok());
  control.attach(&pool);
  EXPECT_EQ(pool.session_plane().config().cache_shards, 4u);
  EXPECT_EQ(pool.session_plane().config().cache_capacity, 512u);

  ASSERT_TRUE(control.load(conf_text(2048, 8, 100, 256, "shed")).is_ok());
  EXPECT_EQ(control.stats().plane_changes_ignored, 1u);
  EXPECT_EQ(control.current()->settings.session.cache_shards, 4u);
  EXPECT_EQ(pool.session_plane().config().cache_shards, 4u);
  EXPECT_EQ(pool.session_plane().cache().shards(), 4u);
  pool.stop();
}

// -------------------------------------------------------- worker plumbing ----

TEST(ControlWorker, AppliesGenerationServesHealthAndReload) {
  ControlPlane control;
  ASSERT_TRUE(control.load(conf_text(2048, 4, 3, 256, "shed")).is_ok());

  engine::SoftwareProvider provider;
  tls::TlsContextConfig scfg;
  scfg.is_server = true;
  scfg.cipher_suites = {tls::CipherSuite::kEcdheRsaWithAes128CbcSha};
  tls::TlsContext ctx(scfg, &provider);
  ctx.credentials().rsa_key = &test_rsa2048();

  WorkerConfig wcfg;
  wcfg.control = &control;
  Worker worker(&ctx, nullptr, wcfg);
  worker.run_once(0);
  EXPECT_EQ(worker.applied_generation(), 1u);

  engine::SoftwareProvider cprov;
  tls::TlsContextConfig ccfg;
  ccfg.cipher_suites = scfg.cipher_suites;
  tls::TlsContext cctx(ccfg, &cprov);

  uint64_t errors = 0;
  std::string body = fetch_body(&worker, &cctx, "/healthz", 6001, &errors);
  EXPECT_EQ(errors, 0u);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);

  // POST /reload runs synchronously: the response carries the generation it
  // published and the serving worker has already applied it.
  body = fetch_body(&worker, &cctx, "/reload", 6002, &errors);
  EXPECT_EQ(errors, 0u);
  EXPECT_NE(body.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(control.generation(), 2u);
  EXPECT_EQ(worker.applied_generation(), 2u);

  // Readiness without an attached pool is 503 (the client counts non-200 as
  // an error by design, so read it through the API).
  int http = 0;
  control.readyz_json(&http);
  EXPECT_EQ(http, 503);

  // /stats carries the control sub-object.
  body = fetch_body(&worker, &cctx, "/stats", 6003, &errors);
  EXPECT_EQ(errors, 0u);
  EXPECT_NE(body.find("\"applied_generation\":2"), std::string::npos);
}

TEST(ControlWorker, InflightHandshakeSurvivesCredentialReload) {
  ControlPlane control;
  ASSERT_TRUE(control.load(conf_text(2048, 4, 3, 256, "shed")).is_ok());

  engine::SoftwareProvider provider;
  tls::TlsContextConfig scfg;
  scfg.is_server = true;
  scfg.cipher_suites = {tls::CipherSuite::kEcdheRsaWithAes128CbcSha};
  tls::TlsContext ctx(scfg, &provider);
  ctx.credentials().rsa_key = &test_rsa2048();

  WorkerConfig wcfg;
  wcfg.control = &control;
  Worker worker(&ctx, nullptr, wcfg);
  worker.run_once(0);

  engine::SoftwareProvider cprov;
  tls::TlsContextConfig ccfg;
  ccfg.cipher_suites = scfg.cipher_suites;
  tls::TlsContext cctx(ccfg, &cprov);

  // Start a handshake: the accept path snapshots generation-1 credentials.
  client::ClientOptions copts;
  copts.max_requests = 1;
  client::HttpsClient a(&cctx, testutil::socketpair_connector(&worker), copts,
                        6101);
  a.step();
  worker.run_once(0);

  // The credential reload lands MID-handshake; the in-flight connection
  // must finish on its snapshot while the worker applies the new generation.
  ASSERT_TRUE(control.load(conf_text(1024, 4, 3, 256, "shed")).is_ok());
  const auto deadline = steady_clock::now() + seconds(30);
  while (a.step() && steady_clock::now() < deadline) worker.run_once(0);
  EXPECT_EQ(a.stats().errors, 0u);
  EXPECT_EQ(a.stats().requests, 1u);
  EXPECT_EQ(worker.applied_generation(), 2u);

  // A fresh accept completes on the new generation.
  client::HttpsClient b(&cctx, testutil::socketpair_connector(&worker), copts,
                        6102);
  while (b.step() && steady_clock::now() < deadline) worker.run_once(0);
  EXPECT_EQ(b.stats().errors, 0u);
  EXPECT_EQ(b.stats().requests, 1u);
}

// ---------------------------------------------------- reload under churn ----

TEST(ControlPool, ReloadUnderChurnKeepsResumptionPerfect) {
  qat::DeviceTopology topo{qat::TopologyConfig{}};
  ControlPlane control;  // auto_recover on: churn must not look like a wedge
  ASSERT_TRUE(control.load(conf_text(2048, 4, 100, 4, "park")).is_ok());

  WorkerPoolOptions options = pool_options_from(control.current()->settings);
  options.tls_config.use_session_tickets = true;
  options.tls_config.cipher_suites = {
      tls::CipherSuite::kEcdheRsaWithAes128CbcSha};
  options.worker_config.control = &control;
  WorkerPool pool(&topo, &test_rsa2048(), options);
  ASSERT_TRUE(pool.start(0).is_ok());
  control.attach(&pool);
  control.install_sighup();
  const uint16_t port = pool.port();

  engine::SoftwareProvider client_provider;
  tls::TlsContextConfig ccfg;
  ccfg.cipher_suites = options.tls_config.cipher_suites;
  tls::TlsContext cctx(ccfg, &client_provider);
  auto connect = [port]() -> int {
    auto fd = net::tcp_connect(port);
    return fd.is_ok() ? fd.value() : -1;
  };

  constexpr int kClients = 8;
  constexpr uint64_t kRequests = 6;
  client::Pool clients;
  for (int i = 0; i < kClients; ++i) {
    client::ClientOptions copts;
    copts.full_handshake_ratio = 0.0;  // offer whenever a session exists
    copts.max_requests = kRequests;
    clients.add(std::make_unique<client::HttpsClient>(
        &cctx, connect, copts, 7000 + static_cast<uint64_t>(i)));
  }
  // Operator clients fired mid-churn: a wire POST /reload and a /readyz.
  client::ClientOptions ropts;
  ropts.path = "/reload";
  ropts.max_requests = 1;
  client::HttpsClient reloader(&cctx, connect, ropts, 7777);
  client::ClientOptions yopts;
  yopts.path = "/readyz";
  yopts.max_requests = 1;
  client::HttpsClient readyz(&cctx, connect, yopts, 7778);

  // Reload schedule keyed off churn progress: SIGHUP -> credential+shape
  // flip -> flip back -> wire /reload (+ /readyz), with a supervision pass
  // at least every 15 ms throughout — the no-false-positive half of the
  // watchdog contract rides along (wedge_events must stay 0).
  int stage = 0;
  auto last_check = steady_clock::now();
  const auto deadline = steady_clock::now() + seconds(120);
  bool all_done = false;
  while (!all_done && steady_clock::now() < deadline) {
    all_done = true;
    for (auto& c : clients.clients())
      if (c->step()) all_done = false;
    if (stage >= 3) {
      if (reloader.step()) all_done = false;
      if (readyz.step()) all_done = false;
    }
    const uint64_t done = clients.aggregate().requests;
    if (stage == 0 && done >= kClients) {
      std::raise(SIGHUP);
      const auto rep = control.check_now(steady_ms());
      EXPECT_TRUE(rep.reloaded);  // -> generation 2
      stage = 1;
    } else if (stage == 1 && done >= 2 * kClients) {
      // Credential swap + an (ignored) plane-shape edit. -> generation 3
      ASSERT_TRUE(control.load(conf_text(1024, 8, 100, 4, "park")).is_ok());
      stage = 2;
    } else if (stage == 2 && done >= 3 * kClients) {
      ASSERT_TRUE(
          control.load(conf_text(2048, 4, 100, 4, "park")).is_ok());  // -> 4
      stage = 3;
    }
    if (steady_clock::now() - last_check >= milliseconds(15)) {
      last_check = steady_clock::now();
      (void)control.check_now(steady_ms());
    }
  }
  ASSERT_TRUE(all_done) << "churn hung across reloads";
  EXPECT_EQ(stage, 3);

  // Zero drops, and a PERFECT resumption hit rate across the credential
  // reloads: the ticket ring and session cache were preserved.
  const client::ClientStats cstats = clients.aggregate();
  EXPECT_EQ(cstats.errors, 0u);
  EXPECT_EQ(cstats.requests, kClients * kRequests);
  EXPECT_EQ(cstats.offered, kClients * (kRequests - 1));
  EXPECT_EQ(cstats.resumed, cstats.offered);

  // The wire reload answered with the generation it published (5: load,
  // SIGHUP, two direct loads, POST /reload).
  EXPECT_EQ(reloader.stats().errors, 0u);
  const std::string rbody(reloader.last_body().begin(),
                          reloader.last_body().end());
  EXPECT_NE(rbody.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(control.generation(), 5u);
  EXPECT_EQ(readyz.stats().errors, 0u);
  const std::string ybody(readyz.last_body().begin(),
                          readyz.last_body().end());
  EXPECT_NE(ybody.find("\"ready\":true"), std::string::npos);

  const auto cs = control.stats();
  EXPECT_EQ(cs.reloads, 5u);
  EXPECT_EQ(cs.reload_failures, 0u);
  EXPECT_GE(cs.plane_changes_ignored, 1u);
  EXPECT_EQ(pool.session_plane().config().cache_shards, 4u);
  EXPECT_EQ(cs.wedge_events, 0u);
  EXPECT_EQ(pool.total_worker_restarts(), 0u);

  // Generation propagation: every worker applies the final generation.
  const auto prop_deadline = steady_clock::now() + seconds(10);
  bool propagated = false;
  while (!propagated && steady_clock::now() < prop_deadline) {
    propagated = true;
    for (const WorkerHeartbeatView& hb : pool.heartbeats())
      if (hb.applied_generation != control.generation()) propagated = false;
    if (!propagated) std::this_thread::sleep_for(milliseconds(2));
  }
  EXPECT_TRUE(propagated);
  pool.stop();
}

// ---------------------------------------------------------------- watchdog ----

TEST(ControlWatchdog, WedgeDetectedRecoveredReadyzFlips) {
  qat::DeviceTopology topo{qat::TopologyConfig{}};
  ControlPlane::Options copts;
  copts.auto_recover = false;  // observe the unready window, recover by hand
  ControlPlane control(std::move(copts));
  ASSERT_TRUE(control.load(conf_text(2048, 4, 3, 256, "shed")).is_ok());

  std::atomic<Worker*> wedge_target{nullptr};
  std::atomic<bool> wedge_on{false};

  WorkerPoolOptions options;
  options.workers = 2;
  options.tls_config.async_mode = true;
  options.tls_config.cipher_suites = {
      tls::CipherSuite::kEcdheRsaWithAes128CbcSha};
  options.worker_config.control = &control;
  // Cooperative wedge: the hooked worker spins inside ONE loop pass with no
  // progress until ejected (the crash-only recovery's happy path).
  options.worker_config.loop_hook = [&wedge_target, &wedge_on](Worker& w) {
    if (wedge_target.load(std::memory_order_acquire) != &w) return;
    while (wedge_on.load(std::memory_order_acquire) && !w.eject_requested())
      std::this_thread::sleep_for(milliseconds(1));
  };
  WorkerPool pool(&topo, &test_rsa2048(), options);
  ASSERT_TRUE(pool.start(0).is_ok());
  control.attach(&pool);
  const uint16_t port = pool.port();

  engine::SoftwareProvider client_provider;
  tls::TlsContextConfig ccfg;
  ccfg.cipher_suites = options.tls_config.cipher_suites;
  tls::TlsContext cctx(ccfg, &client_provider);
  auto connect = [port]() -> int {
    auto fd = net::tcp_connect(port);
    return fd.is_ok() ? fd.value() : -1;
  };

  // Park keepalive connections until at least one lands on worker slot 0,
  // identified TSan-safely by the slot's atomic progress counter moving
  // (only the accepting worker's handlers bump it).
  std::vector<std::unique_ptr<client::HttpsClient>> parked;
  size_t conns_on_w0 = 0;
  const auto park_deadline = steady_clock::now() + seconds(60);
  while (conns_on_w0 == 0 && parked.size() < 32 &&
         steady_clock::now() < park_deadline) {
    const uint64_t before = pool.heartbeats()[0].progress;
    client::ClientOptions kopts;
    kopts.keepalive = true;
    kopts.max_requests = 0;  // unlimited: we simply stop stepping it
    auto c = std::make_unique<client::HttpsClient>(
        &cctx, connect, kopts, 8100 + static_cast<uint64_t>(parked.size()));
    const auto one = steady_clock::now() + seconds(30);
    while (c->stats().requests == 0 && c->stats().errors == 0 &&
           steady_clock::now() < one)
      c->step();
    ASSERT_EQ(c->stats().errors, 0u);
    std::this_thread::sleep_for(milliseconds(50));  // worker back to idle
    if (pool.heartbeats()[0].progress > before) ++conns_on_w0;
    parked.push_back(std::move(c));
  }
  ASSERT_GT(conns_on_w0, 0u);
  const size_t live_before =
      common::SlabRegistry::global().totals("server.").live;

  // Wedge worker 0 and drive supervision windows until it is declared.
  wedge_target.store(pool.worker(0), std::memory_order_release);
  wedge_on.store(true, std::memory_order_release);
  std::this_thread::sleep_for(milliseconds(30));  // next pass enters the hook

  uint64_t vnow = 1'000'000;
  int wedged_events = 0;
  for (int i = 0; i < 30 && wedged_events == 0; ++i) {
    std::this_thread::sleep_for(milliseconds(20));
    vnow += 50;
    wedged_events += control.check_now(vnow).wedged;
  }
  EXPECT_EQ(wedged_events, 1);
  EXPECT_FALSE(control.healthy());
  int http = 0;
  std::string body = control.readyz_json(&http);
  EXPECT_EQ(http, 503);
  EXPECT_NE(body.find("\"ready\":false"), std::string::npos);
  body = control.healthz_json(vnow, &http);
  EXPECT_EQ(http, 503);
  EXPECT_NE(body.find("\"wedged\":true"), std::string::npos);
  auto cs = control.stats();
  EXPECT_EQ(cs.wedge_events, 1u);
  EXPECT_GT(cs.last_time_to_detect_ms, 0u);
  EXPECT_EQ(cs.worker_restarts, 0u);  // auto_recover off: still down

  // Crash-only recovery: eject -> the cooperative wedge honours it -> the
  // thread is joined and the worker destructor reaps its slab connections.
  // Clear the target first so a replacement reusing the heap address can
  // never match the hook.
  wedge_target.store(nullptr, std::memory_order_release);
  EXPECT_TRUE(control.recover(0));
  wedge_on.store(false, std::memory_order_release);

  cs = control.stats();
  EXPECT_EQ(cs.worker_restarts, 1u);
  EXPECT_EQ(cs.workers_abandoned, 0u);  // joined, not quarantined
  EXPECT_EQ(pool.total_worker_restarts(), 1u);
  EXPECT_TRUE(control.healthy());
  control.readyz_json(&http);
  EXPECT_EQ(http, 200);

  // Slab conservation: exactly the wedged worker's connections went home.
  EXPECT_EQ(common::SlabRegistry::global().totals("server.").live,
            live_before - conns_on_w0);

  // The replacement accepts on the same reuseport share: keep probing until
  // slot 0's (fresh) progress counter moves.
  const auto serve_deadline = steady_clock::now() + seconds(60);
  bool replacement_hit = false;
  uint64_t seed = 8600;
  while (!replacement_hit && steady_clock::now() < serve_deadline) {
    const uint64_t before = pool.heartbeats()[0].progress;
    client::ClientOptions sopts;
    sopts.max_requests = 1;
    client::HttpsClient c(&cctx, connect, sopts, seed++);
    const auto one = steady_clock::now() + seconds(30);
    while (c.step() && steady_clock::now() < one) {
    }
    EXPECT_EQ(c.stats().errors, 0u);
    std::this_thread::sleep_for(milliseconds(20));
    if (pool.heartbeats()[0].progress > before) replacement_hit = true;
  }
  EXPECT_TRUE(replacement_hit);
  pool.stop();
}

TEST(ControlWatchdog, BusyWorkerHeldNotWedged) {
  qat::DeviceTopology topo{qat::TopologyConfig{}};
  ControlPlane control;  // auto_recover ON: a hold that misfires would restart
  ASSERT_TRUE(control.load(conf_text(2048, 4, 3, 256, "shed")).is_ok());

  std::atomic<bool> busy_on{false};
  WorkerPoolOptions options;
  options.workers = 1;
  options.tls_config.async_mode = true;
  options.tls_config.cipher_suites = {
      tls::CipherSuite::kEcdheRsaWithAes128CbcSha};
  options.worker_config.control = &control;
  // Busy, not wedged: one very long pass whose "handlers" keep advancing
  // the progress counter — the supervisor must hold, never restart.
  options.worker_config.loop_hook = [&busy_on](Worker& w) {
    while (busy_on.load(std::memory_order_acquire) && !w.eject_requested()) {
      w.note_progress();
      std::this_thread::sleep_for(milliseconds(1));
    }
  };
  WorkerPool pool(&topo, &test_rsa2048(), options);
  ASSERT_TRUE(pool.start(0).is_ok());
  control.attach(&pool);

  busy_on.store(true, std::memory_order_release);
  std::this_thread::sleep_for(milliseconds(30));

  uint64_t vnow = 500'000;
  int busy = 0, wedged = 0;
  for (int i = 0; i < 8; ++i) {
    std::this_thread::sleep_for(milliseconds(20));
    vnow += 50;
    const auto rep = control.check_now(vnow);
    busy += rep.busy;
    wedged += rep.wedged;
  }
  EXPECT_GE(busy, 2);
  EXPECT_EQ(wedged, 0);
  EXPECT_TRUE(control.healthy());
  const auto cs = control.stats();
  EXPECT_GE(cs.busy_holds, 2u);
  EXPECT_EQ(cs.wedge_events, 0u);
  EXPECT_EQ(cs.worker_restarts, 0u);
  EXPECT_EQ(pool.total_worker_restarts(), 0u);

  // Released: the pass completes and the next windows score fresh again.
  busy_on.store(false, std::memory_order_release);
  int fresh = 0;
  for (int i = 0; i < 30 && fresh == 0; ++i) {
    std::this_thread::sleep_for(milliseconds(20));
    vnow += 50;
    fresh += control.check_now(vnow).fresh;
  }
  EXPECT_GT(fresh, 0);
  pool.stop();
}

// ------------------------------------------------------------------ EINTR ----

void noop_signal_handler(int) {}

struct ScopedSigusr1 {
  struct sigaction old {};
  ScopedSigusr1() {
    struct sigaction sa {};
    sa.sa_handler = noop_signal_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // deliberately no SA_RESTART: force EINTR
    ::sigaction(SIGUSR1, &sa, &old);
  }
  ~ScopedSigusr1() { ::sigaction(SIGUSR1, &old, nullptr); }
};

TEST(TransportEintr, BlockingReadRetries) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  net::SocketTransport t(sv[0]);
  // The transport sets O_NONBLOCK; clear it so read() sleeps in the kernel
  // where a non-SA_RESTART signal interrupts it with EINTR.
  const int fl = ::fcntl(sv[0], F_GETFL, 0);
  ASSERT_EQ(::fcntl(sv[0], F_SETFL, fl & ~O_NONBLOCK), 0);

  ScopedSigusr1 guard;
  pthread_t reader = pthread_self();
  std::thread kicker([reader, fd = sv[1]] {
    for (int i = 0; i < 3; ++i) {
      std::this_thread::sleep_for(milliseconds(20));
      pthread_kill(reader, SIGUSR1);
    }
    std::this_thread::sleep_for(milliseconds(20));
    (void)::write(fd, "x", 1);
  });

  uint8_t buf[8] = {0};
  const tls::IoResult r = t.read(buf, sizeof buf);
  kicker.join();
  // Without the retry loop the first EINTR surfaces as kError and the
  // connection would be torn down mid-reload.
  EXPECT_EQ(r.status, tls::IoStatus::kOk);
  EXPECT_EQ(r.bytes, 1u);
  EXPECT_EQ(buf[0], 'x');
  ::close(sv[1]);
}

TEST(TransportEintr, BlockingWriteRetries) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  int sndbuf = 4096;
  ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);
  net::SocketTransport t(sv[0]);

  // Fill the (non-blocking) send buffer until it pushes back...
  std::vector<uint8_t> chunk(65536, 0xaa);
  while (t.write(chunk.data(), chunk.size()).status == tls::IoStatus::kOk) {
  }
  // ...then switch to blocking so the next write sleeps in the kernel.
  const int fl = ::fcntl(sv[0], F_GETFL, 0);
  ASSERT_EQ(::fcntl(sv[0], F_SETFL, fl & ~O_NONBLOCK), 0);

  ScopedSigusr1 guard;
  pthread_t writer = pthread_self();
  std::atomic<bool> done{false};
  std::thread kicker([writer, fd = sv[1], &done] {
    std::this_thread::sleep_for(milliseconds(30));
    pthread_kill(writer, SIGUSR1);
    std::this_thread::sleep_for(milliseconds(30));
    std::vector<uint8_t> sink(65536);
    while (!done.load(std::memory_order_acquire)) {
      if (::recv(fd, sink.data(), sink.size(), MSG_DONTWAIT) < 0)
        std::this_thread::sleep_for(milliseconds(1));
    }
  });

  const tls::IoResult r = t.write(chunk.data(), chunk.size());
  done.store(true, std::memory_order_release);
  kicker.join();
  EXPECT_EQ(r.status, tls::IoStatus::kOk);
  EXPECT_GT(r.bytes, 0u);
  ::close(sv[1]);
}

// --------------------------------------------------------- set_nonblocking ----

TEST(SetNonblocking, BadFdErrorPropagatesThroughAdopt) {
  EXPECT_FALSE(net::set_nonblocking(-1).is_ok());
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  EXPECT_TRUE(net::set_nonblocking(sv[0]).is_ok());
  ::close(sv[0]);
  ::close(sv[1]);

  engine::SoftwareProvider provider;
  tls::TlsContextConfig scfg;
  scfg.is_server = true;
  scfg.cipher_suites = {tls::CipherSuite::kEcdheRsaWithAes128CbcSha};
  tls::TlsContext ctx(scfg, &provider);
  ctx.credentials().rsa_key = &test_rsa2048();
  Worker worker(&ctx, nullptr, WorkerConfig{});
  // A fd that cannot be made non-blocking must be REJECTED at adopt — a
  // silently-blocking fd would stall the whole event loop on its first read.
  EXPECT_FALSE(worker.adopt(-1).is_ok());
  EXPECT_EQ(worker.alive_connections(), 0u);
}

}  // namespace
}  // namespace qtls::server
