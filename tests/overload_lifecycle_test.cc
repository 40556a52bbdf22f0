// Overload-control plane lifecycle tests (DESIGN.md §10): per-connection
// deadlines on the event loop's timer wheel (virtual clock — every timeout
// here is deterministic), admission control with shed/park past the cap,
// and graceful drain on both transports (socketpair-adopted worker and a
// TCP WorkerPool).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "client/https_client.h"
#include "crypto/keystore.h"
#include "server/worker_pool.h"
#include "server_test_util.h"

namespace qtls::server {
namespace {

using testutil::run_to_completion;
using testutil::socketpair_connector;

// A TLS client driven by hand against a Worker in the same thread: the test
// controls exactly when bytes move and when the (virtual) clock advances.
struct ManualClient {
  int fd;
  net::SocketTransport transport;
  tls::TlsConnection tls;

  ManualClient(tls::TlsContext* ctx, int client_fd)
      : fd(client_fd), transport(client_fd), tls(ctx, &transport) {}
};

// Single software worker with an injectable virtual clock. No QAT: every
// TLS entry point completes synchronously, so one run_once settles each
// flight and the only thing that can time out is the peer.
struct SoftRig {
  engine::SoftwareProvider server_provider{3};
  std::unique_ptr<tls::TlsContext> server_ctx;
  engine::SoftwareProvider client_provider{99};
  std::unique_ptr<tls::TlsContext> client_ctx;
  std::unique_ptr<Worker> worker;
  uint64_t vnow = 1000;  // virtual milliseconds

  explicit SoftRig(WorkerConfig wcfg) {
    tls::TlsContextConfig scfg;
    scfg.is_server = true;
    scfg.cipher_suites = {tls::CipherSuite::kTlsRsaWithAes128CbcSha};
    scfg.drbg_seed = 1;
    server_ctx = std::make_unique<tls::TlsContext>(scfg, &server_provider);
    server_ctx->credentials().rsa_key = &test_rsa2048();

    tls::TlsContextConfig ccfg;
    ccfg.cipher_suites = scfg.cipher_suites;
    ccfg.drbg_seed = 2;
    client_ctx = std::make_unique<tls::TlsContext>(ccfg, &client_provider);

    wcfg.clock = [this] { return vnow; };
    worker = std::make_unique<Worker>(server_ctx.get(), nullptr, wcfg);
  }

  // Returns the client end of a freshly adopted socketpair (or -1).
  int adopt_pair() {
    auto pair = net::make_socketpair();
    if (!pair.is_ok()) return -1;
    (void)worker->adopt(pair.value().second);
    return pair.value().first;
  }
};

bool pump_handshake(SoftRig& rig, ManualClient& client, int iters = 200) {
  for (int i = 0; i < iters; ++i) {
    const tls::TlsResult r = client.tls.handshake();
    rig.worker->run_once(0);
    if (r == tls::TlsResult::kOk && client.tls.handshake_complete())
      return true;
  }
  return false;
}

// One full request/response round trip; the response body lands in *body.
bool pump_request(SoftRig& rig, ManualClient& client, const std::string& path,
                  Bytes* body, bool keepalive = true) {
  if (client.tls.write(build_http_request(path, keepalive)) !=
      tls::TlsResult::kOk)
    return false;
  Bytes rx;
  for (int i = 0; i < 2000; ++i) {
    rig.worker->run_once(0);
    Bytes chunk;
    const tls::TlsResult r = client.tls.read(&chunk);
    if (r == tls::TlsResult::kOk) append(rx, chunk);
    else if (r != tls::TlsResult::kWantRead) return false;
    auto head = parse_http_response_head(rx);
    if (head.has_value() &&
        rx.size() >= head->header_bytes + head->content_length) {
      body->assign(rx.begin() + static_cast<long>(head->header_bytes),
                   rx.end());
      return true;
    }
  }
  return false;
}

// ----------------------------------------------------------- timeouts ----

TEST(Slowloris, HalfOpenHandshakeClosedAtDeadline) {
  WorkerConfig wcfg;
  wcfg.overload.handshake_timeout_ms = 5000;
  SoftRig rig(wcfg);

  const int fd = rig.adopt_pair();
  ASSERT_GE(fd, 0);
  // The trickle: two bytes of a TLS record header, then silence.
  ASSERT_EQ(::send(fd, "\x16\x03", 2, 0), 2);
  for (int i = 0; i < 5; ++i) rig.worker->run_once(0);
  EXPECT_EQ(rig.worker->alive_connections(), 1u);
  EXPECT_EQ(rig.worker->handshaking_connections(), 1u);

  // One millisecond short: nothing fires.
  rig.vnow += 4999;
  rig.worker->run_once(0);
  EXPECT_EQ(rig.worker->alive_connections(), 1u);

  rig.vnow += 2;
  rig.worker->run_once(0);
  EXPECT_EQ(rig.worker->alive_connections(), 0u);
  EXPECT_EQ(rig.worker->handshaking_connections(), 0u);
  EXPECT_EQ(rig.worker->overload_stats().handshake_timeouts, 1u);

  // The peer got a fatal user_canceled alert, then FIN.
  uint8_t buf[16];
  const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
  ASSERT_GE(n, 7);
  EXPECT_EQ(buf[0], 0x15);  // ContentType alert
  EXPECT_EQ(::recv(fd, buf, sizeof buf, 0), 0);  // EOF
  ::close(fd);
}

TEST(Slowloris, AsyncParkedHandshakeTimeoutReclaimsSlotAndCapSheds) {
  // QAT worker whose timer-scheme polling thread sleeps an hour between
  // polls: an offloaded op stays in flight until someone polls, which
  // freezes the handshake at the park — the async flavour of a half-open
  // connection. The worker stops the thread without waiting out the hour.
  qat::QatDevice device;
  engine::QatEngineConfig qcfg;
  engine::QatEngineProvider qat(device.allocate_instance(), qcfg);

  tls::TlsContextConfig scfg;
  scfg.is_server = true;
  scfg.async_mode = true;
  scfg.cipher_suites = {tls::CipherSuite::kTlsRsaWithAes128CbcSha};
  scfg.drbg_seed = 1;
  tls::TlsContext server_ctx(scfg, &qat);
  server_ctx.credentials().rsa_key = &test_rsa2048();

  engine::SoftwareProvider client_provider(99);
  tls::TlsContextConfig ccfg;
  ccfg.cipher_suites = scfg.cipher_suites;
  ccfg.drbg_seed = 2;
  tls::TlsContext client_ctx(ccfg, &client_provider);

  uint64_t vnow = 1000;
  WorkerConfig wcfg;
  wcfg.poll = PollScheme::kTimer;  // no tick in the test: parks never resume
  wcfg.timer_interval = std::chrono::hours(1);
  wcfg.overload.handshake_timeout_ms = 3000;
  wcfg.overload.max_async_inflight = 1;
  wcfg.clock = [&vnow] { return vnow; };
  Worker worker(&server_ctx, &qat, wcfg);

  auto pair = net::make_socketpair();
  ASSERT_TRUE(pair.is_ok());
  ASSERT_TRUE(worker.adopt(pair.value().second).is_ok());
  ManualClient client(&client_ctx, pair.value().first);

  for (int i = 0; i < 200 && qat.inflight_total() == 0; ++i) {
    (void)client.tls.handshake();
    worker.run_once(0);
  }
  ASSERT_GT(qat.inflight_total(), 0u);
  ASSERT_GE(worker.stats().async_parks, 1u);

  // Past the async-inflight cap, a new accept is shed pre-handshake.
  auto pair2 = net::make_socketpair();
  ASSERT_TRUE(pair2.is_ok());
  ASSERT_TRUE(worker.adopt(pair2.value().second).is_ok());
  EXPECT_EQ(worker.overload_stats().shed, 1u);
  uint8_t b;
  EXPECT_EQ(::recv(pair2.value().first, &b, 1, 0), 0);  // clean FIN, no data
  ::close(pair2.value().first);

  // Deadline expiry: the connection dies, the paused fiber is drained and
  // the in-flight slot comes back (the PR 2 abandoned-op sweep).
  vnow += 3001;
  worker.run_once(0);
  EXPECT_EQ(worker.alive_connections(), 0u);
  EXPECT_EQ(worker.overload_stats().handshake_timeouts, 1u);
  EXPECT_EQ(qat.inflight_total(), 0u);
  ::close(client.fd);
}

TEST(Slowloris, WriteStallClosedDespitePartialProgress) {
  WorkerConfig wcfg;
  wcfg.overload.write_stall_timeout_ms = 10000;
  wcfg.response_body_size = 1 << 20;  // far beyond the socketpair buffer
  SoftRig rig(wcfg);

  const int fd = rig.adopt_pair();
  ASSERT_GE(fd, 0);
  ManualClient client(rig.client_ctx.get(), fd);
  ASSERT_TRUE(pump_handshake(rig, client));

  // Request the megabyte, then refuse to read it: the server's transport
  // backpressures and the write-stall deadline arms.
  ASSERT_EQ(client.tls.write(build_http_request("/index.html", true)),
            tls::TlsResult::kOk);
  for (int i = 0; i < 10; ++i) rig.worker->run_once(0);
  EXPECT_EQ(rig.worker->alive_connections(), 1u);

  // Trickle like the classic attack: drain a sliver now and then. Partial
  // progress must NOT push the deadline out.
  uint8_t sink[65536];
  rig.vnow += 4000;
  ASSERT_GT(::recv(fd, sink, sizeof sink, 0), 0);
  for (int i = 0; i < 5; ++i) rig.worker->run_once(0);
  rig.vnow += 4000;
  ASSERT_GT(::recv(fd, sink, sizeof sink, 0), 0);
  for (int i = 0; i < 5; ++i) rig.worker->run_once(0);
  EXPECT_EQ(rig.worker->alive_connections(), 1u);  // 8s < 10s: still alive

  rig.vnow += 2001;  // 10001 ms after the stall began
  rig.worker->run_once(0);
  EXPECT_EQ(rig.worker->alive_connections(), 0u);
  EXPECT_EQ(rig.worker->overload_stats().write_stall_timeouts, 1u);
  ::close(fd);
}

TEST(Timeouts, IdleKeepaliveClosedWithCloseNotify) {
  WorkerConfig wcfg;
  wcfg.overload.idle_timeout_ms = 30000;
  SoftRig rig(wcfg);

  const int fd = rig.adopt_pair();
  ASSERT_GE(fd, 0);
  ManualClient client(rig.client_ctx.get(), fd);
  ASSERT_TRUE(pump_handshake(rig, client));
  Bytes body;
  ASSERT_TRUE(pump_request(rig, client, "/index.html", &body));
  EXPECT_EQ(rig.worker->idle_connections(), 1u);

  rig.vnow += 30001;
  rig.worker->run_once(0);
  EXPECT_EQ(rig.worker->alive_connections(), 0u);
  EXPECT_EQ(rig.worker->overload_stats().idle_timeouts, 1u);

  // An orderly goodbye: the client reads close_notify, not a reset.
  Bytes chunk;
  EXPECT_EQ(client.tls.read(&chunk), tls::TlsResult::kClosed);
  ::close(fd);
}

// ---------------------------------------------------------- admission ----

TEST(Admission, ShedAtFourTimesCapWithCleanCloses) {
  WorkerConfig wcfg;
  wcfg.overload.max_handshaking = 2;
  wcfg.overload.past_cap = OverloadConfig::PastCap::kShed;
  SoftRig rig(wcfg);

  // 8 simultaneous accepts against a cap of 2 — the 4x overload of the
  // acceptance criterion. The first two are admitted, six are shed.
  int admitted[2];
  int shed[6];
  for (int i = 0; i < 2; ++i) admitted[i] = rig.adopt_pair();
  for (int i = 0; i < 6; ++i) shed[i] = rig.adopt_pair();
  EXPECT_EQ(rig.worker->alive_connections(), 2u);
  EXPECT_EQ(rig.worker->overload_stats().shed, 6u);

  // Shed connections get a clean close: immediate EOF, no stray bytes.
  for (int i = 0; i < 6; ++i) {
    uint8_t b;
    EXPECT_EQ(::recv(shed[i], &b, 1, 0), 0) << "shed conn " << i;
    ::close(shed[i]);
  }

  // Admitted connections are unaffected: both complete handshake + request,
  // and GET /stats reports the shed decisions.
  ManualClient c0(rig.client_ctx.get(), admitted[0]);
  ManualClient c1(rig.client_ctx.get(), admitted[1]);
  ASSERT_TRUE(pump_handshake(rig, c0));
  ASSERT_TRUE(pump_handshake(rig, c1));
  EXPECT_EQ(rig.worker->handshaking_connections(), 0u);
  Bytes stats_body;
  ASSERT_TRUE(pump_request(rig, c0, "/stats", &stats_body));
  const std::string json = to_string(stats_body);
  EXPECT_NE(json.find("\"overload\":"), std::string::npos);
  EXPECT_NE(json.find("\"shed\":6"), std::string::npos);
  ::close(admitted[0]);
  ::close(admitted[1]);
}

TEST(Admission, ParkAdmitsAsCapacityFrees) {
  WorkerConfig wcfg;
  wcfg.overload.max_handshaking = 1;
  wcfg.overload.past_cap = OverloadConfig::PastCap::kPark;
  wcfg.overload.park_backlog = 8;
  SoftRig rig(wcfg);

  client::Pool pool;
  for (int i = 0; i < 4; ++i) {
    client::ClientOptions copts;
    copts.max_requests = 1;
    pool.add(std::make_unique<client::HttpsClient>(
        rig.client_ctx.get(), socketpair_connector(rig.worker.get()), copts,
        700 + static_cast<uint64_t>(i)));
  }
  ASSERT_TRUE(run_to_completion(rig.worker.get(), &pool));
  EXPECT_EQ(pool.aggregate().errors, 0u);
  EXPECT_EQ(pool.aggregate().requests, 4u);
  // With a cap of one, three of the four accepts had to wait in the park
  // and every one of them was admitted once capacity freed.
  EXPECT_EQ(rig.worker->overload_stats().parked, 3u);
  EXPECT_EQ(rig.worker->overload_stats().admitted_from_park, 3u);
  EXPECT_EQ(rig.worker->overload_stats().shed, 0u);
  EXPECT_EQ(rig.worker->stats().accepted, 4u);
}

TEST(Admission, ParkOverflowSheds) {
  WorkerConfig wcfg;
  wcfg.overload.max_handshaking = 1;
  wcfg.overload.past_cap = OverloadConfig::PastCap::kPark;
  wcfg.overload.park_backlog = 1;
  SoftRig rig(wcfg);

  int fds[4];
  for (int i = 0; i < 4; ++i) fds[i] = rig.adopt_pair();
  EXPECT_EQ(rig.worker->alive_connections(), 1u);
  EXPECT_EQ(rig.worker->parked_accepts(), 1u);
  EXPECT_EQ(rig.worker->overload_stats().parked, 1u);
  EXPECT_EQ(rig.worker->overload_stats().park_overflow, 2u);
  EXPECT_EQ(rig.worker->overload_stats().shed, 2u);
  for (int i = 0; i < 4; ++i) ::close(fds[i]);
}

// S1 regression (DESIGN.md §14): a parked accept ages against the handshake
// deadline like an admitted connection. Pre-fix the backlog held raw fds
// with no deadline at all — a peer that hit its handshake deadline simply
// never left the park, and the deadline path that should have removed it
// had a node-destroyed-while-linked lifetime bug this test pins down
// (run under ASan: the unlink must happen before the slab slot recycles).
TEST(Admission, ParkedAcceptAgedOutAtHandshakeDeadline) {
  WorkerConfig wcfg;
  wcfg.overload.max_handshaking = 1;
  wcfg.overload.handshake_timeout_ms = 5000;
  wcfg.overload.past_cap = OverloadConfig::PastCap::kPark;
  wcfg.overload.park_backlog = 8;
  SoftRig rig(wcfg);

  // A half-open handshake holds the single slot (deadline at t=6000)...
  const int fd_hog = rig.adopt_pair();
  ASSERT_GE(fd_hog, 0);
  ASSERT_EQ(::send(fd_hog, "\x16\x03", 2, 0), 2);
  rig.worker->run_once(0);
  // ...and two later peers land in the park (deadlines at t=7000).
  rig.vnow = 2000;
  const int fd_p1 = rig.adopt_pair();
  const int fd_p2 = rig.adopt_pair();
  ASSERT_GE(fd_p1, 0);
  ASSERT_GE(fd_p2, 0);
  EXPECT_EQ(rig.worker->parked_accepts(), 2u);

  // The hog's deadline tears it down; the freed slot admits the FIRST
  // parked peer, whose own park deadline is cancelled by the unlink.
  rig.vnow = 6500;
  for (int i = 0; i < 3; ++i) rig.worker->run_once(0);
  EXPECT_EQ(rig.worker->overload_stats().handshake_timeouts, 1u);
  EXPECT_EQ(rig.worker->overload_stats().admitted_from_park, 1u);
  EXPECT_EQ(rig.worker->overload_stats().park_timeouts, 0u);
  EXPECT_EQ(rig.worker->parked_accepts(), 1u);

  // The second peer is still parked when ITS deadline passes: unlinked from
  // the backlog, counted, closed, slab slot released.
  rig.vnow = 7500;
  for (int i = 0; i < 3; ++i) rig.worker->run_once(0);
  EXPECT_EQ(rig.worker->overload_stats().park_timeouts, 1u);
  EXPECT_EQ(rig.worker->parked_accepts(), 0u);

  // The backlog links survived the mid-life removal: parking again works
  // (a dangling node here is what ASan caught pre-fix).
  const int fd_p3 = rig.adopt_pair();
  ASSERT_GE(fd_p3, 0);
  EXPECT_EQ(rig.worker->parked_accepts(), 1u);

  ::close(fd_hog);
  ::close(fd_p1);
  ::close(fd_p2);
  ::close(fd_p3);
}

// -------------------------------------------------------------- drain ----

TEST(Drain, WorkerDrainsIdleThenForceClosesAtDeadline) {
  WorkerConfig wcfg;
  SoftRig rig(wcfg);

  // Connection A: admitted, served, now an idle keepalive.
  const int fd_a = rig.adopt_pair();
  ASSERT_GE(fd_a, 0);
  ManualClient client_a(rig.client_ctx.get(), fd_a);
  ASSERT_TRUE(pump_handshake(rig, client_a));
  Bytes body;
  ASSERT_TRUE(pump_request(rig, client_a, "/index.html", &body));

  // Connection B: a handshake that will never finish.
  const int fd_b = rig.adopt_pair();
  ASSERT_GE(fd_b, 0);
  ASSERT_EQ(::send(fd_b, "\x16\x03", 2, 0), 2);
  for (int i = 0; i < 5; ++i) rig.worker->run_once(0);
  ASSERT_EQ(rig.worker->alive_connections(), 2u);
  const uint64_t accepted_before = rig.worker->stats().accepted;

  rig.worker->request_drain(5000);
  rig.worker->run_once(0);  // begin_drain: idle A closed, in-flight B kept
  EXPECT_TRUE(rig.worker->draining());
  EXPECT_FALSE(rig.worker->drained());
  EXPECT_EQ(rig.worker->alive_connections(), 1u);
  Bytes chunk;
  EXPECT_EQ(client_a.tls.read(&chunk), tls::TlsResult::kClosed);

  // No new accepts once the drain began.
  const int fd_late = rig.adopt_pair();
  ASSERT_GE(fd_late, 0);
  EXPECT_EQ(rig.worker->stats().accepted, accepted_before);
  EXPECT_EQ(rig.worker->overload_stats().drain_refused, 1u);
  uint8_t b;
  EXPECT_EQ(::recv(fd_late, &b, 1, 0), 0);  // refused: clean FIN
  ::close(fd_late);

  // The straggler survives until the deadline, not a tick longer.
  rig.vnow += 4999;
  rig.worker->run_once(0);
  EXPECT_EQ(rig.worker->alive_connections(), 1u);
  rig.vnow += 2;
  rig.worker->run_once(0);
  EXPECT_EQ(rig.worker->alive_connections(), 0u);
  EXPECT_TRUE(rig.worker->drained());
  EXPECT_EQ(rig.worker->overload_stats().drain_force_closed, 1u);
  ::close(fd_a);
  ::close(fd_b);
}

TEST(Drain, TcpPoolShutdownCompletesAndStopsAccepting) {
  qat::DeviceTopology topo{qat::TopologyConfig{}};
  WorkerPoolOptions options;
  options.workers = 2;
  options.tls_config.async_mode = true;
  options.tls_config.cipher_suites = {
      tls::CipherSuite::kTlsRsaWithAes128CbcSha};

  WorkerPool pool(&topo, &test_rsa2048(), options);
  ASSERT_TRUE(pool.start(0).is_ok());
  const uint16_t port = pool.port();

  engine::SoftwareProvider client_provider;
  tls::TlsContextConfig ccfg;
  ccfg.cipher_suites = options.tls_config.cipher_suites;
  tls::TlsContext cctx(ccfg, &client_provider);

  // Phase 1: real requests complete before the drain.
  client::Pool clients;
  for (int i = 0; i < 2; ++i) {
    client::ClientOptions copts;
    copts.max_requests = 2;
    copts.keepalive = true;
    clients.add(std::make_unique<client::HttpsClient>(
        &cctx,
        [port]() -> int {
          auto fd = net::tcp_connect(port);
          return fd.is_ok() ? fd.value() : -1;
        },
        copts, 8000 + static_cast<uint64_t>(i)));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool all_done = false;
  while (!all_done && std::chrono::steady_clock::now() < deadline) {
    all_done = true;
    for (auto& c : clients.clients()) {
      if (c->step()) all_done = false;
    }
  }
  ASSERT_TRUE(all_done);
  ASSERT_EQ(clients.aggregate().errors, 0u);

  // Phase 2: three half-open TCP connections that never send a byte; only
  // the drain deadline can get rid of them.
  int raw[3];
  for (int i = 0; i < 3; ++i) {
    auto fd = net::tcp_connect(port);
    ASSERT_TRUE(fd.is_ok());
    raw[i] = fd.value();
  }
  // Let the workers accept them (real time: they are on their own threads).
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));

  const auto t0 = std::chrono::steady_clock::now();
  pool.shutdown(/*deadline_ms=*/300);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Force-close bounds the drain: well past 300 ms but nowhere near the
  // 60 s hang a lost connection would cause.
  EXPECT_LT(elapsed, std::chrono::seconds(30));

  const WorkerPoolStats wstats = pool.stats();
  EXPECT_EQ(wstats.totals.requests_served, 4u);
  EXPECT_EQ(wstats.totals.accepted, 2u + 3u);
  // The worker threads are joined, so their overload counters are final.
  uint64_t force_closed = 0;
  for (int i = 0; i < pool.workers(); ++i)
    force_closed += pool.worker(i)->overload_stats().drain_force_closed;
  EXPECT_EQ(force_closed, 3u);

  // No accepts after the drain: a late connect may sit in the kernel
  // backlog, but no worker ever picks it up.
  auto late = net::tcp_connect(port);
  if (late.is_ok()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ::close(late.value());
  }
  EXPECT_EQ(pool.stats().totals.accepted, 5u);
  for (int i = 0; i < 3; ++i) ::close(raw[i]);
}

}  // namespace
}  // namespace qtls::server
