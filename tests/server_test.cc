#include <gtest/gtest.h>

#include "crypto/keystore.h"
#include <chrono>
#include <thread>

#include "qat/fault.h"

#include "server_test_util.h"

namespace qtls::server {
namespace {

using testutil::run_to_completion;
using testutil::socketpair_connector;

// ------------------------------------------------------------- HTTP ----

TEST(Http, ParsesSimpleGet) {
  HttpRequestParser parser;
  parser.feed(to_bytes("GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n"));
  auto req = parser.next();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->path, "/index.html");
  EXPECT_TRUE(req->keepalive);
}

TEST(Http, ParsesIncrementally) {
  HttpRequestParser parser;
  parser.feed(to_bytes("GET / HT"));
  EXPECT_FALSE(parser.next().has_value());
  parser.feed(to_bytes("TP/1.1\r\n"));
  EXPECT_FALSE(parser.next().has_value());
  parser.feed(to_bytes("\r\n"));
  ASSERT_TRUE(parser.next().has_value());
}

TEST(Http, ConnectionCloseDetected) {
  HttpRequestParser parser;
  parser.feed(to_bytes("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
  auto req = parser.next();
  ASSERT_TRUE(req.has_value());
  EXPECT_FALSE(req->keepalive);
}

TEST(Http, PipelinedRequests) {
  HttpRequestParser parser;
  parser.feed(to_bytes("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"));
  auto r1 = parser.next();
  auto r2 = parser.next();
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r1->path, "/a");
  EXPECT_EQ(r2->path, "/b");
}

TEST(Http, ResponseRoundTrip) {
  const Bytes body = to_bytes("hello body");
  const Bytes resp = build_http_response(200, body, true);
  auto head = parse_http_response_head(resp);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->status, 200);
  EXPECT_EQ(head->content_length, body.size());
  EXPECT_TRUE(head->keepalive);
  EXPECT_EQ(resp.size(), head->header_bytes + body.size());
}

TEST(Http, MalformedRequestSetsError) {
  HttpRequestParser parser;
  parser.feed(to_bytes("NONSENSE\r\n\r\n"));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
}

// ------------------------------------------------- parser hardening ----

TEST(HttpLimits, OversizedHeaderBlockFlagsTooLarge) {
  HttpLimits limits;
  limits.max_header_bytes = 256;
  HttpRequestParser parser(limits);
  // A single giant header pushes the buffered-but-incomplete header block
  // past the cap: the parser must flag it without waiting for CRLFCRLF.
  parser.feed(to_bytes("GET / HTTP/1.1\r\nX-Bomb: " +
                       std::string(1024, 'a')));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
  EXPECT_TRUE(parser.too_large());
}

TEST(HttpLimits, CompleteHeaderOverCapFlagsTooLarge) {
  HttpLimits limits;
  limits.max_header_bytes = 64;
  HttpRequestParser parser(limits);
  // Complete (terminated) header that still exceeds the byte cap.
  parser.feed(to_bytes("GET / HTTP/1.1\r\nX-Pad: " + std::string(64, 'b') +
                       "\r\n\r\n"));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.too_large());
}

TEST(HttpLimits, TooManyHeaderLinesFlagsTooLarge) {
  HttpLimits limits;
  limits.max_header_count = 4;
  HttpRequestParser parser(limits);
  std::string req = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 8; ++i)
    req += "X-H" + std::to_string(i) + ": v\r\n";
  req += "\r\n";
  parser.feed(to_bytes(req));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.too_large());
}

TEST(HttpLimits, DefaultsAcceptOrdinaryRequests) {
  HttpRequestParser parser;  // default limits
  std::string req = "GET /index.html HTTP/1.1\r\n";
  for (int i = 0; i < 20; ++i)
    req += "X-H" + std::to_string(i) + ": value\r\n";
  req += "\r\n";
  parser.feed(to_bytes(req));
  ASSERT_TRUE(parser.next().has_value());
  EXPECT_FALSE(parser.too_large());
}

TEST(HttpLimits, ResponseBodyClamped) {
  const Bytes huge(kMaxResponseBody + 4096, 0x5a);
  const Bytes resp = build_http_response(200, huge, false);
  auto head = parse_http_response_head(resp);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->content_length, kMaxResponseBody);
  EXPECT_EQ(resp.size(), head->header_bytes + kMaxResponseBody);
}

// ------------------------------------------------------------- conf ----

TEST(SslEngineConf, ParsesPaperExample) {
  auto settings = parse_ssl_engine_settings(R"(
    worker_processes 8;
    ssl_engine {
        use qat_engine;
        default_algorithm RSA,EC,DH,PKEY_CRYPTO;
        qat_engine {
            qat_offload_mode async;
            qat_notify_mode poll;
            qat_poll_mode heuristic;
            qat_heuristic_poll_asym_threshold 48;
            qat_heuristic_poll_sym_threshold 24;
        }
    }
  )");
  ASSERT_TRUE(settings.is_ok()) << settings.status().to_string();
  const SslEngineSettings& s = settings.value();
  EXPECT_EQ(s.worker_processes, 8);
  EXPECT_EQ(s.engine.offload_mode, engine::OffloadMode::kAsync);
  EXPECT_TRUE(s.engine.offload_rsa);
  EXPECT_TRUE(s.engine.offload_ec);
  EXPECT_EQ(s.notify, NotifyScheme::kKernelBypass);
  EXPECT_EQ(s.poll, PollScheme::kHeuristic);
  EXPECT_EQ(s.heuristic.asym_threshold, 48u);
  EXPECT_EQ(s.heuristic.sym_threshold, 24u);
}

TEST(SslEngineConf, AlgorithmSwitchesAreSelective) {
  auto settings = parse_ssl_engine_settings(R"(
    ssl_engine {
        use qat_engine;
        default_algorithm RSA;
        qat_engine { qat_offload_mode sync; }
    }
  )");
  ASSERT_TRUE(settings.is_ok());
  EXPECT_TRUE(settings.value().engine.offload_rsa);
  EXPECT_FALSE(settings.value().engine.offload_ec);
  EXPECT_FALSE(settings.value().engine.offload_prf);
  EXPECT_EQ(settings.value().engine.offload_mode, engine::OffloadMode::kSync);
}

TEST(SslEngineConf, RejectsInvalidCombos) {
  EXPECT_FALSE(parse_ssl_engine_settings(R"(
    ssl_engine { use qat_engine;
      qat_engine { qat_notify_mode poll; qat_poll_mode timer; } }
  )").is_ok());
  EXPECT_FALSE(parse_ssl_engine_settings(
                   "ssl_engine { qat_engine { qat_offload_mode magic; } }")
                   .is_ok());
  // Inline polling never retrieves a parked async op; straight offload
  // polls inline by itself.
  EXPECT_FALSE(parse_ssl_engine_settings(R"(
    ssl_engine { use qat_engine;
      qat_engine { qat_offload_mode async; qat_poll_mode inline; } }
  )").is_ok());
  EXPECT_TRUE(parse_ssl_engine_settings(R"(
    ssl_engine { use qat_engine;
      qat_engine { qat_offload_mode sync; qat_poll_mode inline; } }
  )").is_ok());
  // The timer scheme's period is at least 1 us.
  EXPECT_FALSE(parse_ssl_engine_settings(R"(
    ssl_engine { use qat_engine; qat_engine { qat_notify_mode fd;
      qat_poll_mode timer; qat_timer_poll_interval 0; } }
  )").is_ok());
  auto timer = parse_ssl_engine_settings(R"(
    ssl_engine { use qat_engine; qat_engine { qat_notify_mode fd;
      qat_poll_mode timer; qat_timer_poll_interval 250; } }
  )");
  ASSERT_TRUE(timer.is_ok());
  EXPECT_EQ(timer.value().timer_interval, std::chrono::microseconds(250));
  EXPECT_FALSE(parse_ssl_engine_settings("worker_processes 0;").is_ok());
  EXPECT_FALSE(
      parse_ssl_engine_settings("ssl_engine { use other_engine; }").is_ok());
}

TEST(SslEngineConf, ParsesTopologyBlock) {
  auto settings = parse_ssl_engine_settings(R"(
    ssl_engine {
        use qat_engine;
        qat_topology {
            devices 4;
            numa_nodes 2;
            spill_threshold 16;
            worker_affinity 0 2 1 3;
        }
        qat_engine { qat_offload_mode async; }
    }
  )");
  ASSERT_TRUE(settings.is_ok()) << settings.status().to_string();
  const qat::TopologyConfig& t = settings.value().topology;
  EXPECT_EQ(t.num_devices, 4);
  EXPECT_EQ(t.numa_nodes, 2);
  EXPECT_EQ(t.spill_threshold, 16u);
  ASSERT_EQ(t.worker_affinity.size(), 4u);
  EXPECT_EQ(t.worker_affinity[1], 2);
  // The explicit map wins over NUMA striping, wrapping past its length.
  qat::DeviceTopology topo(t);
  EXPECT_EQ(topo.preferred_device(1, 8), 2);
  EXPECT_EQ(topo.preferred_device(5, 8), 2);  // wraps: 5 % 4 -> slot 1
  // Defaults when the block is absent: a single device, striping policy.
  auto plain = parse_ssl_engine_settings(
      "ssl_engine { use qat_engine; qat_engine { qat_offload_mode sync; } }");
  ASSERT_TRUE(plain.is_ok());
  EXPECT_EQ(plain.value().topology.num_devices, 1);
  EXPECT_TRUE(plain.value().topology.worker_affinity.empty());
  // Bounds are validated, not clamped.
  EXPECT_FALSE(parse_ssl_engine_settings(
                   "ssl_engine { use qat_engine; qat_topology { devices 0; } }")
                   .is_ok());
  EXPECT_FALSE(parse_ssl_engine_settings(R"(
    ssl_engine { use qat_engine;
      qat_topology { devices 2; worker_affinity 0 7; } }
  )").is_ok());
}

TEST(SslEngineConf, SoftwareOnlyWhenNoEngineBlock) {
  auto settings = parse_ssl_engine_settings("worker_processes 4;");
  ASSERT_TRUE(settings.is_ok());
  EXPECT_EQ(settings.value().worker_processes, 4);
}

TEST(SslEngineConf, ParsesOverloadBlock) {
  auto settings = parse_ssl_engine_settings(R"(
    overload {
        handshake_timeout_ms 5000;
        idle_timeout_ms 30000;
        write_stall_timeout_ms 10000;
        max_handshaking 256;
        max_async_inflight 1024;
        past_cap park;
        park_backlog 32;
        max_header_bytes 4096;
        max_header_count 50;
    }
  )");
  ASSERT_TRUE(settings.is_ok()) << settings.status().to_string();
  const OverloadConfig& ov = settings.value().overload;
  EXPECT_EQ(ov.handshake_timeout_ms, 5000u);
  EXPECT_EQ(ov.idle_timeout_ms, 30000u);
  EXPECT_EQ(ov.write_stall_timeout_ms, 10000u);
  EXPECT_EQ(ov.max_handshaking, 256u);
  EXPECT_EQ(ov.max_async_inflight, 1024u);
  EXPECT_EQ(ov.past_cap, OverloadConfig::PastCap::kPark);
  EXPECT_EQ(ov.park_backlog, 32u);
  EXPECT_EQ(settings.value().http_limits.max_header_bytes, 4096u);
  EXPECT_EQ(settings.value().http_limits.max_header_count, 50u);
}

TEST(SslEngineConf, OverloadDefaultsWhenBlockAbsent) {
  auto settings = parse_ssl_engine_settings("worker_processes 1;");
  ASSERT_TRUE(settings.is_ok());
  const OverloadConfig& ov = settings.value().overload;
  EXPECT_EQ(ov.handshake_timeout_ms, 0u);  // timeouts disabled by default
  EXPECT_EQ(ov.max_handshaking, 0u);       // unlimited by default
  EXPECT_EQ(ov.past_cap, OverloadConfig::PastCap::kShed);
}

TEST(SslEngineConf, RejectsBadOverloadValues) {
  EXPECT_FALSE(parse_ssl_engine_settings(
                   "overload { handshake_timeout_ms -1; }").is_ok());
  EXPECT_FALSE(parse_ssl_engine_settings(
                   "overload { past_cap maybe; }").is_ok());
  EXPECT_FALSE(parse_ssl_engine_settings(
                   "overload { max_header_bytes 8; }").is_ok());
  EXPECT_FALSE(parse_ssl_engine_settings(
                   "overload { max_header_count 0; }").is_ok());
}

// ------------------------------------------------------ async queue ----

TEST(AsyncQueue, FifoAndDrainBoundary) {
  AsyncEventQueue q;
  std::vector<int> order;
  q.push([&] { order.push_back(1); });
  q.push([&] {
    order.push_back(2);
    // Handler queued during drain runs in the NEXT drain.
    q.push([&] { order.push_back(3); });
  });
  EXPECT_EQ(q.drain(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.drain(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.total_pushed(), 3u);
  EXPECT_EQ(q.total_drained(), 3u);
}

// -------------------------------------------------- worker end-to-end ----

struct ServerRig {
  qat::QatDevice device;
  std::unique_ptr<engine::QatEngineProvider> qat;
  std::unique_ptr<engine::SoftwareProvider> software;
  std::unique_ptr<tls::TlsContext> server_ctx;
  engine::SoftwareProvider client_provider{99};
  std::unique_ptr<tls::TlsContext> client_ctx;
  std::unique_ptr<Worker> worker;

  ServerRig(bool use_qat, engine::OffloadMode mode, WorkerConfig wcfg,
            tls::CipherSuite suite = tls::CipherSuite::kTlsRsaWithAes128CbcSha,
            uint64_t extra_service_ns = 0)
      : device([extra_service_ns] {
          qat::DeviceConfig d;
          d.num_endpoints = 1;
          d.engines_per_endpoint = 8;
          d.extra_service_ns = extra_service_ns;
          return d;
        }()) {
    tls::TlsContextConfig scfg;
    scfg.is_server = true;
    scfg.cipher_suites = {suite};
    scfg.drbg_seed = 1;
    engine::CryptoProvider* provider = nullptr;
    if (use_qat) {
      engine::QatEngineConfig qcfg;
      qcfg.offload_mode = mode;
      qat = std::make_unique<engine::QatEngineProvider>(
          device.allocate_instance(), qcfg);
      provider = qat.get();
      scfg.async_mode = mode == engine::OffloadMode::kAsync;
    } else {
      software = std::make_unique<engine::SoftwareProvider>(3);
      provider = software.get();
    }
    server_ctx = std::make_unique<tls::TlsContext>(scfg, provider);
    server_ctx->credentials().rsa_key = &test_rsa2048();
    server_ctx->credentials().ecdsa_p256 = &test_ec_key_p256();
    server_ctx->credentials().ecdsa_p384 = &test_ec_key_p384();

    tls::TlsContextConfig ccfg;
    ccfg.cipher_suites = {suite};
    ccfg.drbg_seed = 2;
    client_ctx = std::make_unique<tls::TlsContext>(ccfg, &client_provider);

    worker = std::make_unique<Worker>(server_ctx.get(), qat.get(), wcfg);
  }
};

TEST(WorkerE2E, SoftwareServerServesRequests) {
  WorkerConfig wcfg;
  wcfg.response_body_size = 256;
  ServerRig rig(false, engine::OffloadMode::kAsync, wcfg);

  client::Pool pool;
  client::ClientOptions copts;
  copts.max_requests = 3;
  pool.add(std::make_unique<client::HttpsClient>(
      rig.client_ctx.get(), socketpair_connector(rig.worker.get()), copts));

  ASSERT_TRUE(run_to_completion(rig.worker.get(), &pool));
  const auto stats = pool.aggregate();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(rig.worker->stats().requests_served, 3u);
  EXPECT_EQ(rig.worker->stats().handshakes_completed, 3u);  // no keepalive
}

TEST(WorkerE2E, QtlsConfigurationFullPipeline) {
  // The full QTLS configuration: async offload + heuristic polling +
  // kernel-bypass notification.
  WorkerConfig wcfg;
  wcfg.notify = NotifyScheme::kKernelBypass;
  wcfg.poll = PollScheme::kHeuristic;
  wcfg.response_body_size = 512;
  ServerRig rig(true, engine::OffloadMode::kAsync, wcfg);

  client::Pool pool;
  client::ClientOptions copts;
  copts.max_requests = 4;
  for (int i = 0; i < 6; ++i) {
    pool.add(std::make_unique<client::HttpsClient>(
        rig.client_ctx.get(), socketpair_connector(rig.worker.get()), copts,
        100 + i));
  }
  ASSERT_TRUE(run_to_completion(rig.worker.get(), &pool));
  const auto stats = pool.aggregate();
  EXPECT_EQ(stats.requests, 24u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(rig.worker->stats().async_parks, 0u);
  // Kernel-bypass delivered every async event through the queue.
  EXPECT_GT(rig.worker->async_queue().total_drained(), 0u);
  // Heuristic polling retrieved the responses.
  ASSERT_NE(rig.worker->poller_stats(), nullptr);
  EXPECT_GT(rig.worker->poller_stats()->polls, 0u);
  EXPECT_EQ(rig.qat->inflight_total(), 0u);
}

TEST(WorkerE2E, FdNotificationConfiguration) {
  // QAT+A-style: async offload + FD notification (heuristic polling kept
  // in-app so the test stays single-threaded deterministic).
  WorkerConfig wcfg;
  wcfg.notify = NotifyScheme::kFd;
  wcfg.poll = PollScheme::kHeuristic;
  ServerRig rig(true, engine::OffloadMode::kAsync, wcfg);

  client::Pool pool;
  client::ClientOptions copts;
  copts.max_requests = 2;
  for (int i = 0; i < 3; ++i) {
    pool.add(std::make_unique<client::HttpsClient>(
        rig.client_ctx.get(), socketpair_connector(rig.worker.get()), copts,
        200 + i));
  }
  ASSERT_TRUE(run_to_completion(rig.worker.get(), &pool));
  EXPECT_EQ(pool.aggregate().errors, 0u);
  EXPECT_EQ(pool.aggregate().requests, 6u);
  // Events travelled via eventfd, not the queue.
  EXPECT_EQ(rig.worker->async_queue().total_pushed(), 0u);
}

TEST(WorkerE2E, TimerTickConfiguration) {
  // QAT+A as evaluated in the paper: a 10 us tick in the worker's own loop
  // retrieves every response.
  WorkerConfig wcfg;
  wcfg.notify = NotifyScheme::kFd;
  wcfg.poll = PollScheme::kTimer;
  ServerRig rig(true, engine::OffloadMode::kAsync, wcfg);

  client::Pool pool;
  client::ClientOptions copts;
  copts.max_requests = 2;
  for (int i = 0; i < 3; ++i) {
    pool.add(std::make_unique<client::HttpsClient>(
        rig.client_ctx.get(), socketpair_connector(rig.worker.get()), copts,
        300 + i));
  }
  ASSERT_TRUE(run_to_completion(rig.worker.get(), &pool));
  EXPECT_EQ(pool.aggregate().errors, 0u);
  EXPECT_GT(rig.qat->stats().polls, 0u);  // the ticks polled the engine
  EXPECT_GT(rig.qat->stats().completed, 0u);
}

TEST(WorkerE2E, StraightOffloadConfiguration) {
  // QAT+S: blocking offload, no async parks at all.
  WorkerConfig wcfg;
  wcfg.poll = PollScheme::kInline;
  ServerRig rig(true, engine::OffloadMode::kSync, wcfg);

  client::Pool pool;
  client::ClientOptions copts;
  copts.max_requests = 2;
  pool.add(std::make_unique<client::HttpsClient>(
      rig.client_ctx.get(), socketpair_connector(rig.worker.get()), copts));
  ASSERT_TRUE(run_to_completion(rig.worker.get(), &pool));
  EXPECT_EQ(pool.aggregate().errors, 0u);
  EXPECT_EQ(rig.worker->stats().async_parks, 0u);
  EXPECT_GT(rig.qat->stats().sync_blocks, 0u);
}

TEST(WorkerE2E, KeepaliveSessionAndResumption) {
  WorkerConfig wcfg;
  wcfg.notify = NotifyScheme::kKernelBypass;
  ServerRig rig(true, engine::OffloadMode::kAsync, wcfg,
                tls::CipherSuite::kEcdheRsaWithAes128CbcSha);

  // Client 1: keepalive — one handshake, many requests.
  {
    client::Pool pool;
    client::ClientOptions copts;
    copts.keepalive = true;
    copts.max_requests = 5;
    pool.add(std::make_unique<client::HttpsClient>(
        rig.client_ctx.get(), socketpair_connector(rig.worker.get()), copts));
    ASSERT_TRUE(run_to_completion(rig.worker.get(), &pool));
    EXPECT_EQ(pool.aggregate().requests, 5u);
    EXPECT_EQ(pool.aggregate().connections, 1u);
  }
  // Client 2: session resumption — all abbreviated after the first.
  {
    client::Pool pool;
    client::ClientOptions copts;
    copts.keepalive = false;
    copts.max_requests = 4;
    copts.full_handshake_ratio = 0.0;  // resume whenever a session exists
    pool.add(std::make_unique<client::HttpsClient>(
        rig.client_ctx.get(), socketpair_connector(rig.worker.get()), copts));
    ASSERT_TRUE(run_to_completion(rig.worker.get(), &pool));
    EXPECT_EQ(pool.aggregate().requests, 4u);
    EXPECT_EQ(pool.aggregate().resumed, 3u);  // first is full
    EXPECT_EQ(rig.worker->stats().resumed_handshakes, 3u);
  }
}

TEST(WorkerE2E, ActiveIdleAccounting) {
  WorkerConfig wcfg;
  ServerRig rig(true, engine::OffloadMode::kAsync, wcfg);
  client::Pool pool;
  client::ClientOptions copts;
  copts.keepalive = true;
  copts.max_requests = 2;
  pool.add(std::make_unique<client::HttpsClient>(
      rig.client_ctx.get(), socketpair_connector(rig.worker.get()), copts));
  // run_to_completion waits for quiescence, not just for the clients: the
  // server's decrypt of the final close_notify is an async offload, and a
  // connection parked on it is active. Asserting TC_active == 0 before that
  // settled raced the engine thread.
  ASSERT_TRUE(run_to_completion(rig.worker.get(), &pool));
  ASSERT_EQ(rig.worker->pending_async_connections(), 0u);
  // Every connection is now gone or idle: TC_active == 0.
  EXPECT_EQ(rig.worker->active_connections(), 0u);
}

TEST(WorkerE2E, ManyConcurrentClientsNoStarvation) {
  WorkerConfig wcfg;
  wcfg.notify = NotifyScheme::kKernelBypass;
  wcfg.heuristic.asym_threshold = 8;  // force coalesced polls with 16 conns
  wcfg.heuristic.sym_threshold = 4;
  ServerRig rig(true, engine::OffloadMode::kAsync, wcfg);

  client::Pool pool;
  client::ClientOptions copts;
  copts.max_requests = 2;
  for (int i = 0; i < 16; ++i) {
    pool.add(std::make_unique<client::HttpsClient>(
        rig.client_ctx.get(), socketpair_connector(rig.worker.get()), copts,
        400 + i));
  }
  ASSERT_TRUE(run_to_completion(rig.worker.get(), &pool));
  const auto stats = pool.aggregate();
  EXPECT_EQ(stats.requests, 32u);
  EXPECT_EQ(stats.errors, 0u);
  // With thresholds this low and 16 concurrent connections, the efficiency
  // trigger must have fired.
  EXPECT_GT(rig.worker->poller_stats()->efficiency_triggers, 0u);
}

// ------------------------------------------- sleeping on the device ----

TEST(WorkerSleep, TimerSchemeSleepsBetweenTicks) {
  // QAT+A: the loop's tick polls the engine and each connection's eventfd
  // wakes epoll, so with ops on a slow device the loop has nothing to spin
  // for between ticks. One handshake is about ten 20 ms ops, some fifty
  // ticks at a coarse 5 ms interval.
  WorkerConfig wcfg;
  wcfg.notify = NotifyScheme::kFd;
  wcfg.poll = PollScheme::kTimer;
  wcfg.timer_interval = std::chrono::milliseconds(5);
  ServerRig rig(true, engine::OffloadMode::kAsync, wcfg,
                tls::CipherSuite::kTlsRsaWithAes128CbcSha,
                /*extra_service_ns=*/20'000'000);

  client::Pool pool;
  client::ClientOptions copts;
  copts.max_requests = 1;
  pool.add(std::make_unique<client::HttpsClient>(
      rig.client_ctx.get(), socketpair_connector(rig.worker.get()), copts));
  ASSERT_TRUE(run_to_completion(rig.worker.get(), &pool, 60,
                                /*timeout_ms=*/100));
  EXPECT_EQ(pool.aggregate().errors, 0u);
  EXPECT_GT(rig.qat->stats().completed, 0u);
  EXPECT_EQ(rig.worker->stats().handshakes_completed, 1u);
  EXPECT_GT(rig.worker->stats().sleeps, 0u);
  // A tick costs its own pass plus the eventfd and socket passes of what it
  // retrieved; a loop that spun between ticks would make thousands.
  const uint64_t ticks = rig.qat->stats().polls;
  const uint64_t passes = rig.worker->heartbeat().iterations.load();
  EXPECT_GT(ticks, 0u);
  EXPECT_LE(passes, 2 * ticks) << ticks << " ticks";
}

TEST(WorkerSleep, ReadyResponseDoesNotWaitForFailover) {
  // Connection B sits mid-handshake waiting for its client, so it counts
  // as active: with A's one op in flight, R_total (1) < TC_active (2) and
  // the timeliness trigger cannot fire. Only the engine's wakeup can
  // retrieve A's response before the 200 ms failover poll.
  WorkerConfig wcfg;
  wcfg.notify = NotifyScheme::kKernelBypass;
  wcfg.poll = PollScheme::kHeuristic;
  wcfg.heuristic.failover_interval_ms = 200;
  ServerRig rig(true, engine::OffloadMode::kAsync, wcfg);
  Worker& worker = *rig.worker;

  auto pair = net::make_socketpair();
  ASSERT_TRUE(pair.is_ok());
  ASSERT_TRUE(worker.adopt(pair.value().second).is_ok());
  net::SocketTransport b_transport(pair.value().first);
  tls::TlsConnection b(rig.client_ctx.get(), &b_transport);
  ASSERT_EQ(b.handshake(), tls::TlsResult::kWantRead);  // ClientHello only
  for (int i = 0; i < 10; ++i) worker.run_once(0);
  ASSERT_EQ(worker.active_connections(), 1u);
  ASSERT_EQ(rig.qat->inflight_total(), 0u);

  client::ClientOptions copts;
  copts.max_requests = 1;
  client::HttpsClient a(rig.client_ctx.get(), socketpair_connector(&worker),
                        copts);
  for (int i = 0; i < 10'000 && rig.qat->inflight_total() == 0; ++i) {
    (void)a.step();
    worker.run_once(0);
  }
  ASSERT_EQ(rig.qat->inflight_total(), 1u);
  ASSERT_EQ(worker.active_connections(), 2u);

  const HeuristicPollerStats before = *worker.poller_stats();
  const auto start = std::chrono::steady_clock::now();
  while (worker.poller_stats()->retrieved == before.retrieved &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(2))
    worker.run_once(1000);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(worker.poller_stats()->retrieved, before.retrieved + 1);
  EXPECT_LT(waited, std::chrono::milliseconds(100));
  const HeuristicPollerStats& after = *worker.poller_stats();
  EXPECT_EQ(after.failover_triggers, 0u);
  EXPECT_EQ(after.timeliness_triggers + after.efficiency_triggers, 0u);
  EXPECT_GE(after.wake_triggers + after.ready_triggers,
            before.wake_triggers + before.ready_triggers + 1);
}

// --------------------------------------------- parking the close seal ----

// A two-engine device with a fault plan, an async QAT server and a client
// context: the rig for the close-seal test below.
struct CloseRig {
  qat::FaultPlan plan;
  qat::QatDevice device;
  engine::QatEngineProvider qat;
  tls::TlsContext server_ctx;
  engine::SoftwareProvider client_provider{99};
  tls::TlsContext client_ctx;
  Worker worker;

  static qat::DeviceConfig device_config(qat::FaultPlan* plan) {
    qat::DeviceConfig d;
    d.num_endpoints = 1;
    d.engines_per_endpoint = 2;
    d.fault_plan = plan;
    return d;
  }
  static tls::TlsContextConfig server_config() {
    tls::TlsContextConfig c;
    c.is_server = true;
    c.async_mode = true;
    c.cipher_suites = {tls::CipherSuite::kTlsRsaWithAes128CbcSha};
    c.drbg_seed = 1;
    return c;
  }
  static tls::TlsContextConfig client_config() {
    tls::TlsContextConfig c;
    c.cipher_suites = {tls::CipherSuite::kTlsRsaWithAes128CbcSha};
    c.drbg_seed = 2;
    return c;
  }
  CloseRig()
      : device(device_config(&plan)),
        qat(device.allocate_instance(), engine::QatEngineConfig{}),
        server_ctx(server_config(), &qat),
        client_ctx(client_config(), &client_provider),
        worker(&server_ctx, &qat, WorkerConfig{}) {
    server_ctx.credentials().rsa_key = &test_rsa2048();
  }

  std::unique_ptr<client::HttpsClient> one_shot_client(uint64_t seed) {
    client::ClientOptions copts;
    copts.keepalive = false;
    copts.max_requests = 1;
    return std::make_unique<client::HttpsClient>(
        &client_ctx, socketpair_connector(&worker), copts, seed);
  }
};

TEST(WorkerClose, CloseNotifySealParksWhileAnotherHandshakeCompletes) {
  // The ordinal of a connection's close_notify seal among cipher ops: the
  // last cipher op one non-keepalive connection makes.
  uint64_t close_seal = 0;
  {
    CloseRig dry;
    client::Pool pool;
    pool.add(dry.one_shot_client(1));
    ASSERT_TRUE(run_to_completion(&dry.worker, &pool));
    ASSERT_EQ(dry.worker.stats().closed, 1u);
    close_seal = dry.plan.ops_seen(qat::OpKind::kCipher16k);
    ASSERT_GT(close_seal, 0u);
  }

  // Stall one engine for 300 ms on A's close_notify seal. B's handshake,
  // served by the other engine, completes while A is still closing: the
  // worker parks A rather than polling until its seal returns.
  CloseRig rig;
  rig.plan.schedule(qat::OpKind::kCipher16k, close_seal,
                    qat::FaultKind::kStall, 300'000'000);
  auto a = rig.one_shot_client(1);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (a->stats().requests == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    (void)a->step();
    rig.worker.run_once(0);
  }
  ASSERT_EQ(a->stats().requests, 1u);

  auto b = rig.one_shot_client(2);
  const auto b_start = std::chrono::steady_clock::now();
  while (b->stats().connections == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    (void)a->step();
    (void)b->step();
    rig.worker.run_once(0);
  }
  const auto b_handshake = std::chrono::steady_clock::now() - b_start;
  ASSERT_EQ(b->stats().connections, 1u);
  EXPECT_EQ(rig.worker.stats().closed, 0u)
      << "A closed before B's handshake completed: the worker waited on A's "
         "close_notify seal";
  EXPECT_LT(b_handshake, std::chrono::milliseconds(250));

  client::Pool rest;
  rest.add(std::move(a));
  rest.add(std::move(b));
  ASSERT_TRUE(run_to_completion(&rig.worker, &rest));
  EXPECT_EQ(rest.aggregate().errors, 0u);
  EXPECT_EQ(rig.worker.stats().closed, 2u);
  EXPECT_EQ(rig.worker.stats().errors, 0u);
  EXPECT_EQ(rig.plan.counters().injected_stalls.load(), 1u);
}

TEST(HeuristicPoller, TimelinessTriggerFiresWhenAllActiveBlocked) {
  qat::DeviceConfig dcfg;
  dcfg.num_endpoints = 1;
  dcfg.engines_per_endpoint = 2;
  qat::QatDevice device(dcfg);
  engine::QatEngineConfig qcfg;
  engine::QatEngineProvider qat(device.allocate_instance(), qcfg);
  HeuristicPollerConfig hcfg;
  hcfg.asym_threshold = 48;
  hcfg.sym_threshold = 24;
  HeuristicPoller poller(&qat, hcfg);

  // One async job inflight, one active connection: R_total == TC_active.
  asyncx::AsyncJob* job = nullptr;
  asyncx::WaitCtx wctx;
  int ret = 0;
  auto fn = [&]() -> int {
    auto r = qat.prf_tls12(HashAlg::kSha256, to_bytes("k"), "l",
                           to_bytes("s"), 32);
    return r.is_ok() ? 1 : -1;
  };
  ASSERT_EQ(asyncx::start_job(&job, &wctx, &ret, fn),
            asyncx::JobStatus::kPaused);
  EXPECT_EQ(qat.inflight_total(), 1u);

  // Below both thresholds, but timeliness applies (1 inflight >= 1 active).
  int guard = 0;
  while (qat.inflight_total() > 0 && guard++ < 100000) {
    poller.maybe_poll(/*active=*/1, /*now_ms=*/0);
    std::this_thread::yield();  // single-core: let the engine thread run
  }
  EXPECT_EQ(qat.inflight_total(), 0u);
  EXPECT_GT(poller.stats().timeliness_triggers, 0u);
  EXPECT_EQ(poller.stats().efficiency_triggers, 0u);
  ASSERT_EQ(asyncx::start_job(&job, &wctx, &ret, fn),
            asyncx::JobStatus::kFinished);
  EXPECT_EQ(ret, 1);
}

TEST(HeuristicPoller, FailoverFiresAfterInterval) {
  qat::DeviceConfig dcfg;
  dcfg.num_endpoints = 1;
  dcfg.engines_per_endpoint = 2;
  qat::QatDevice device(dcfg);
  engine::QatEngineConfig qcfg;
  engine::QatEngineProvider qat(device.allocate_instance(), qcfg);
  HeuristicPollerConfig hcfg;
  hcfg.failover_interval_ms = 5;
  HeuristicPoller poller(&qat, hcfg);

  asyncx::AsyncJob* job = nullptr;
  asyncx::WaitCtx wctx;
  int ret = 0;
  auto fn = [&]() -> int {
    auto r = qat.prf_tls12(HashAlg::kSha256, to_bytes("k"), "l",
                           to_bytes("s"), 32);
    return r.is_ok() ? 1 : -1;
  };
  ASSERT_EQ(asyncx::start_job(&job, &wctx, &ret, fn),
            asyncx::JobStatus::kPaused);

  // Active count of 50 means neither heuristic constraint fires (1 < 24,
  // 1 < 50); only the failover timer can retrieve the response.
  EXPECT_EQ(poller.maybe_poll(/*active=*/50, /*now_ms=*/0), 0u);
  EXPECT_EQ(poller.failover_poll(/*now_ms=*/2), 0u);  // interval not reached
  int guard = 0;
  while (qat.inflight_total() > 0 && guard++ < 100000) {
    (void)poller.failover_poll(/*now_ms=*/10 + guard);
    std::this_thread::yield();  // single-core: let the engine thread run
  }
  EXPECT_GT(poller.stats().failover_triggers, 0u);
  ASSERT_EQ(asyncx::start_job(&job, &wctx, &ret, fn),
            asyncx::JobStatus::kFinished);
}

TEST(HeuristicPoller, FailoverIntervalStartsWhenOpsGoInFlight) {
  // The worker checks failover every pass. The interval must count from
  // the first check that finds the op in flight, not from the last poll
  // before it (or from 0 for a poller that has never polled).
  qat::DeviceConfig dcfg;
  dcfg.num_endpoints = 1;
  dcfg.engines_per_endpoint = 2;
  qat::QatDevice device(dcfg);
  engine::QatEngineConfig qcfg;
  engine::QatEngineProvider qat(device.allocate_instance(), qcfg);
  HeuristicPollerConfig hcfg;
  hcfg.failover_interval_ms = 200;
  HeuristicPoller poller(&qat, hcfg);

  asyncx::AsyncJob* job = nullptr;
  asyncx::WaitCtx wctx;
  int ret = 0;
  auto fn = [&]() -> int {
    auto r = qat.prf_tls12(HashAlg::kSha256, to_bytes("k"), "l",
                           to_bytes("s"), 32);
    return r.is_ok() ? 1 : -1;
  };
  ASSERT_EQ(asyncx::start_job(&job, &wctx, &ret, fn),
            asyncx::JobStatus::kPaused);
  ASSERT_EQ(qat.inflight_total(), 1u);

  const uint64_t t0 = 1000;
  (void)poller.failover_poll(t0);
  (void)poller.failover_poll(t0 + 199);
  EXPECT_EQ(poller.stats().failover_triggers, 0u);
  (void)poller.failover_poll(t0 + 200);
  EXPECT_EQ(poller.stats().failover_triggers, 1u);

  int guard = 0;
  while (qat.inflight_total() > 0 && guard++ < 100000) {
    (void)qat.poll();
    std::this_thread::yield();
  }
  ASSERT_EQ(asyncx::start_job(&job, &wctx, &ret, fn),
            asyncx::JobStatus::kFinished);
  EXPECT_EQ(ret, 1);
}

}  // namespace
}  // namespace qtls::server
