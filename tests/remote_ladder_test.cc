// Three-tier fallback-ladder matrix (DESIGN.md §13): QAT lane state (up /
// failing / dropping / hot-removed) crossed with remote channel state (up /
// slow / dead), each run once as single ops and once as one seal batch,
// asserting which tier serves each op and — the load-bearing invariant —
// that the per-class breaker is charged ONLY when no higher tier is
// available: a live remote channel shields the class exactly like a
// surviving device lane, and the no-lane path (device hot-removed) never
// charges it at all. A worker under the timer scheme then serves whole
// handshakes through the remote tier. Also covers the remote_offload{} conf
// block.
// Select with `ctest -L remote`.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/provider.h"
#include "engine/qat_engine.h"
#include "qat/device.h"
#include "qat/fault.h"
#include "qat/topology.h"
#include "crypto/keystore.h"
#include "remote/channel.h"
#include "remote/offload_server.h"
#include "remote_test_util.h"
#include "server/ssl_engine_conf.h"
#include "server/worker_pool.h"
#include "server_test_util.h"

namespace qtls {
namespace {

using remote::RemoteChannel;
using remote::testutil::LoopbackTransport;

Result<Bytes> run_prf(engine::QatEngineProvider& e, int i) {
  return e.prf_tls12(HashAlg::kSha256, to_bytes("secret" + std::to_string(i)),
                     "ladder", to_bytes("seed"), 32);
}

Bytes expect_prf(int i) {
  engine::SoftwareProvider sw;
  auto r = sw.prf_tls12(HashAlg::kSha256,
                        to_bytes("secret" + std::to_string(i)), "ladder",
                        to_bytes("seed"), 32);
  EXPECT_TRUE(r.is_ok());
  return r.value();
}

enum class QatState { kUp, kFailing, kDropping, kRemoved };
enum class RemoteState { kUp, kSlow, kDead };

enum class Tier { kQat, kRemote, kSw };

struct MatrixCase {
  QatState qat;
  RemoteState remote;
  Tier serves;                       // who completes the ops
  bool class_open;                   // per-class breaker state afterwards
  uint64_t breaker_opens;            // class flips to software
  uint64_t remote_expiries;          // channel-deadline expiries seen
  bool remote_untouched;             // try_remote never even entered
};

const char* name(QatState s) {
  switch (s) {
    case QatState::kUp: return "qat-up";
    case QatState::kFailing: return "qat-failing";
    case QatState::kDropping: return "qat-dropping";
    case QatState::kRemoved: return "qat-removed";
  }
  return "?";
}
const char* name(RemoteState s) {
  switch (s) {
    case RemoteState::kUp: return "remote-up";
    case RemoteState::kSlow: return "remote-slow";
    case RemoteState::kDead: return "remote-dead";
  }
  return "?";
}

constexpr int kOps = 3;

// The batch column: kOps AES-GCM records sealed in one aead_seal_batch().
struct SealRecords {
  Bytes key = Bytes(16, 0x42);
  Bytes nonces[kOps], aads[kOps], plaintexts[kOps], outs[kOps];
  std::vector<engine::AeadSealJob> jobs;

  SealRecords() {
    for (int i = 0; i < kOps; ++i) {
      nonces[i] = Bytes(12, static_cast<uint8_t>(i));
      aads[i] = to_bytes("aad" + std::to_string(i));
      plaintexts[i] = to_bytes("record " + std::to_string(i));
      jobs.push_back({nonces[i], aads[i], plaintexts[i], &outs[i]});
    }
  }
};

// The QAT side of a case. kUp/kFailing/kDropping use the standalone
// single-device shape, where a terminal failure reaches the
// retries-exhausted (or deadline-expired) ladder point; kRemoved uses a
// one-device topology whose device is hot-removed, exercising the no-lane
// path instead.
struct QatSide {
  qat::FaultPlan plan{0x1adde5};
  std::unique_ptr<qat::QatDevice> device;
  std::unique_ptr<qat::DeviceTopology> topo;
  std::unique_ptr<engine::QatEngineProvider> eng;

  QatSide(QatState state, const engine::QatEngineConfig& ecfg) {
    if (state == QatState::kRemoved) {
      qat::TopologyConfig tc;
      tc.num_devices = 1;
      tc.numa_nodes = 1;
      tc.device.num_endpoints = 1;
      tc.device.engines_per_endpoint = 2;
      tc.device.ring_capacity = 32;
      tc.device.max_instances_per_endpoint = 4;
      topo = std::make_unique<qat::DeviceTopology>(tc);
      engine::DeviceInstanceSet set;
      set.device_id = 0;
      set.instances.push_back(topo->device(0).allocate_instance());
      std::vector<engine::DeviceInstanceSet> sets;
      sets.push_back(std::move(set));
      eng = std::make_unique<engine::QatEngineProvider>(topo.get(), 0,
                                                        std::move(sets), ecfg);
      EXPECT_TRUE(topo->hot_remove(0));
      return;
    }
    qat::DeviceConfig dcfg;
    dcfg.fault_plan = &plan;
    device = std::make_unique<qat::QatDevice>(dcfg);
    eng = std::make_unique<engine::QatEngineProvider>(
        device->allocate_instance(), ecfg);
    if (state == QatState::kFailing) plan.trigger_reset();
    if (state == QatState::kDropping) {
      qat::FaultRates drop;
      drop.drop_rate = 1.0;
      plan.set_rates_all(drop);
    }
  }
};

// The remote side of a case: a loopback server; kSlow parks frames without
// answering (live-but-unresponsive), kDead is a client-visible channel
// death.
std::unique_ptr<RemoteChannel> remote_side(RemoteState state) {
  auto transport = std::make_unique<LoopbackTransport>();
  LoopbackTransport* loop = transport.get();
  auto channel = std::make_unique<RemoteChannel>(std::move(transport));
  if (state == RemoteState::kSlow) loop->stall();
  if (state == RemoteState::kDead) channel->kill();
  return channel;
}

void run_case(const MatrixCase& c, bool batch) {
  SCOPED_TRACE(std::string(name(c.qat)) + " x " + name(c.remote) +
               (batch ? " (seal batch)" : " (single ops)"));

  engine::QatEngineConfig ecfg;
  ecfg.offload_mode = engine::OffloadMode::kSync;
  ecfg.max_retries = 1;
  ecfg.retry_backoff_base_us = 1;
  ecfg.breaker_threshold = 2;
  ecfg.breaker_cooldown_ms = 60'000;        // no class re-probe mid-case
  ecfg.remote_op_deadline_us = 2'000;       // bounds the kSlow waits
  ecfg.remote_breaker_threshold = 100;      // tier breaker out of the way
  ecfg.remote_breaker_cooldown_ms = 60'000;
  // A dropped response only ends at its deadline.
  if (c.qat == QatState::kDropping) ecfg.op_deadline_us = 3'000;

  QatSide qat_side(c.qat, ecfg);
  engine::QatEngineProvider* eng = qat_side.eng.get();
  std::unique_ptr<RemoteChannel> channel = remote_side(c.remote);
  eng->set_remote_backend(channel.get());

  if (batch) {
    SealRecords got, want;
    Status st = eng->aead_seal_batch(got.key, got.jobs);
    ASSERT_TRUE(st.is_ok()) << st.message();
    engine::SoftwareProvider sw;
    ASSERT_TRUE(sw.aead_seal_batch(want.key, want.jobs).is_ok());
    for (int i = 0; i < kOps; ++i) EXPECT_EQ(got.outs[i], want.outs[i]) << i;
  } else {
    for (int i = 0; i < kOps; ++i) {
      Result<Bytes> got = run_prf(*eng, i);
      ASSERT_TRUE(got.is_ok()) << got.status().message();
      EXPECT_EQ(got.value(), expect_prf(i));
    }
  }

  const engine::QatEngineStats& st = eng->stats();
  switch (c.serves) {
    case Tier::kQat:
      EXPECT_EQ(st.completed, static_cast<uint64_t>(kOps));
      EXPECT_EQ(st.remote_ops, 0u);
      EXPECT_EQ(st.sw_fallbacks, 0u);
      break;
    case Tier::kRemote:
      EXPECT_EQ(st.remote_completed, static_cast<uint64_t>(kOps));
      EXPECT_EQ(st.sw_fallbacks, 0u);
      break;
    case Tier::kSw:
      EXPECT_EQ(st.sw_fallbacks, static_cast<uint64_t>(kOps));
      break;
  }
  EXPECT_EQ(eng->breaker_state(batch ? qat::OpClass::kCipher
                                     : qat::OpClass::kPrf),
            c.class_open ? engine::BreakerState::kOpen
                         : engine::BreakerState::kClosed);
  EXPECT_EQ(st.breaker_opens, c.breaker_opens);
  EXPECT_EQ(st.remote_expiries, c.remote_expiries);
  if (c.remote_untouched) {
    EXPECT_EQ(st.remote_ops, 0u);
  }

  // Engine-side remote ledger balances and nothing is left in flight.
  EXPECT_EQ(st.remote_ops,
            st.remote_completed + st.remote_expiries + st.remote_failures);
  EXPECT_EQ(eng->inflight_total(), 0u);
  EXPECT_EQ(channel->inflight(), 0u);
  const remote::RemoteChannelStats ch = channel->stats();
  EXPECT_EQ(ch.completed + ch.expired + ch.failed, ch.submitted);
}

TEST(RemoteLadderMatrix, TierChoiceAndBreakerCharging) {
  const MatrixCase cases[] = {
      // A healthy device serves everything; the remote tier stays idle
      // regardless of its own state.
      {QatState::kUp, RemoteState::kUp, Tier::kQat, false, 0, 0, true},
      {QatState::kUp, RemoteState::kSlow, Tier::kQat, false, 0, 0, true},
      {QatState::kUp, RemoteState::kDead, Tier::kQat, false, 0, 0, true},
      // A failing device migrates down the ladder. A live channel takes
      // the ops AND shields the class breaker; a slow channel expires
      // per-op and software finishes, still without a class charge (the
      // tier counts as live while alive); only a DEAD channel lets the
      // class breaker charge — it opens at the threshold of 2.
      {QatState::kFailing, RemoteState::kUp, Tier::kRemote, false, 0, 0,
       false},
      {QatState::kFailing, RemoteState::kSlow, Tier::kSw, false, 0, kOps,
       false},
      {QatState::kFailing, RemoteState::kDead, Tier::kSw, true, 1, 0, true},
      // A device that swallows every response fails by deadline instead:
      // the same ladder, the same charging.
      {QatState::kDropping, RemoteState::kUp, Tier::kRemote, false, 0, 0,
       false},
      {QatState::kDropping, RemoteState::kSlow, Tier::kSw, false, 0, kOps,
       false},
      {QatState::kDropping, RemoteState::kDead, Tier::kSw, true, 1, 0, true},
      // A hot-removed device takes the no-lane path: the remote tier is
      // tried first, and the class breaker is NEVER charged — lane probes
      // own recovery, and a class flip would outlive the outage.
      {QatState::kRemoved, RemoteState::kUp, Tier::kRemote, false, 0, 0,
       false},
      {QatState::kRemoved, RemoteState::kSlow, Tier::kSw, false, 0, kOps,
       false},
      {QatState::kRemoved, RemoteState::kDead, Tier::kSw, false, 0, 0, true},
  };
  // A seal batch walks the same ladder as the same ops sent one at a time.
  for (const MatrixCase& c : cases) {
    run_case(c, /*batch=*/false);
    run_case(c, /*batch=*/true);
  }
}

// A worker under the timer scheme (QAT+A: FD notification, a tick in the
// loop) over an engine whose device is gone: every handshake op travels the
// remote tier. Only poll() pumps the channel, so the tick must call it.
TEST(RemoteLadderWorker, TimerSchemeCompletesHandshakesThroughTheRemoteTier) {
  for (QatState state : {QatState::kFailing, QatState::kRemoved}) {
    SCOPED_TRACE(name(state));
    engine::QatEngineConfig ecfg;  // async offload
    ecfg.max_retries = 1;
    ecfg.breaker_cooldown_ms = 60'000;
    // Generous: the loopback server signs on this thread during the flush,
    // and a sanitized build signs slowly.
    ecfg.remote_op_deadline_us = 5'000'000;
    QatSide qat_side(state, ecfg);
    engine::QatEngineProvider& eng = *qat_side.eng;
    std::unique_ptr<RemoteChannel> channel = remote_side(RemoteState::kUp);
    eng.set_remote_backend(channel.get());

    tls::TlsContextConfig scfg;
    scfg.is_server = true;
    scfg.async_mode = true;
    scfg.cipher_suites = {tls::CipherSuite::kEcdheRsaWithAes128CbcSha};
    tls::TlsContext sctx(scfg, &eng);
    sctx.credentials().rsa_key = &test_rsa2048();
    engine::SoftwareProvider client_provider;
    tls::TlsContextConfig ccfg;
    ccfg.cipher_suites = scfg.cipher_suites;
    tls::TlsContext cctx(ccfg, &client_provider);

    server::WorkerConfig wcfg;
    wcfg.notify = server::NotifyScheme::kFd;
    wcfg.poll = server::PollScheme::kTimer;
    wcfg.timer_interval = std::chrono::milliseconds(1);
    server::Worker worker(&sctx, &eng, wcfg);
    client::Pool pool;
    for (int i = 0; i < 2; ++i) {
      client::ClientOptions copts;  // a full handshake per request
      copts.max_requests = 2;
      pool.add(std::make_unique<client::HttpsClient>(
          &cctx, server::testutil::socketpair_connector(&worker), copts,
          700 + static_cast<uint64_t>(i)));
    }
    ASSERT_TRUE(server::testutil::run_to_completion(&worker, &pool,
                                                    /*deadline_seconds=*/20))
        << "a parked remote hop was never pumped";
    EXPECT_EQ(pool.aggregate().errors, 0u);
    EXPECT_EQ(worker.stats().handshakes_completed, 4u);

    const engine::QatEngineStats& st = eng.stats();
    EXPECT_GT(st.remote_completed, 0u);
    EXPECT_EQ(st.sw_fallbacks, 0u);
    EXPECT_EQ(st.remote_ops,
              st.remote_completed + st.remote_expiries + st.remote_failures);
    EXPECT_EQ(eng.inflight_total(), 0u);
    EXPECT_EQ(eng.remote_hops(), 0u);
    EXPECT_EQ(channel->inflight(), 0u);
  }
}

// ------------------------------------------------ remote_offload{} conf --

TEST(RemoteOffloadConf, FullBlockMapsIntoSettings) {
  auto r = server::parse_ssl_engine_settings(R"(
    worker_processes 2;
    ssl_engine {
        use qat_engine;
        remote_offload {
            enable on;
            host 10.1.2.3;
            port 7433;
            max_batch 16;
            coalesce_window_us 200;
            op_deadline_us 5000;
            breaker_threshold 6;
            breaker_cooldown_ms 500;
        }
    }
  )");
  ASSERT_TRUE(r.is_ok()) << r.status().message();
  const server::SslEngineSettings& s = r.value();
  EXPECT_TRUE(s.remote.enabled);
  EXPECT_EQ(s.remote.host, "10.1.2.3");
  EXPECT_EQ(s.remote.port, 7433);
  EXPECT_EQ(s.remote.max_batch, 16u);
  EXPECT_EQ(s.remote.coalesce_window_us, 200u);
  // Deadline/breaker policy lands in the engine config — the engine owns
  // the ladder.
  EXPECT_EQ(s.engine.remote_op_deadline_us, 5'000u);
  EXPECT_EQ(s.engine.remote_breaker_threshold, 6);
  EXPECT_EQ(s.engine.remote_breaker_cooldown_ms, 500u);
}

TEST(RemoteOffloadConf, DefaultsOffWithoutBlock) {
  auto r = server::parse_ssl_engine_settings(R"(
    ssl_engine { use qat_engine; }
  )");
  ASSERT_TRUE(r.is_ok());
  EXPECT_FALSE(r.value().remote.enabled);
  EXPECT_EQ(r.value().remote.port, 0);
}

TEST(RemoteOffloadConf, RejectsBadValues) {
  // Enabled without a port is a config error, not a silent no-op.
  EXPECT_FALSE(server::parse_ssl_engine_settings(R"(
    ssl_engine { remote_offload { enable on; } }
  )").is_ok());
  EXPECT_FALSE(server::parse_ssl_engine_settings(R"(
    ssl_engine { remote_offload { enable maybe; port 1; } }
  )").is_ok());
  EXPECT_FALSE(server::parse_ssl_engine_settings(R"(
    ssl_engine { remote_offload { enable on; port 7433; max_batch 0; } }
  )").is_ok());
  EXPECT_FALSE(server::parse_ssl_engine_settings(R"(
    ssl_engine { remote_offload { enable on; port 70000; } }
  )").is_ok());
  EXPECT_FALSE(server::parse_ssl_engine_settings(R"(
    ssl_engine { remote_offload { enable on; port 7433;
                                  breaker_threshold 0; } }
  )").is_ok());
  // The dial takes an IPv4 literal, not a name.
  EXPECT_FALSE(server::parse_ssl_engine_settings(R"(
    ssl_engine { remote_offload { enable on; host localhost; port 7433; } }
  )").is_ok());
  // A disabled block with sane values still parses.
  EXPECT_TRUE(server::parse_ssl_engine_settings(R"(
    ssl_engine { remote_offload { enable off; port 7433; } }
  )").is_ok());
}

// A pool built from the conf dials the configured host. The offload
// server listens on 127.0.0.1 only, so a pool told 127.0.0.2 (also
// loopback) finds nobody there and keeps the two-tier ladder.
TEST(RemoteOffloadConf, HostReachesTheDial) {
  remote::OffloadServer offload;
  ASSERT_TRUE(offload.start(0).is_ok());
  auto attaches = [&](const std::string& host) {
    auto settings = server::parse_ssl_engine_settings(
        "worker_processes 1;\n"
        "ssl_engine { use qat_engine;\n"
        "  remote_offload { enable on; host " + host + "; port " +
        std::to_string(offload.port()) + "; }\n}\n");
    EXPECT_TRUE(settings.is_ok()) << settings.status().message();
    qat::DeviceTopology topo(settings.value().topology);
    server::WorkerPool pool(&topo, &test_rsa2048(),
                            server::pool_options_from(settings.value()));
    EXPECT_TRUE(pool.start(0).is_ok());
    const bool attached = pool.engine(0)->remote_backend() != nullptr;
    pool.stop();
    return attached;
  };
  EXPECT_FALSE(attaches("127.0.0.2"));
  EXPECT_TRUE(attaches("127.0.0.1"));
}

}  // namespace
}  // namespace qtls
