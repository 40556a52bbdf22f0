#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "asyncx/job.h"
#include "crypto/keystore.h"
#include "engine/provider.h"
#include "engine/qat_engine.h"

namespace qtls::engine {
namespace {

qat::DeviceConfig test_device_config() {
  qat::DeviceConfig cfg;
  cfg.num_endpoints = 1;
  cfg.engines_per_endpoint = 4;
  cfg.ring_capacity = 32;
  return cfg;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : device_(test_device_config()) {}

  qat::QatDevice device_;
};

TEST_F(EngineTest, SoftwareProviderRsaRoundTrip) {
  SoftwareProvider sw;
  const RsaPrivateKey& key = test_rsa1024();
  const Bytes digest = sha256(to_bytes("hello"));
  auto sig = sw.rsa_sign(key, digest);
  ASSERT_TRUE(sig.is_ok());
  EXPECT_TRUE(rsa_verify_pkcs1(key.pub, digest, sig.value()).is_ok());
}

TEST_F(EngineTest, SoftwareProviderEcdheAllCurves) {
  SoftwareProvider a, b;
  for (CurveId curve : {CurveId::kP256, CurveId::kP384, CurveId::kB283,
                        CurveId::kB409, CurveId::kK283, CurveId::kK409}) {
    auto share_a = a.ecdhe_keygen(curve);
    auto share_b = b.ecdhe_keygen(curve);
    ASSERT_TRUE(share_a.is_ok()) << curve_name(curve);
    ASSERT_TRUE(share_b.is_ok()) << curve_name(curve);
    auto s1 = a.ecdhe_derive(share_a.value(), share_b.value().pub_point);
    auto s2 = b.ecdhe_derive(share_b.value(), share_a.value().pub_point);
    ASSERT_TRUE(s1.is_ok()) << curve_name(curve);
    ASSERT_TRUE(s2.is_ok()) << curve_name(curve);
    EXPECT_EQ(s1.value(), s2.value()) << curve_name(curve);
  }
}

TEST_F(EngineTest, SoftwareEcdsaRejectsBinaryCurves) {
  SoftwareProvider sw;
  EXPECT_FALSE(sw.ecdsa_sign(CurveId::kB283, Bignum(5), sha256({})).is_ok());
}

TEST_F(EngineTest, SyncOffloadBlocksAndCompletes) {
  QatEngineConfig cfg;
  cfg.offload_mode = OffloadMode::kSync;
  QatEngineProvider qat(device_.allocate_instance(), cfg);

  const RsaPrivateKey& key = test_rsa1024();
  const Bytes digest = sha256(to_bytes("sync offload"));
  auto sig = qat.rsa_sign(key, digest);
  ASSERT_TRUE(sig.is_ok());
  EXPECT_TRUE(rsa_verify_pkcs1(key.pub, digest, sig.value()).is_ok());
  EXPECT_EQ(qat.stats().sync_blocks, 1u);
  EXPECT_EQ(qat.inflight_total(), 0u);
  // Device saw exactly one asym request.
  EXPECT_EQ(device_.fw_counters().requests[0], 1u);
}

TEST_F(EngineTest, AsyncOffloadPausesJob) {
  QatEngineConfig cfg;
  QatEngineProvider qat(device_.allocate_instance(), cfg);
  const RsaPrivateKey& key = test_rsa1024();
  const Bytes digest = sha256(to_bytes("async offload"));

  asyncx::AsyncJob* job = nullptr;
  asyncx::WaitCtx wctx;
  int notified = 0;
  wctx.set_callback([](void* arg) { ++*static_cast<int*>(arg); }, &notified);

  Bytes sig;
  int ret = 0;
  auto fn = [&]() -> int {
    auto result = qat.rsa_sign(key, digest);
    if (!result.is_ok()) return -1;
    sig = std::move(result).take();
    return 1;
  };

  // Pre-processing: the job must pause with the request in flight.
  ASSERT_EQ(asyncx::start_job(&job, &wctx, &ret, fn),
            asyncx::JobStatus::kPaused);
  EXPECT_EQ(qat.inflight_total(), 1u);
  EXPECT_EQ(qat.inflight(qat::OpClass::kAsym), 1u);

  // QAT response retrieval: poll until the callback delivers the event.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (notified == 0 && std::chrono::steady_clock::now() < deadline)
    qat.poll();
  ASSERT_EQ(notified, 1);
  EXPECT_EQ(qat.inflight_total(), 0u);

  // Post-processing: resume consumes the result.
  ASSERT_EQ(asyncx::start_job(&job, &wctx, &ret, fn),
            asyncx::JobStatus::kFinished);
  EXPECT_EQ(ret, 1);
  EXPECT_TRUE(rsa_verify_pkcs1(key.pub, digest, sig).is_ok());
}

TEST_F(EngineTest, AsyncWithoutJobFallsBackToBlocking) {
  // Outside a fiber, async mode degrades to the blocking path so plain
  // callers (e.g. the client side of tests) still work.
  QatEngineConfig cfg;
  QatEngineProvider qat(device_.allocate_instance(), cfg);
  auto out = qat.prf_tls12(HashAlg::kSha256, to_bytes("s"), "l",
                           to_bytes("x"), 12);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().size(), 12u);
}

TEST_F(EngineTest, ConcurrentOffloadsFromOneThread) {
  // The core QTLS claim: multiple crypto ops from different connections
  // in flight simultaneously from ONE thread.
  QatEngineConfig cfg;
  QatEngineProvider qat(device_.allocate_instance(), cfg);
  const RsaPrivateKey& key = test_rsa1024();

  constexpr int kJobs = 8;
  asyncx::AsyncJob* jobs[kJobs] = {};
  asyncx::WaitCtx wctxs[kJobs];
  int rets[kJobs] = {};
  int done = 0;

  auto make_fn = [&](int i) {
    return [&, i]() -> int {
      const Bytes digest = sha256(Bytes{static_cast<uint8_t>(i)});
      auto sig = qat.rsa_sign(key, digest);
      if (!sig.is_ok()) return -1;
      return rsa_verify_pkcs1(key.pub, digest, sig.value()).is_ok() ? 1 : -2;
    };
  };

  for (int i = 0; i < kJobs; ++i) {
    ASSERT_EQ(asyncx::start_job(&jobs[i], &wctxs[i], &rets[i], make_fn(i)),
              asyncx::JobStatus::kPaused);
  }
  // All eight requests concurrently in flight — impossible in straight
  // offload mode.
  EXPECT_EQ(qat.inflight_total(), static_cast<size_t>(kJobs));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (done < kJobs && std::chrono::steady_clock::now() < deadline) {
    qat.poll();
    for (int i = 0; i < kJobs; ++i) {
      if (!jobs[i]) continue;
      // Only resume jobs whose response arrived (inflight drop is global;
      // resuming early is tolerated by the engine's spurious-resume loop,
      // but we only call once finished to exercise the clean path).
      if (asyncx::start_job(&jobs[i], &wctxs[i], &rets[i], nullptr) ==
          asyncx::JobStatus::kFinished) {
        EXPECT_EQ(rets[i], 1) << "job " << i;
        ++done;
      }
    }
  }
  EXPECT_EQ(done, kJobs);
  EXPECT_EQ(qat.stats().submitted, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(qat.stats().completed, static_cast<uint64_t>(kJobs));
}

TEST_F(EngineTest, RingFullTriggersRetryPath) {
  qat::DeviceConfig dcfg;
  dcfg.num_endpoints = 1;
  dcfg.engines_per_endpoint = 1;
  dcfg.ring_capacity = 2;
  qat::QatDevice tiny(dcfg);
  QatEngineConfig cfg;
  QatEngineProvider qat(tiny.allocate_instance(), cfg);

  // Saturate: many async PRF jobs against a 2-slot ring and 1 engine.
  constexpr int kJobs = 24;
  asyncx::AsyncJob* jobs[kJobs] = {};
  asyncx::WaitCtx wctxs[kJobs];
  int rets[kJobs] = {};
  auto make_fn = [&](int i) {
    return [&, i]() -> int {
      auto out = qat.prf_tls12(HashAlg::kSha256, to_bytes("k"), "label",
                               Bytes{static_cast<uint8_t>(i)}, 32);
      return out.is_ok() ? 1 : -1;
    };
  };
  for (int i = 0; i < kJobs; ++i)
    ASSERT_EQ(asyncx::start_job(&jobs[i], &wctxs[i], &rets[i], make_fn(i)),
              asyncx::JobStatus::kPaused);

  int done = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (done < kJobs && std::chrono::steady_clock::now() < deadline) {
    qat.poll();
    for (int i = 0; i < kJobs; ++i) {
      if (!jobs[i]) continue;
      if (asyncx::start_job(&jobs[i], &wctxs[i], &rets[i], nullptr) ==
          asyncx::JobStatus::kFinished) {
        EXPECT_EQ(rets[i], 1);
        ++done;
      }
    }
  }
  EXPECT_EQ(done, kJobs);
  // With 24 jobs racing a 2-slot ring, some submissions must have failed
  // and retried.
  EXPECT_GT(qat.stats().submit_retries, 0u);
}

TEST_F(EngineTest, OffloadSwitchesFallBackToSoftware) {
  QatEngineConfig cfg;
  cfg.offload_rsa = false;
  cfg.offload_prf = false;
  cfg.offload_ec = false;
  cfg.offload_cipher = false;
  QatEngineProvider qat(device_.allocate_instance(), cfg);

  const RsaPrivateKey& key = test_rsa1024();
  const Bytes digest = sha256(to_bytes("sw fallback"));
  auto sig = qat.rsa_sign(key, digest);
  ASSERT_TRUE(sig.is_ok());
  // Nothing must have reached the device.
  EXPECT_EQ(device_.fw_counters().total_requests(), 0u);
}

TEST_F(EngineTest, InflightCountersPerClass) {
  QatEngineConfig cfg;
  QatEngineProvider qat(device_.allocate_instance(), cfg);

  asyncx::AsyncJob* job1 = nullptr;
  asyncx::AsyncJob* job2 = nullptr;
  asyncx::WaitCtx w1, w2;
  int ret = 0;
  const RsaPrivateKey& key = test_rsa1024();

  auto rsa_fn = [&]() -> int {
    auto r = qat.rsa_sign(key, sha256(to_bytes("a")));
    return r.is_ok() ? 1 : -1;
  };
  auto prf_fn = [&]() -> int {
    auto r = qat.prf_tls12(HashAlg::kSha256, to_bytes("k"), "l",
                           to_bytes("s"), 32);
    return r.is_ok() ? 1 : -1;
  };
  ASSERT_EQ(asyncx::start_job(&job1, &w1, &ret, rsa_fn),
            asyncx::JobStatus::kPaused);
  ASSERT_EQ(asyncx::start_job(&job2, &w2, &ret, prf_fn),
            asyncx::JobStatus::kPaused);
  EXPECT_EQ(qat.inflight(qat::OpClass::kAsym), 1u);
  EXPECT_EQ(qat.inflight(qat::OpClass::kPrf), 1u);
  EXPECT_EQ(qat.inflight_total(), 2u);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int finished = 0;
  while (finished < 2 && std::chrono::steady_clock::now() < deadline) {
    qat.poll();
    if (job1 && asyncx::start_job(&job1, &w1, &ret, nullptr) ==
                    asyncx::JobStatus::kFinished)
      ++finished;
    if (job2 && asyncx::start_job(&job2, &w2, &ret, nullptr) ==
                    asyncx::JobStatus::kFinished)
      ++finished;
  }
  EXPECT_EQ(finished, 2);
  EXPECT_EQ(qat.inflight_total(), 0u);
}

TEST_F(EngineTest, CipherOffloadRoundTrip) {
  QatEngineConfig cfg;
  cfg.offload_mode = OffloadMode::kSync;
  QatEngineProvider qat(device_.allocate_instance(), cfg);

  CbcHmacKeys keys;
  keys.enc_key = Bytes(16, 0x01);
  keys.mac_key = Bytes(20, 0x02);
  const Bytes iv(16, 0x03);
  const Bytes fragment = to_bytes("record payload for the chained cipher");
  Bytes header;
  append_u8(header, 23);
  append_u16(header, 0x0303);
  append_u16(header, static_cast<uint16_t>(fragment.size()));

  auto sealed = qat.cipher_seal(keys, 5, header, iv, fragment);
  ASSERT_TRUE(sealed.is_ok());
  const Bytes header3(header.begin(), header.begin() + 3);
  auto opened = qat.cipher_open(keys, 5, header3, iv, sealed.value());
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(opened.value(), fragment);
  EXPECT_EQ(device_.fw_counters().requests[1], 2u);  // two cipher ops
}

TEST_F(EngineTest, EcdheOffloadAgreesWithSoftware) {
  QatEngineConfig cfg;
  cfg.offload_mode = OffloadMode::kSync;
  QatEngineProvider qat(device_.allocate_instance(), cfg);
  SoftwareProvider sw;

  auto qat_share = qat.ecdhe_keygen(CurveId::kP256);
  auto sw_share = sw.ecdhe_keygen(CurveId::kP256);
  ASSERT_TRUE(qat_share.is_ok());
  ASSERT_TRUE(sw_share.is_ok());
  auto s1 = qat.ecdhe_derive(qat_share.value(), sw_share.value().pub_point);
  auto s2 = sw.ecdhe_derive(sw_share.value(), qat_share.value().pub_point);
  ASSERT_TRUE(s1.is_ok());
  ASSERT_TRUE(s2.is_ok());
  EXPECT_EQ(s1.value(), s2.value());
}

// The half-open election: however many callers race an open breaker whose
// reopen time has passed, exactly one becomes the probe. A probe given back
// (it never reached its target) reopens the election at once.
TEST(BreakerTest, ExactlyOneOfEightThreadsWinsTheHalfOpenProbe) {
  constexpr int kThreads = 8;
  for (int round = 0; round < 20; ++round) {
    Breaker b;
    ASSERT_TRUE(b.on_failure(/*threshold=*/1, /*cooldown_ms=*/0));
    ASSERT_EQ(b.state(), BreakerState::kOpen);

    std::atomic<bool> go{false};
    std::atomic<int> wins{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        if (b.allow()) wins.fetch_add(1);
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    EXPECT_EQ(wins.load(), 1) << "round " << round;
    EXPECT_EQ(b.state(), BreakerState::kHalfOpen);

    b.give_back();
    EXPECT_EQ(b.state(), BreakerState::kOpen);
    EXPECT_TRUE(b.allow());
    EXPECT_FALSE(b.allow());  // the new probe is in flight
    EXPECT_TRUE(b.on_success());
    EXPECT_EQ(b.state(), BreakerState::kClosed);
  }
}

}  // namespace
}  // namespace qtls::engine
