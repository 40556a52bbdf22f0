// Extensions of the device/engine model beyond the headline path:
// interrupt-style response delivery (§2.3's alternative to polling) and
// multi-instance engine binding (§2.3: one process, several instances from
// different endpoints).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "crypto/keystore.h"
#include "engine/qat_engine.h"

namespace qtls {
namespace {

TEST(InterruptDelivery, CallbackFiresWithoutPolling) {
  qat::DeviceConfig cfg;
  cfg.num_endpoints = 1;
  cfg.engines_per_endpoint = 2;
  cfg.delivery = qat::ResponseDelivery::kInterrupt;
  qat::QatDevice device(cfg);
  qat::CryptoInstance* inst = device.allocate_instance();

  std::atomic<int> delivered{0};
  qat::CryptoRequest req;
  req.kind = qat::OpKind::kPrfTls12;
  req.compute = [] { return true; };
  req.on_response = [&delivered](const qat::CryptoResponse& r) {
    EXPECT_EQ(r.status, qat::CryptoStatus::kSuccess);
    delivered.fetch_add(1);
  };
  ASSERT_TRUE(inst->submit(req));

  // No poll() call anywhere: the engine thread delivers directly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (delivered.load() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_EQ(delivered.load(), 1);
  EXPECT_EQ(inst->inflight(), 0u);
  EXPECT_EQ(device.fw_counters().responses[static_cast<int>(
                qat::OpClass::kPrf)],
            1u);
  EXPECT_EQ(inst->poll(), 0u);  // nothing queued in interrupt mode
}

TEST(InterruptDelivery, SyncEngineOffloadCompletes) {
  // The blocking engine path works unchanged: `done` flips from the
  // interrupt context, and the spin's own polls find an empty ring.
  qat::DeviceConfig cfg;
  cfg.num_endpoints = 1;
  cfg.engines_per_endpoint = 2;
  cfg.delivery = qat::ResponseDelivery::kInterrupt;
  qat::QatDevice device(cfg);
  engine::QatEngineConfig qcfg;
  qcfg.offload_mode = engine::OffloadMode::kSync;
  engine::QatEngineProvider qat(device.allocate_instance(), qcfg);

  auto out = qat.prf_tls12(HashAlg::kSha256, to_bytes("k"), "label",
                           to_bytes("s"), 32);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value(), tls12_prf(HashAlg::kSha256, to_bytes("k"), "label",
                                   to_bytes("s"), 32));
}

TEST(MultiInstance, RequestsSpreadAcrossEndpoints) {
  qat::DeviceConfig cfg;
  cfg.num_endpoints = 2;
  cfg.engines_per_endpoint = 2;
  qat::QatDevice device(cfg);
  qat::CryptoInstance* a = device.allocate_instance();
  qat::CryptoInstance* b = device.allocate_instance();
  ASSERT_NE(a->endpoint(), b->endpoint());

  engine::QatEngineConfig qcfg;
  qcfg.offload_mode = engine::OffloadMode::kSync;
  engine::QatEngineProvider qat(nullptr, 0, {{0, {a, b}}}, qcfg);

  for (int i = 0; i < 6; ++i) {
    auto out = qat.prf_tls12(HashAlg::kSha256, to_bytes("k"), "l",
                             Bytes{static_cast<uint8_t>(i)}, 16);
    ASSERT_TRUE(out.is_ok());
  }
  // Round-robin: both endpoints served requests.
  EXPECT_EQ(a->endpoint()->fw_counters().requests[2], 3u);
  EXPECT_EQ(b->endpoint()->fw_counters().requests[2], 3u);
}

TEST(MultiInstance, AsyncOffloadsUseAllInstances) {
  qat::DeviceConfig cfg;
  cfg.num_endpoints = 3;
  cfg.engines_per_endpoint = 2;
  qat::QatDevice device(cfg);
  std::vector<qat::CryptoInstance*> instances = {device.allocate_instance(),
                                                 device.allocate_instance(),
                                                 device.allocate_instance()};
  engine::QatEngineConfig qcfg;
  engine::QatEngineProvider qat(nullptr, 0, {{0, instances}}, qcfg);
  const RsaPrivateKey& key = test_rsa1024();

  constexpr int kJobs = 6;
  asyncx::AsyncJob* jobs[kJobs] = {};
  asyncx::WaitCtx wctxs[kJobs];
  int rets[kJobs] = {};
  auto make_fn = [&](int i) {
    return [&, i]() -> int {
      auto sig = qat.rsa_sign(key, sha256(Bytes{static_cast<uint8_t>(i)}));
      return sig.is_ok() ? 1 : -1;
    };
  };
  for (int i = 0; i < kJobs; ++i)
    ASSERT_EQ(asyncx::start_job(&jobs[i], &wctxs[i], &rets[i], make_fn(i)),
              asyncx::JobStatus::kPaused);
  EXPECT_EQ(qat.inflight_total(), static_cast<size_t>(kJobs));

  int done = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (done < kJobs && std::chrono::steady_clock::now() < deadline) {
    qat.poll();  // drains all three instances
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
  // Every instance's endpoint saw exactly two of the six requests.
  for (qat::CryptoInstance* inst : instances)
    EXPECT_EQ(inst->endpoint()->fw_counters().requests[0], 2u);
}

}  // namespace
}  // namespace qtls
