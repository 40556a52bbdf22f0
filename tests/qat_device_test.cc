#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "qat/device.h"
#include "qat/service_time.h"

namespace qtls::qat {
namespace {

DeviceConfig small_config() {
  DeviceConfig cfg;
  cfg.num_endpoints = 1;
  cfg.engines_per_endpoint = 4;
  cfg.ring_capacity = 16;
  return cfg;
}

CryptoRequest simple_request(uint64_t id, OpKind kind,
                             std::atomic<int>* computed,
                             std::atomic<int>* responded) {
  CryptoRequest req;
  req.request_id = id;
  req.kind = kind;
  req.compute = [computed] {
    computed->fetch_add(1);
    return true;
  };
  req.on_response = [responded](const CryptoResponse& r) {
    EXPECT_EQ(r.status, CryptoStatus::kSuccess);
    responded->fetch_add(1);
  };
  return req;
}

void poll_until(CryptoInstance* inst, std::atomic<int>* responded, int want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (responded->load() < want &&
         std::chrono::steady_clock::now() < deadline) {
    inst->poll();
    std::this_thread::yield();
  }
}

TEST(QatDevice, SubmitPollRoundTrip) {
  QatDevice device(small_config());
  CryptoInstance* inst = device.allocate_instance();
  ASSERT_NE(inst, nullptr);

  std::atomic<int> computed{0}, responded{0};
  EXPECT_TRUE(inst->submit(simple_request(1, OpKind::kPrfTls12, &computed,
                                          &responded)));
  poll_until(inst, &responded, 1);
  EXPECT_EQ(computed.load(), 1);
  EXPECT_EQ(responded.load(), 1);
  EXPECT_EQ(inst->inflight(), 0u);
}

TEST(QatDevice, InflightTracksOutstanding) {
  QatDevice device(small_config());
  CryptoInstance* inst = device.allocate_instance();
  std::atomic<int> computed{0}, responded{0};
  for (uint64_t i = 0; i < 8; ++i)
    ASSERT_TRUE(inst->submit(
        simple_request(i, OpKind::kPrfTls12, &computed, &responded)));
  EXPECT_GE(inst->inflight(), 1u);  // some may already be serviced, none polled
  poll_until(inst, &responded, 8);
  EXPECT_EQ(inst->inflight(), 0u);
  EXPECT_EQ(computed.load(), 8);
}

TEST(QatDevice, RingFullRejectsSubmit) {
  DeviceConfig cfg = small_config();
  cfg.engines_per_endpoint = 1;
  cfg.ring_capacity = 4;
  // Block the single engine with a slow request so the ring backs up.
  QatDevice device(cfg);
  CryptoInstance* inst = device.allocate_instance();
  std::atomic<bool> release{false};
  std::atomic<int> responded{0};
  CryptoRequest blocker;
  blocker.kind = OpKind::kRsa2048Priv;
  blocker.compute = [&release] {
    while (!release.load()) std::this_thread::yield();
    return true;
  };
  blocker.on_response = [&responded](const CryptoResponse&) {
    responded.fetch_add(1);
  };
  ASSERT_TRUE(inst->submit(blocker));
  // Wait for the engine to take the blocker off the ring.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::atomic<int> computed{0};
  int accepted = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    if (inst->submit(
            simple_request(i, OpKind::kPrfTls12, &computed, &responded)))
      ++accepted;
  }
  // The ring holds only `ring_capacity` requests; submissions beyond that
  // must fail — this is the §3.2 retry path trigger.
  EXPECT_LE(accepted, static_cast<int>(cfg.ring_capacity));
  EXPECT_LT(accepted, 64);

  release.store(true);
  poll_until(inst, &responded, accepted + 1);
  EXPECT_EQ(responded.load(), accepted + 1);
}

TEST(QatDevice, ParallelServiceAcrossEngines) {
  // With 4 engines, 4 concurrent slow requests from ONE instance must
  // overlap: total wall time ~1x service, not 4x (paper §2.3 parallelism).
  DeviceConfig cfg = small_config();
  QatDevice device(cfg);
  CryptoInstance* inst = device.allocate_instance();

  std::atomic<int> active{0}, peak{0}, responded{0};
  auto slow = [&](uint64_t id) {
    CryptoRequest req;
    req.request_id = id;
    req.kind = OpKind::kRsa2048Priv;
    req.compute = [&] {
      const int now = active.fetch_add(1) + 1;
      int prev = peak.load();
      while (prev < now && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      active.fetch_sub(1);
      return true;
    };
    req.on_response = [&](const CryptoResponse&) { responded.fetch_add(1); };
    return req;
  };
  for (uint64_t i = 0; i < 4; ++i) ASSERT_TRUE(inst->submit(slow(i)));
  poll_until(inst, &responded, 4);
  EXPECT_GE(peak.load(), 2) << "engines did not serve concurrently";
}

TEST(QatDevice, FwCountersPerClass) {
  QatDevice device(small_config());
  CryptoInstance* inst = device.allocate_instance();
  std::atomic<int> computed{0}, responded{0};
  ASSERT_TRUE(inst->submit(
      simple_request(1, OpKind::kRsa2048Priv, &computed, &responded)));
  ASSERT_TRUE(inst->submit(
      simple_request(2, OpKind::kPrfTls12, &computed, &responded)));
  ASSERT_TRUE(inst->submit(
      simple_request(3, OpKind::kCipher16k, &computed, &responded)));
  poll_until(inst, &responded, 3);

  const FwCounters c = device.fw_counters();
  EXPECT_EQ(c.requests[static_cast<int>(OpClass::kAsym)], 1u);
  EXPECT_EQ(c.requests[static_cast<int>(OpClass::kPrf)], 1u);
  EXPECT_EQ(c.requests[static_cast<int>(OpClass::kCipher)], 1u);
  EXPECT_EQ(c.total_requests(), 3u);
  EXPECT_EQ(c.responses[static_cast<int>(OpClass::kAsym)], 1u);
  EXPECT_NE(c.to_string().find("asym"), std::string::npos);
}

TEST(QatDevice, InstanceAllocationLimit) {
  DeviceConfig cfg = small_config();
  cfg.max_instances_per_endpoint = 2;
  cfg.num_endpoints = 2;
  QatDevice device(cfg);
  // 2 endpoints x 2 instances = 4 allocations, then exhaustion.
  for (int i = 0; i < 4; ++i) EXPECT_NE(device.allocate_instance(), nullptr);
  EXPECT_EQ(device.allocate_instance(), nullptr);
}

TEST(QatDevice, InstancesDistributedAcrossEndpoints) {
  DeviceConfig cfg = small_config();
  cfg.num_endpoints = 3;
  QatDevice device(cfg);
  CryptoInstance* a = device.allocate_instance();
  CryptoInstance* b = device.allocate_instance();
  CryptoInstance* c = device.allocate_instance();
  // Even distribution (§5.1): three instances land on three endpoints.
  EXPECT_NE(a->endpoint(), b->endpoint());
  EXPECT_NE(b->endpoint(), c->endpoint());
  EXPECT_NE(a->endpoint(), c->endpoint());
}

TEST(QatDevice, FailedComputeReportsFailure) {
  QatDevice device(small_config());
  CryptoInstance* inst = device.allocate_instance();
  std::atomic<int> responded{0};
  std::atomic<bool> success{true};
  CryptoRequest req;
  req.kind = OpKind::kPrfTls12;
  req.compute = [] { return false; };
  req.on_response = [&](const CryptoResponse& r) {
    success.store(r.status == CryptoStatus::kSuccess);
    responded.fetch_add(1);
  };
  ASSERT_TRUE(inst->submit(req));
  poll_until(inst, &responded, 1);
  EXPECT_FALSE(success.load());
}

TEST(QatDevice, PollMaxLimitsBatch) {
  QatDevice device(small_config());
  CryptoInstance* inst = device.allocate_instance();
  std::atomic<int> computed{0}, responded{0};
  for (uint64_t i = 0; i < 6; ++i)
    ASSERT_TRUE(inst->submit(
        simple_request(i, OpKind::kPrfTls12, &computed, &responded)));
  // Wait until all are computed and queued.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (computed.load() < 6 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(inst->poll(2), 2u);
  EXPECT_EQ(responded.load(), 2);
  EXPECT_EQ(inst->poll(), 4u);
  EXPECT_EQ(responded.load(), 6);
}

TEST(ServiceTime, ModelOrdering) {
  const ServiceTimeModel model;
  // Asymmetric ops dominate; P-384 costs more than P-256; symmetric ops are
  // orders of magnitude cheaper — the premises behind the heuristic polling
  // thresholds.
  EXPECT_GT(model.service_ns(OpKind::kRsa2048Priv),
            10 * model.service_ns(OpKind::kPrfTls12));
  EXPECT_GT(model.service_ns(OpKind::kEcP384),
            model.service_ns(OpKind::kEcP256));
  EXPECT_GT(model.service_ns(OpKind::kRsa2048Priv),
            model.service_ns(OpKind::kCipher16k));
}

TEST(ServiceTime, CardLimitAnchors) {
  // 36 engines / 360us = 100K RSA/s (Fig. 7a plateau);
  // 36 / (360us + 2*270us) = 40K ECDHE-RSA handshakes/s (Fig. 7b plateau).
  const ServiceTimeModel model;
  const double engines = 36.0;
  const double rsa_cps = engines / (model.rsa2048_priv_ns * 1e-9);
  EXPECT_NEAR(rsa_cps, 100e3, 5e3);
  const double ecdhe_cps =
      engines /
      ((model.rsa2048_priv_ns + 2.0 * model.ec_p256_ns) * 1e-9);
  EXPECT_NEAR(ecdhe_cps, 40e3, 2e3);
}

TEST(OpClass, MappingMatchesPaper) {
  EXPECT_EQ(op_class_of(OpKind::kRsa2048Priv), OpClass::kAsym);
  EXPECT_EQ(op_class_of(OpKind::kEcP256), OpClass::kAsym);
  EXPECT_EQ(op_class_of(OpKind::kEcBinary409), OpClass::kAsym);
  EXPECT_EQ(op_class_of(OpKind::kPrfTls12), OpClass::kPrf);
  EXPECT_EQ(op_class_of(OpKind::kHkdf), OpClass::kPrf);
  EXPECT_EQ(op_class_of(OpKind::kCipher16k), OpClass::kCipher);
}

}  // namespace
}  // namespace qtls::qat
