// Contention stress for the lock-free dispatch path: several submitter
// threads drive one endpoint through deliberately tiny rings, so every
// moving part is exercised under pressure — the §3.2 ring-full retry path,
// the per-engine futex wakeups, the claim protocol racing multiple engines
// over multiple instances, and the MPSC response rings with all engines
// pushing concurrently. Run under -DQTLS_SANITIZE=thread this is the
// dispatch path's race detector workload.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "qat/device.h"

namespace qtls::qat {
namespace {

CryptoRequest counting_request(uint64_t id, std::atomic<int>* computed,
                               std::atomic<int>* responded) {
  CryptoRequest req;
  req.request_id = id;
  req.kind = OpKind::kPrfTls12;
  req.compute = [computed] {
    computed->fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  req.on_response = [responded](const CryptoResponse& r) {
    EXPECT_EQ(r.status, CryptoStatus::kSuccess);
    responded->fetch_add(1, std::memory_order_relaxed);
  };
  return req;
}

// Each submitter owns one instance (the SPSC submit contract) but all of
// them share the endpoint's engines; tiny rings force constant ring-full
// rejections and re-submissions.
TEST(QatStress, ManySubmittersTinyRings) {
  constexpr int kSubmitters = 4;
  constexpr int kOpsPerSubmitter = 2'000;

  DeviceConfig cfg;
  cfg.num_endpoints = 1;
  cfg.engines_per_endpoint = 3;
  cfg.ring_capacity = 2;  // tiny: the retry path is the common case
  cfg.max_instances_per_endpoint = kSubmitters;
  QatDevice device(cfg);

  std::vector<CryptoInstance*> instances;
  for (int i = 0; i < kSubmitters; ++i) {
    CryptoInstance* inst = device.allocate_instance();
    ASSERT_NE(inst, nullptr);
    instances.push_back(inst);
  }

  std::atomic<int> computed{0}, responded{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      CryptoInstance* inst = instances[static_cast<size_t>(s)];
      for (int i = 0; i < kOpsPerSubmitter; ++i) {
        const uint64_t id =
            static_cast<uint64_t>(s) * kOpsPerSubmitter + i + 1;
        while (!inst->submit(counting_request(id, &computed, &responded))) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          inst->poll();  // drain our own responses to make room
          std::this_thread::yield();
        }
        if ((i & 63) == 0) inst->poll();
      }
      // Drain the tail: everything this instance submitted must come back.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (inst->inflight() > 0 &&
             std::chrono::steady_clock::now() < deadline) {
        inst->poll();
        std::this_thread::yield();
      }
      EXPECT_EQ(inst->inflight(), 0u);
    });
  }
  for (auto& t : submitters) t.join();

  constexpr int kTotal = kSubmitters * kOpsPerSubmitter;
  EXPECT_EQ(computed.load(), kTotal);
  EXPECT_EQ(responded.load(), kTotal);

  const FwCounters fw = device.fw_counters();
  EXPECT_EQ(fw.requests[static_cast<int>(OpClass::kPrf)],
            static_cast<uint64_t>(kTotal));
  EXPECT_EQ(fw.responses[static_cast<int>(OpClass::kPrf)],
            static_cast<uint64_t>(kTotal));
  // With 2-slot rings and 8'000 ops, the ring-full path must actually fire.
  EXPECT_GT(rejected.load(), 0u);
}

// Batched submits under the same contention: submit_batch must accept a
// prefix, never lose or duplicate a request, and issue wakeups that keep
// the engines draining.
TEST(QatStress, BatchedSubmittersTinyRings) {
  constexpr int kSubmitters = 3;
  constexpr int kOpsPerSubmitter = 1'536;
  constexpr size_t kBatch = 8;

  DeviceConfig cfg;
  cfg.num_endpoints = 1;
  cfg.engines_per_endpoint = 2;
  cfg.ring_capacity = 4;
  cfg.max_instances_per_endpoint = kSubmitters;
  QatDevice device(cfg);

  std::vector<CryptoInstance*> instances;
  for (int i = 0; i < kSubmitters; ++i)
    instances.push_back(device.allocate_instance());

  std::atomic<int> computed{0}, responded{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      CryptoInstance* inst = instances[static_cast<size_t>(s)];
      uint64_t next_id = static_cast<uint64_t>(s) * kOpsPerSubmitter + 1;
      int remaining = kOpsPerSubmitter;
      while (remaining > 0) {
        const size_t want =
            std::min(kBatch, static_cast<size_t>(remaining));
        std::vector<CryptoRequest> batch;
        for (size_t i = 0; i < want; ++i)
          batch.push_back(
              counting_request(next_id + i, &computed, &responded));
        const size_t accepted =
            inst->submit_batch({batch.data(), batch.size()});
        ASSERT_LE(accepted, want);
        next_id += accepted;
        remaining -= static_cast<int>(accepted);
        if (accepted < want) {
          inst->poll();
          std::this_thread::yield();
        }
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (inst->inflight() > 0 &&
             std::chrono::steady_clock::now() < deadline) {
        inst->poll();
        std::this_thread::yield();
      }
      EXPECT_EQ(inst->inflight(), 0u);
    });
  }
  for (auto& t : submitters) t.join();

  constexpr int kTotal = kSubmitters * kOpsPerSubmitter;
  EXPECT_EQ(computed.load(), kTotal);
  EXPECT_EQ(responded.load(), kTotal);
  EXPECT_EQ(device.fw_counters().total_requests(),
            static_cast<uint64_t>(kTotal));
}

// The inflight gate (response-ring backpressure) must hold even when the
// submitter never polls: accepted submissions are bounded by
// inflight_limit(), and every accepted one is eventually retrievable.
TEST(QatStress, BackpressureBoundsInflight) {
  DeviceConfig cfg;
  cfg.num_endpoints = 1;
  cfg.engines_per_endpoint = 2;
  cfg.ring_capacity = 4;
  QatDevice device(cfg);
  CryptoInstance* inst = device.allocate_instance();

  std::atomic<int> computed{0}, responded{0};
  size_t accepted = 0;
  for (uint64_t id = 1; id <= 10'000; ++id) {
    if (inst->submit(counting_request(id, &computed, &responded)))
      ++accepted;
    else
      break;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LE(accepted, inst->inflight_limit());
  EXPECT_EQ(inst->inflight(), accepted);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (responded.load() < static_cast<int>(accepted) &&
         std::chrono::steady_clock::now() < deadline) {
    inst->poll();
    std::this_thread::yield();
  }
  EXPECT_EQ(responded.load(), static_cast<int>(accepted));
  EXPECT_EQ(inst->inflight(), 0u);
}

}  // namespace
}  // namespace qtls::qat
