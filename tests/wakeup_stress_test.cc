// Lost-wakeup stress for the device's event-driven wakeup (DESIGN.md §5).
// One submitter sends single ops, one at a time, to a two-engine endpoint.
// Each op serves for a random 0-20 us, and the submitter works for another
// random 0-20 us before it looks for the response, so responses land at
// every point of its poll/arm/re-check/sleep sequence, which is exactly
// the worker's. With one op in flight nothing else can mask a missed wake:
// a response pushed between the re-check and the sleep without a wake
// leaves the submitter blocked until its 1 s timeout. Run under
// -DQTLS_SANITIZE=thread this is the handshake's race workload.
#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <random>

#include "engine/qat_engine.h"

namespace qtls::engine {
namespace {

void spin_for(uint64_t ns) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(WakeupStress, ArmedSleepsNeverMissAResponse) {
  constexpr int kOps = 50'000;

  qat::DeviceConfig dcfg;
  dcfg.num_endpoints = 1;
  dcfg.engines_per_endpoint = 2;
  qat::QatDevice device(dcfg);
  QatEngineProvider qat(device.allocate_instance(), QatEngineConfig{});
  qat::CryptoInstance* inst = qat.instance();
  ASSERT_GE(qat.wakeup_fd(), 0);

  std::mt19937_64 rng(19);
  std::uniform_int_distribution<uint64_t> service_ns(0, 20'000);
  int submitted = 0, completed = 0, sleeps = 0, timeouts = 0;
  while (completed < kOps) {
    if (submitted == completed && submitted < kOps) {
      qat::CryptoRequest req;
      req.request_id = static_cast<uint64_t>(++submitted);
      req.kind = qat::OpKind::kPrfTls12;
      req.compute = [ns = service_ns(rng)] {
        spin_for(ns);
        return true;
      };
      req.on_response = [&completed](const qat::CryptoResponse& r) {
        EXPECT_EQ(r.status, qat::CryptoStatus::kSuccess);
        ++completed;
      };
      ASSERT_TRUE(inst->submit(std::move(req)));
      spin_for(service_ns(rng));
    }
    if (qat.poll() > 0) continue;
    if (!qat.arm_wakeup()) continue;  // a response already waits
    ++sleeps;
    pollfd pfd{qat.wakeup_fd(), POLLIN, 0};
    if (::poll(&pfd, 1, /*timeout_ms=*/1000) == 0 && ++timeouts > 3) break;
    uint64_t count = 0;
    [[maybe_unused]] ssize_t n = ::read(qat.wakeup_fd(), &count, sizeof(count));
    qat.disarm_wakeup();
  }
  EXPECT_EQ(timeouts, 0);
  EXPECT_EQ(submitted, kOps);
  EXPECT_EQ(completed, submitted);
  EXPECT_EQ(inst->inflight(), 0u);
  EXPECT_GT(sleeps, 0);
}

}  // namespace
}  // namespace qtls::engine
