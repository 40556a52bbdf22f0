// Seal batches with more records than the instance's request ring holds.
// submit_batch() accepts the prefix that fits and the engine resubmits the
// rest as the ring drains, so every resubmitted request must still carry its
// compute and response closures: a push that fails on a full ring must not
// consume the request. Both modes must settle, with output byte-identical to
// the software provider. A hang here is the failure; ctest's TIMEOUT turns
// it into one.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>

#include "common/rng.h"
#include "crypto/gcm.h"
#include "engine/qat_engine.h"

namespace qtls {
namespace {

constexpr size_t kRing = 64;
constexpr size_t kFragment = 2048;

struct Rig {
  explicit Rig(engine::OffloadMode mode)
      : mode(mode),
        device(config()),
        qat(device.allocate_instance(), engine_config(mode)) {}

  static qat::DeviceConfig config() {
    qat::DeviceConfig dcfg;
    dcfg.num_endpoints = 1;
    dcfg.engines_per_endpoint = 1;
    dcfg.ring_capacity = kRing;
    return dcfg;
  }
  static engine::QatEngineConfig engine_config(engine::OffloadMode mode) {
    engine::QatEngineConfig ecfg;
    ecfg.offload_mode = mode;
    return ecfg;
  }

  // Runs `seal` directly in sync mode, or in an async job driven by polls
  // and resumes the way a worker drives it.
  Status run(const std::function<Status()>& seal) {
    if (mode == engine::OffloadMode::kSync) return seal();
    Status result = Status::ok();
    asyncx::AsyncJob* job = nullptr;
    asyncx::WaitCtx wctx;
    int ret = 0;
    auto fn = [&]() -> int {
      result = seal();
      return 1;
    };
    asyncx::JobStatus status = asyncx::start_job(&job, &wctx, &ret, fn);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (status == asyncx::JobStatus::kPaused &&
           std::chrono::steady_clock::now() < deadline) {
      qat.poll();
      status = asyncx::start_job(&job, &wctx, &ret, nullptr);
    }
    if (status != asyncx::JobStatus::kFinished)
      return err(Code::kUnavailable, "seal batch never settled");
    return result;
  }

  engine::OffloadMode mode;
  qat::QatDevice device;
  engine::QatEngineProvider qat;
};

class SealBatchOverRing
    : public ::testing::TestWithParam<std::tuple<engine::OffloadMode, size_t>> {
};

INSTANTIATE_TEST_SUITE_P(
    Modes, SealBatchOverRing,
    ::testing::Combine(::testing::Values(engine::OffloadMode::kSync,
                                         engine::OffloadMode::kAsync),
                       ::testing::Values(kRing + 1, 2 * kRing + 1)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == engine::OffloadMode::kSync
                             ? "Sync"
                             : "Async") +
             std::to_string(std::get<1>(info.param)) + "Records";
    });

TEST_P(SealBatchOverRing, AeadBatchSettlesAndMatchesSoftware) {
  const auto [mode, records] = GetParam();
  Rig rig(mode);
  Rng rng(records);
  const Bytes key = rng.bytes(16);
  const Bytes aad = rng.bytes(13);
  std::vector<Bytes> nonces, fragments;
  std::vector<Bytes> got(records), want(records);
  std::vector<engine::AeadSealJob> jobs, sw_jobs;
  for (size_t i = 0; i < records; ++i) {
    nonces.push_back(rng.bytes(kGcmNonceSize));
    fragments.push_back(rng.bytes(kFragment));
  }
  for (size_t i = 0; i < records; ++i) {
    jobs.push_back({nonces[i], aad, fragments[i], &got[i]});
    sw_jobs.push_back({nonces[i], aad, fragments[i], &want[i]});
  }

  const Status st =
      rig.run([&] { return rig.qat.aead_seal_batch(key, jobs); });
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  engine::SoftwareProvider sw;
  ASSERT_TRUE(sw.aead_seal_batch(key, sw_jobs).is_ok());
  for (size_t i = 0; i < records; ++i) EXPECT_EQ(got[i], want[i]) << i;
  EXPECT_EQ(rig.qat.inflight_total(), 0u);
  EXPECT_EQ(rig.qat.stats().sw_fallbacks, 0u);
}

TEST_P(SealBatchOverRing, CipherBatchSettlesAndMatchesSoftware) {
  const auto [mode, records] = GetParam();
  Rig rig(mode);
  Rng rng(records + 1);
  CbcHmacKeys keys;
  keys.enc_key = rng.bytes(16);
  keys.mac_key = rng.bytes(20);
  std::vector<Bytes> headers, ivs, fragments;
  std::vector<Bytes> got(records), want(records);
  std::vector<engine::CipherSealJob> jobs, sw_jobs;
  for (size_t i = 0; i < records; ++i) {
    headers.push_back({23, 3, 3, kFragment >> 8, kFragment & 0xff});
    ivs.push_back(rng.bytes(16));
    fragments.push_back(rng.bytes(kFragment));
  }
  for (size_t i = 0; i < records; ++i) {
    jobs.push_back({i, headers[i], ivs[i], fragments[i], &got[i]});
    sw_jobs.push_back({i, headers[i], ivs[i], fragments[i], &want[i]});
  }

  const Status st =
      rig.run([&] { return rig.qat.cipher_seal_batch(keys, jobs); });
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  engine::SoftwareProvider sw;
  ASSERT_TRUE(sw.cipher_seal_batch(keys, sw_jobs).is_ok());
  for (size_t i = 0; i < records; ++i) EXPECT_EQ(got[i], want[i]) << i;
  EXPECT_EQ(rig.qat.inflight_total(), 0u);
  EXPECT_EQ(rig.qat.stats().sw_fallbacks, 0u);
}

}  // namespace
}  // namespace qtls
