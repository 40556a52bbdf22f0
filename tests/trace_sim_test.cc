// Virtual-time trace oracle (DESIGN.md §8): the sim backend stamps request
// lifecycles with the DES clock, so every per-stage latency recovered from
// the trace ring must equal the sim/costs.h model EXACTLY — no tolerance.
// Also proves fault-counter conservation: the FaultPlan's own tallies match
// what the instance delivers (with observability compiled out too).
#include <gtest/gtest.h>

#include "qat/fault.h"
#include "sim/qat_sim.h"

namespace qtls::sim {
namespace {

struct SimRig {
  Simulator sim;
  CostModel costs;
  SimQatDevice device;
  SimQatInstance* inst;

  explicit SimRig(int engines = 4, size_t ring = 4096)
      : device(&sim, &costs, /*endpoints=*/1, engines),
        inst(device.allocate_instance(ring)) {
    obs::set_trace_sample_period(1);
    obs::trace_ring_clear();
    obs::MetricsRegistry::global().reset();
  }
  ~SimRig() { obs::set_trace_sample_period(64); }
};

#if !QTLS_OBS_ENABLED

// Whole-tree -DQTLS_OBS=OFF build: tracing is compiled out, nothing to
// oracle against (tests/obs_noop_test.cc covers the disabled contract).
TEST(TraceSim, SkippedObservabilityBuiltOut) { SUCCEED(); }

#else

using obs::Stage;
using obs::TraceRecord;

uint64_t stage_ts(const TraceRecord& r, Stage s) {
  return r.ts[static_cast<size_t>(s)];
}

TEST(TraceSim, StageLatenciesMatchCostModelExactly) {
  SimRig rig;
  const SimTime service = rig.costs.qat_service(SOp::kRsaPriv);
  ASSERT_GT(service, 0u);

  // Advance the clock so stamps are nonzero (0 means "unstamped").
  const SimTime t0 = kMs;
  rig.sim.run_until(t0);

  bool done = false;
  ASSERT_TRUE(rig.inst->submit(SOp::kRsaPriv, [&] { done = true; }));
  const SimTime poll_time = t0 + service + 10 * kUs;
  rig.sim.run_until(poll_time);
  ASSERT_EQ(rig.inst->poll(), 1u);
  ASSERT_TRUE(done);

  const auto records = obs::trace_ring_snapshot();
  ASSERT_EQ(records.size(), 1u);
  const TraceRecord& r = records[0];
  EXPECT_TRUE(r.sim);
  EXPECT_EQ(r.op_class, static_cast<uint8_t>(qat::OpClass::kAsym));

  // Submitted onto an idle engine: submit == enqueue == claim ==
  // service-start, service-done == +the model's service time, drain == the
  // poll instant. Every delta is exact — no tolerance.
  EXPECT_EQ(stage_ts(r, Stage::kSubmit), t0);
  EXPECT_EQ(stage_ts(r, Stage::kRingEnqueue), t0);
  EXPECT_EQ(stage_ts(r, Stage::kEngineClaim), t0);
  EXPECT_EQ(stage_ts(r, Stage::kServiceStart), t0);
  EXPECT_EQ(stage_ts(r, Stage::kServiceDone), t0 + service);
  EXPECT_EQ(stage_ts(r, Stage::kPollDrain), poll_time);
  EXPECT_EQ(stage_ts(r, Stage::kServiceDone) -
                stage_ts(r, Stage::kServiceStart),
            service);
  EXPECT_EQ(stage_ts(r, Stage::kPollDrain) - stage_ts(r, Stage::kServiceDone),
            poll_time - (t0 + service));

  // The per-stage histograms saw exactly these deltas.
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::global().snapshot();
  const LatencyHistogram* svc = snap.histogram("sim.qat.stage.service");
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(svc->count(), 1u);
  EXPECT_EQ(svc->max_nanos(), service);
  const LatencyHistogram* drain = snap.histogram("sim.qat.stage.drain");
  ASSERT_NE(drain, nullptr);
  EXPECT_EQ(drain->max_nanos(), poll_time - (t0 + service));
}

TEST(TraceSim, QueueDelayEqualsPredecessorServiceTime) {
  // One engine, two back-to-back submits: the second op's engine-claim is
  // exactly the first op's completion (the queueing delay is the model).
  SimRig rig(/*engines=*/1);
  const SimTime service = rig.costs.qat_service(SOp::kEcdhP256);
  const SimTime t0 = kMs;
  rig.sim.run_until(t0);

  ASSERT_TRUE(rig.inst->submit(SOp::kEcdhP256, [] {}));
  ASSERT_TRUE(rig.inst->submit(SOp::kEcdhP256, [] {}));
  rig.sim.run_until(t0 + 10 * service);
  EXPECT_EQ(rig.inst->poll(), 2u);

  const auto records = obs::trace_ring_snapshot();
  ASSERT_EQ(records.size(), 2u);
  const TraceRecord& second = records[1];
  EXPECT_EQ(stage_ts(second, Stage::kSubmit), t0);
  EXPECT_EQ(stage_ts(second, Stage::kEngineClaim), t0 + service);
  EXPECT_EQ(stage_ts(second, Stage::kEngineClaim) -
                stage_ts(second, Stage::kRingEnqueue),
            service);
  EXPECT_EQ(stage_ts(second, Stage::kServiceDone), t0 + 2 * service);

  // The per-stage histograms in the global registry saw both requests.
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::global().snapshot();
  const LatencyHistogram* queue = snap.histogram("sim.qat.stage.queue");
  const LatencyHistogram* svc = snap.histogram("sim.qat.stage.service");
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(queue->count(), 2u);
  EXPECT_EQ(svc->count(), 2u);
  EXPECT_EQ(svc->max_nanos(), service);
  EXPECT_EQ(queue->max_nanos(), service);  // second op queued one service
  EXPECT_EQ(snap.counter_value("sim.qat.op.asym.completed"), 2u);
}

TEST(TraceSim, PerClassHistogramsSeparateAsymFromSym) {
  SimRig rig;
  rig.sim.run_until(kMs);
  ASSERT_TRUE(rig.inst->submit(SOp::kRsaPriv, [] {}));
  ASSERT_TRUE(rig.inst->submit(SOp::kCipher16k, [] {}));
  ASSERT_TRUE(rig.inst->submit(SOp::kPrf, [] {}));
  rig.sim.run_until(10 * kMs);
  EXPECT_EQ(rig.inst->poll(), 3u);

  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_value("sim.qat.op.asym.completed"), 1u);
  EXPECT_EQ(snap.counter_value("sim.qat.op.cipher.completed"), 1u);
  EXPECT_EQ(snap.counter_value("sim.qat.op.prf.completed"), 1u);
  ASSERT_NE(snap.histogram("sim.qat.op.asym.total_ns"), nullptr);
  EXPECT_EQ(snap.histogram("sim.qat.op.asym.total_ns")->count(), 1u);
}

#endif  // QTLS_OBS_ENABLED

TEST(TraceSim, FaultCountersConserveAgainstPlan) {
  SimRig rig(/*engines=*/8);
  qat::FaultPlan plan(/*seed=*/0xfeedULL);
  qat::FaultRates rates;
  rates.error_rate = 0.05;
  rates.drop_rate = 0.03;
  rates.stall_rate = 0.02;
  rates.stall_ns = 10 * kUs;
  plan.set_rates_all(rates);
  rig.device.set_fault_plan(&plan);

  constexpr int kOps = 1500;
  const SOp kinds[] = {SOp::kRsaPriv, SOp::kEcdhP256, SOp::kPrf,
                       SOp::kCipher16k};
  uint64_t cb_errors = 0, cb_ok = 0, delivered = 0;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(rig.inst->submit_with_status(
        kinds[i % 4], rig.costs.qat_service(kinds[i % 4]),
        [&](qat::CryptoStatus st) {
          ++delivered;
          if (st == qat::CryptoStatus::kDeviceError)
            ++cb_errors;
          else if (st == qat::CryptoStatus::kSuccess)
            ++cb_ok;
        }));
  }
  rig.sim.run_until(kSec);
  rig.inst->poll();

  // A reset window: every op dispatched while open fails with kDeviceReset.
  plan.trigger_reset();
  constexpr int kResetOps = 7;
  uint64_t cb_resets = 0;
  for (int i = 0; i < kResetOps; ++i) {
    ASSERT_TRUE(rig.inst->submit_with_status(
        SOp::kRsaPriv, rig.costs.qat_service(SOp::kRsaPriv),
        [&](qat::CryptoStatus st) {
          if (st == qat::CryptoStatus::kDeviceReset) ++cb_resets;
        }));
  }
  plan.clear_reset();
  rig.sim.run_until(2 * kSec);
  rig.inst->poll();

  const qat::FaultCounters& fc = plan.counters();

  // Conservation: the plan decided once per submission, and every reset
  // window op failed as a reset.
  EXPECT_EQ(fc.decisions.load(), static_cast<uint64_t>(kOps + kResetOps));
  EXPECT_EQ(fc.reset_failures.load(), static_cast<uint64_t>(kResetOps));
  EXPECT_GT(fc.injected_errors.load(), 0u);
  EXPECT_GT(fc.injected_drops.load(), 0u);
  EXPECT_GT(fc.injected_stalls.load(), 0u);

  // Delivery-side conservation: dropped responses are never polled, every
  // other submission is delivered exactly once with its injected status.
  EXPECT_EQ(cb_errors, fc.injected_errors.load());
  EXPECT_EQ(cb_resets, fc.reset_failures.load());
  EXPECT_EQ(rig.inst->dropped_responses(), fc.injected_drops.load());
  EXPECT_EQ(delivered, kOps - fc.injected_drops.load());
  EXPECT_EQ(cb_ok,
            kOps - fc.injected_errors.load() - fc.injected_drops.load());
  EXPECT_EQ(rig.inst->inflight_total(), 0u);
}

}  // namespace
}  // namespace qtls::sim
